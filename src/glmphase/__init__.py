"""Bayes-optimal errors and algorithmic phase transitions for high-dimensional
generalized linear models: replica potential, state evolution, GAMP, and the
information-theoretic / algorithmic / stability thresholds."""

__version__ = "0.1.0"

from .channels import (Abs, Channel, GoutUnderflowError, LinearAWGN,
                       OutputDenoiser, ReLU, Sigmoid, Sign, SymmetricDoor,
                       density, gout, psi_pout, psi_pout_prime, sample_label,
                       stability_integral, zout)
from .gamp import (GampDivergenceError, GampOptions, GampRun, GampState,
                   Instance, empirical_generalization_error, gamp_predict,
                   gamp_run, generate_instance, load_instance, save_instance)
from .numerics import (BracketError, FixedPointDivergenceError,
                       FixedPointOptions, FixedPointResult,
                       NonFiniteIntegrandError, QuadratureRule, bisect,
                       damped_fixed_point, gauss_hermite, integrate_1d)
from .oracle import (ExactPosterior, NishimoriReport, exact_posterior,
                     mc_psi_p0, mc_psi_pout, nishimori_check)
from .priors import (DenoiserOutput, GaussBernoulliPrior, GaussianPrior,
                     Prior, RademacherPrior, TwoPointPrior, denoise, psi_p0,
                     psi_p0_prime, sample)
from .replica import (ReplicaPoint, ReplicaSolution, RouteDisagreementError,
                      denoising_error, f_rs, generalization_error, i_rs,
                      solve)
from .state_evolution import (SENonConvergenceError, SETrajectory,
                              TransitionReport, find_alpha_amp, find_alpha_c,
                              find_alpha_it, gamma_branches, phase_sweep,
                              se_run)

__all__ = [name for name in dir() if not name.startswith("_")]
