import math

import numpy as np
import pytest

from glmphase.channels import LinearAWGN, ReLU, Sign, SymmetricDoor
from glmphase.gamp import GampOptions, gamp_run, generate_instance
from glmphase.oracle import (exact_posterior, mc_psi_p0, mc_psi_pout,
                             nishimori_check)
from glmphase.priors import GaussianPrior, RademacherPrior, TwoPointPrior


# mc_psi_pout(Sign(), 0.3, 1.0, 2000, seed=4); numerics.erfcx in place of
# scipy.special's erfcx and ndtr moved the stderr by one ulp from the value
# scipy gave
SIGN_PINNED = (-0.5909537896945669, 0.009501701950523906)
SIGN_PINNED_SCIPY = (-0.5909537896945669, 0.009501701950523904)


class TestExactPosterior:
    def test_single_variable_matches_scalar_denoiser(self):
        # n = 1: the posterior mean must reduce to the scalar denoiser with
        # snr phi^2 / delta and pseudo-observation matched accordingly
        inst = generate_instance(RademacherPrior(), LinearAWGN(1.0), 1, 2.0,
                                 seed=5)
        post = exact_posterior(inst)
        phi = inst.phi[:, 0]
        # posterior of x in {-1, +1}: log-odds = 2 y . phi / delta
        logodds = 2.0 * float(inst.y @ phi) / 1.0
        expected = math.tanh(logodds / 2.0)
        assert post.posterior_means[0] == pytest.approx(expected, rel=1e-10)

    def test_probabilities_normalized(self):
        inst = generate_instance(RademacherPrior(), LinearAWGN(0.5), 6, 1.5,
                                 seed=1)
        post = exact_posterior(inst)
        assert post.posterior_probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert len(post.posterior_probs) == 2 ** 6

    def test_noiseless_sign_concentrates_on_truth(self):
        # sign is odd, so the planted configuration is identified at large m
        inst = generate_instance(RademacherPrior(), Sign(), 8, 8.0, seed=3)
        post = exact_posterior(inst)
        assert np.allclose(post.posterior_means, inst.x_star, atol=1e-6)
        assert post.exact_mmse == pytest.approx(0.0, abs=1e-10)

    def test_door_posterior_is_sign_symmetric(self):
        inst = generate_instance(RademacherPrior(), SymmetricDoor(), 6, 3.0,
                                 seed=7)
        post = exact_posterior(inst)
        assert np.allclose(post.posterior_means, 0.0, atol=1e-12)

    def test_support_size_guard(self):
        inst = generate_instance(RademacherPrior(), LinearAWGN(0.5), 30, 1.0,
                                 seed=0)
        with pytest.raises(ValueError):
            exact_posterior(inst)

    def test_continuous_prior_rejected(self):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.5), 4, 1.0,
                                 seed=0)
        with pytest.raises(ValueError):
            exact_posterior(inst)

    def test_gamp_close_to_exact_posterior_mean(self):
        # enumeration as the oracle; loose tolerance because GAMP is an
        # asymptotic algorithm run here at n = 12
        rms = []
        for seed in range(20):
            inst = generate_instance(RademacherPrior(), LinearAWGN(0.5), 12,
                                     2.0, seed=seed)
            post = exact_posterior(inst)
            run = gamp_run(inst, GampOptions(seed=seed, damping=0.5))
            rms.append(math.sqrt(float(np.mean(
                (run.x_hat_final - post.posterior_means) ** 2))))
        assert np.mean(rms) < 0.15


class TestNishimori:
    def test_overlap_statistic(self):
        rep = nishimori_check(RademacherPrior(), LinearAWGN(0.5), n=8,
                              alpha=1.5, samples=2000, seed=0)
        assert rep.z_score < 3.0

    def test_constant_statistic_exact(self):
        rep = nishimori_check(RademacherPrior(), LinearAWGN(1.0), n=4,
                              alpha=1.0, samples=120, seed=1,
                              statistic=lambda y, xs: 1.0)
        assert rep.lhs_mc == rep.rhs_mc == 1.0
        assert rep.z_score == 0.0

    def test_fixed_norm_statistic_exact(self):
        # |x|^2 / n = 1 identically for Rademacher configurations
        rep = nishimori_check(
            RademacherPrior(), LinearAWGN(1.0), n=4, alpha=1.0, samples=120,
            seed=2, statistic=lambda y, xs: float(xs[-1] @ xs[-1]) / len(xs[-1]))
        assert rep.lhs_mc == pytest.approx(1.0)
        assert rep.rhs_mc == pytest.approx(1.0)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        # one sample has no standard error, and none gives NaN means; both
        # once read as z = 0, a pass
        with pytest.raises(ValueError, match="at least 2 samples"):
            nishimori_check(RademacherPrior(), LinearAWGN(0.5), n=4, alpha=1.0,
                            samples=samples)

    def test_discrete_noiseless_channel(self):
        rep = nishimori_check(RademacherPrior(), Sign(), n=8, alpha=1.5,
                              samples=800, seed=3)
        assert rep.z_score < 3.0


class TestMCFreeEntropies:
    def test_psi_p0_zero_snr(self):
        est, se = mc_psi_p0(RademacherPrior(), 0.0, 500, seed=0)
        assert est == 0.0 and se == 0.0

    def test_psi_p0_gaussian(self):
        est, se = mc_psi_p0(GaussianPrior(1.0), 1.0, 60000, seed=1)
        exact = 0.5 - math.log(2.0) / 2.0
        assert abs(est - exact) < 3 * se
        assert se < 0.01

    def test_psi_p0_rademacher(self):
        est, se = mc_psi_p0(RademacherPrior(), 2.0, 60000, seed=2)
        assert abs(est - RademacherPrior().psi_p0(2.0)) < 3 * se

    def test_psi_p0_two_point(self):
        prior = TwoPointPrior(values=(1.5, -0.5), probabilities=(0.3, 0.7))
        est, se = mc_psi_p0(prior, 1.3, 60000, seed=3)
        assert abs(est - prior.psi_p0(1.3)) < 3 * se

    def test_psi_pout_sign_at_zero_overlap(self):
        est, se = mc_psi_pout(Sign(), 0.0, 1.0, 500, seed=4)
        assert est == pytest.approx(-math.log(2.0), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_psi_pout_linear(self):
        est, se = mc_psi_pout(LinearAWGN(0.5), 0.4, 1.0, 60000, seed=5)
        assert abs(est - LinearAWGN(0.5).psi_pout(0.4, 1.0)) < 3 * se

    def test_psi_pout_door(self):
        est, se = mc_psi_pout(SymmetricDoor(), 0.3, 1.0, 60000, seed=6)
        assert abs(est - SymmetricDoor().psi_pout(0.3, 1.0)) < 3 * se

    @pytest.mark.parametrize("channel,pinned", [
        (Sign(), SIGN_PINNED),
        (ReLU(0.3), (-1.091797645929476, 0.017286695341818734)),
    ], ids=repr)
    def test_psi_pout_pinned(self, channel, pinned):
        # Sign's labels are phi(z); ReLU draws all its label noise in one
        # sample_label call, from one integer of the sample generator
        assert mc_psi_pout(channel, 0.3, 1.0, 2000, seed=4) == pinned

    def test_sign_repin_stays_near_scipy_value(self):
        assert SIGN_PINNED == pytest.approx(SIGN_PINNED_SCIPY, rel=1e-13, abs=0.0)

    def test_stderr_scales_with_samples(self):
        _, se1 = mc_psi_p0(GaussianPrior(1.0), 1.0, 4000, seed=7)
        _, se2 = mc_psi_p0(GaussianPrior(1.0), 1.0, 16000, seed=7)
        assert se2 == pytest.approx(se1 / 2.0, rel=0.15)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_psi_p0(GaussianPrior(1.0), 1.0, 10, seed=0)
