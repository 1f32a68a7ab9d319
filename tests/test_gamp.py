import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from glmphase import gamp
from glmphase.channels import (Abs, Channel, LinearAWGN, ReLU, Sigmoid, Sign,
                               SymmetricDoor)
from glmphase.gamp import (GampDivergenceError, GampOptions, GampState,
                           Instance, empirical_generalization_error, from_spec,
                           gamp_predict, gamp_run, generate_instance,
                           load_instance, save_instance, to_spec)
from glmphase.numerics import FixedPointOptions
from glmphase.priors import (GaussBernoulliPrior, GaussianPrior, Prior,
                             RademacherPrior, TwoPointPrior)

# every prior and channel, with non-default fields (an ignored field,
# such as the epsilon of LinearAWGN and Sigmoid, must be 0)
SPEC_PRIORS = [GaussianPrior(2.0), RademacherPrior(0.3), GaussBernoulliPrior(0.2),
               TwoPointPrior((1.0, -0.5), (0.25, 0.75))]
SPEC_CHANNELS = [LinearAWGN(0.3), Sign(0.2, epsilon=0.1),
                 Abs(0.1, epsilon=0.2), ReLU(0.3, epsilon=0.1),
                 SymmetricDoor(K=1.2, delta=0.1, epsilon=0.05),
                 Sigmoid(3.0)]
# the spec dicts instance files have always held, one per class above
PARENT_SPECS = [
    ({"kind": "gaussian", "variance": 2.0}, Prior),
    ({"kind": "rademacher", "p_plus": 0.3}, Prior),
    ({"kind": "gauss_bernoulli", "sparsity": 0.2}, Prior),
    ({"kind": "two_point", "values": [1.0, -0.5],
      "probabilities": [0.25, 0.75]}, Prior),
    ({"kind": "linear", "epsilon": 0.0, "delta": 0.3}, Channel),
    ({"kind": "sign", "epsilon": 0.1, "delta": 0.2}, Channel),
    ({"kind": "abs", "epsilon": 0.2, "delta": 0.1}, Channel),
    ({"kind": "relu", "epsilon": 0.1, "delta": 0.3}, Channel),
    ({"kind": "door", "epsilon": 0.05, "delta": 0.1, "K": 1.2}, Channel),
    ({"kind": "sigmoid", "epsilon": 0.0, "slope": 3.0}, Channel),
]
from glmphase.state_evolution import se_run

# noise-free and noisy piecewise channels, and Sigmoid
LABEL_CHANNELS = [Sign(), Sign(0.2), Abs(0.0), ReLU(0.3), SymmetricDoor(),
                  LinearAWGN(0.0), LinearAWGN(0.5), Sigmoid(2.0)]


def _label_inputs(inst):
    """(z, label seed) of format version 2: z = phi x* / sqrt(n) summed row
    by row, and the integer seed of stream 2 of the instance seed."""
    z = np.einsum("ij,j->i", inst.phi, inst.x_star) / math.sqrt(inst.n)
    return z, int(np.random.SeedSequence((inst.seed, 2)).generate_state(1)[0])


def _full_matrix_error(inst, x_hat, q_t, n_test, seed):
    """The per-row squared errors of empirical_generalization_error as it
    first was: the whole (n_test, n) test design in one draw, and the
    labels from a stream of their own."""
    n = inst.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    phi_new = rng.standard_normal((n_test, n))
    z_new = phi_new @ inst.x_star / math.sqrt(n)
    y_new = inst.channel.sample_label(z_new, seed ^ 0x5EED)
    y_pred = gamp_predict(x_hat, q_t, phi_new, inst.channel,
                          inst.prior.second_moment)
    return (y_new - y_pred) ** 2


class TestGenerateInstance:
    def test_shapes(self):
        inst = generate_instance(RademacherPrior(), Sign(), 4, 0.5, seed=0)
        assert inst.phi.shape == (2, 4)
        assert inst.m == 2 and inst.n == 4
        assert inst.alpha == pytest.approx(0.5)

    def test_noiseless_linear_labels(self):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.0), 50, 1.0,
                                 seed=1)
        z = inst.phi @ inst.x_star / math.sqrt(50)
        assert np.allclose(inst.y, z)

    def test_phi_variance(self):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.1), 1000,
                                 1.0, seed=2)
        var = inst.phi.var()
        assert abs(var - 1.0) < 3 * math.sqrt(2.0 / inst.phi.size)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance(RademacherPrior(), Sign(), 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance(RademacherPrior(), Sign(), 10, -1.0, seed=0)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="round"):
            generate_instance(RademacherPrior(), Sign(), 10, 0.01, seed=0)

    @pytest.mark.parametrize("channel", LABEL_CHANNELS, ids=repr)
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_labels_are_one_sample_label_call(self, channel, seed):
        inst = generate_instance(GaussBernoulliPrior(0.3), channel, 60, 1.5,
                                 seed=seed)
        z, label_seed = _label_inputs(inst)
        assert np.array_equal(inst.y, channel.sample_label(z, label_seed))

    @pytest.mark.parametrize("channel", [Sign(), Abs(0.0), SymmetricDoor(),
                                         LinearAWGN(0.0)], ids=repr)
    def test_noise_free_labels_are_phi_z(self, channel):
        inst = generate_instance(GaussianPrior(1.0), channel, 60, 1.5, seed=2)
        z, _ = _label_inputs(inst)
        assert np.array_equal(inst.y, channel.phi(z))

    # with n = 1000 and m = 601, a 2-thread BLAS product phi @ x_star gave
    # last-bit differences in rows 300 and 600, and so other LinearAWGN(0)
    # labels
    @pytest.mark.parametrize("prior,channel", [
        (GaussianPrior(1.0), LinearAWGN(0.0)),
        (GaussBernoulliPrior(0.2), Sign(0.2))], ids=repr)
    def test_instance_bytes_independent_of_blas_threads(self, prior, channel):
        src = str(Path(gamp.__file__).resolve().parents[1])
        script = (
            f"import hashlib, sys; sys.path.insert(0, {src!r})\n"
            "from glmphase import gamp\n"
            "from glmphase.channels import *\n"
            "from glmphase.priors import *\n"
            f"inst = gamp.generate_instance({prior!r}, {channel!r}, 1000, 0.601, 0)\n"
            "print([hashlib.sha1(a.tobytes()).hexdigest()"
            " for a in (inst.phi, inst.x_star, inst.y)])\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120)
            digests.append(out.stdout)
        inst = generate_instance(prior, channel, 1000, 0.601, seed=0)
        assert digests[0] == digests[1] == str(
            [hashlib.sha1(a.tobytes()).hexdigest()
             for a in (inst.phi, inst.x_star, inst.y)]) + "\n"


class TestGampRun:
    def test_deterministic_given_seed(self):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.2), 300,
                                 1.5, seed=3)
        a = gamp_run(inst, GampOptions(seed=3))
        b = gamp_run(inst, GampOptions(seed=3))
        assert np.array_equal(a.x_hat_final, b.x_hat_final)
        assert np.array_equal(a.overlap_seq, b.overlap_seq)

    def test_noisy_linear_matches_se(self):
        prior, ch, alpha = GaussianPrior(1.0), LinearAWGN(0.1), 2.0
        traj = se_run(prior, ch, alpha, 0.0,
                      FixedPointOptions(tol=1e-12, max_iter=500))
        mses = []
        for seed in range(3):
            inst = generate_instance(prior, ch, 1500, alpha, seed=seed)
            run = gamp_run(inst, GampOptions(seed=seed))
            assert run.converged
            mses.append(run.mse_seq[-1])
        assert np.mean(mses) == pytest.approx(1.0 - traj.q_limit, abs=0.02)

    def test_noiseless_cs_perfect_recovery(self):
        inst = generate_instance(GaussBernoulliPrior(0.2), LinearAWGN(0.0),
                                 2000, 0.6, seed=3)
        run = gamp_run(inst, GampOptions(seed=3))
        assert run.mse_seq[-1] < 1e-6

    def test_perceptron_perfect_overlap(self):
        inst = generate_instance(RademacherPrior(), Sign(), 2000, 2.0, seed=9)
        run = gamp_run(inst, GampOptions(seed=9))
        assert abs(run.overlap_seq[-1] - 1.0) < 1e-3

    def test_door_recovery_with_epsilon_trick(self):
        inst = generate_instance(RademacherPrior(), SymmetricDoor(), 2000,
                                 1.7, seed=5)
        run = gamp_run(inst, GampOptions(seed=5))
        assert run.overlap_seq[-1] > 0.999

    def test_abs_recovery_above_spinodal(self):
        # sign symmetry fixed by the assumed-channel kink shift
        inst = generate_instance(GaussianPrior(1.0), Abs(0.0), 2000, 3.0,
                                 seed=4)
        run = gamp_run(inst, GampOptions(seed=4, max_iter=300))
        mse_pm = min(float(np.mean((run.x_hat_final - inst.x_star) ** 2)),
                     float(np.mean((run.x_hat_final + inst.x_star) ** 2)))
        assert mse_pm < 1e-6

    @pytest.mark.parametrize("prior,ch,n,alpha,seed,max_iter", [
        (GaussBernoulliPrior(0.2), LinearAWGN(0.0), 1000, 0.6, 0, 500),
        (GaussianPrior(1.0), Abs(0.0), 2000, 3.0, 4, 300)], ids=["linear", "abs"])
    def test_noiseless_run_stops_at_the_floor(self, prior, ch, n, alpha, seed,
                                              max_iter):
        """Once mean(v) is below _V_FLOOR these runs circled their fixed
        point at steps of 2e-7 to 5e-7 against tol = 1e-7, ran to max_iter
        and paid for a damped retry that was then discarded."""
        inst = generate_instance(prior, ch, n, alpha, seed=seed)
        run = gamp_run(inst, GampOptions(seed=seed, max_iter=max_iter))
        assert (run.converged, run.attempts) == (True, 1)
        assert run.iterations < 40
        mse_pm = min(float(np.mean((run.x_hat_final - inst.x_star) ** 2)),
                     float(np.mean((run.x_hat_final + inst.x_star) ** 2)))
        assert mse_pm <= 1e-10

    def test_collapsed_variance_far_from_the_signal_is_not_converged(self):
        """v reaches the floor at iteration 66 while the MSE is 0.73: the
        floor's step test must not read that state as converged."""
        inst = generate_instance(GaussBernoulliPrior(0.5), Abs(0.0), 1000, 2.0, seed=0)
        run = gamp_run(inst, GampOptions(seed=0, max_iter=100))
        assert (run.converged, run.iterations) == (False, 100)

    def test_nishimori_at_fixed_point(self):
        # cross-overlap equals squared norm within 5e-2 at n=2000 over 10 seeds
        prior, ch, alpha = GaussBernoulliPrior(0.2), Sign(), 1.2
        gaps = []
        for seed in range(10):
            inst = generate_instance(prior, ch, 2000, alpha, seed=seed)
            run = gamp_run(inst, GampOptions(seed=seed))
            gaps.append(run.overlap_seq[-1] - run.norm_sq_seq[-1])
        assert abs(np.mean(gaps)) <= 5e-2

    def test_sign_channel_tracks_se(self):
        # the tracking claim holds for the sign channel as well
        prior, ch, alpha = RademacherPrior(), Sign(), 1.2
        traj = se_run(prior, ch, alpha, 0.0,
                      FixedPointOptions(tol=1e-12, max_iter=500))
        overlaps = []
        for seed in range(5):
            inst = generate_instance(prior, ch, 2000, alpha, seed=seed)
            run = gamp_run(inst, GampOptions(seed=seed))
            overlaps.append(run.overlap_seq[:8])
        dev = np.max(np.abs(np.mean(overlaps, axis=0) - traj.q_seq[1:9]))
        assert dev <= 0.05

    def test_epsilon_never_applied_to_generation(self):
        inst = generate_instance(RademacherPrior(), SymmetricDoor(), 200, 1.0,
                                 seed=11)
        z = inst.phi @ inst.x_star / math.sqrt(200)
        assert np.array_equal(inst.y, SymmetricDoor().phi(z))

    @pytest.mark.parametrize("bad", [
        {"damping": 1.0}, {"damping": -0.1}, {"damping": 1.5},
        {"tol": 0.0}, {"tol": -1e-7}, {"tol": math.nan}, {"tol": math.inf},
        {"max_iter": 0}, {"max_iter": -3}],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_options_rejected(self, bad):
        # damping 1 would leave x_hat at its start and report convergence
        with pytest.raises(ValueError, match=next(iter(bad))):
            GampOptions(**bad)

    def test_single_attempt_is_recorded(self):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.2), 300,
                                 1.5, seed=3)
        run = gamp_run(inst, GampOptions(seed=3, damping=0.2))
        assert (run.attempts, run.damping) == (1, 0.2)

    def test_damping_retry_is_recorded(self, monkeypatch):
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(0.2), 300,
                                 1.5, seed=3)
        iterate, dampings = gamp._gamp_iterate, []

        def diverge_undamped(instance, opts, damping):
            dampings.append(damping)
            if damping < 0.5:
                raise GampDivergenceError(GampState(
                    x_hat=np.full(instance.n, np.nan), v=np.ones(instance.n),
                    omega=np.zeros(instance.m), g=np.zeros(instance.m),
                    V_scalar=1.0, lam=1.0, t=1))
            return iterate(instance, opts, damping)

        monkeypatch.setattr(gamp, "_gamp_iterate", diverge_undamped)
        run = gamp_run(inst, GampOptions(seed=3))
        assert dampings == [0.0, 0.5]
        assert (run.attempts, run.damping) == (2, 0.5)
        assert run.converged

    @pytest.mark.parametrize("seed,iterations", [(3, 202), (5, 193)])
    def test_period_two_cycle_is_retried_damped(self, seed, iterations):
        """Undamped, these instances cycle with period 2 until max_iter
        = 500; the retry at damping 0.5 converges."""
        inst = generate_instance(GaussBernoulliPrior(0.2), Sign(0.1), 400, 1.5,
                                 seed=seed)
        run = gamp_run(inst, GampOptions(seed=seed))
        assert (run.converged, run.iterations) == (True, iterations)
        assert (run.attempts, run.damping) == (2, 0.5)

    def test_unconverged_runs_keep_the_first_attempt(self, monkeypatch):
        """No retry at damping 0.5; below it, an unconverged first run is
        returned when the retry does not converge either, or diverges."""
        inst = generate_instance(GaussBernoulliPrior(0.2), Sign(0.1), 400, 1.5,
                                 seed=3)
        run = gamp_run(inst, GampOptions(seed=3, damping=0.5, max_iter=20))
        assert (run.converged, run.iterations, run.attempts) == (False, 20, 1)
        first = gamp._gamp_iterate(inst, GampOptions(seed=3, max_iter=20), 0.0)
        run = gamp_run(inst, GampOptions(seed=3, max_iter=20))
        assert (run.converged, run.attempts, run.damping) == (False, 1, 0.0)
        assert np.array_equal(run.x_hat_final, first.x_hat_final)
        iterate = gamp._gamp_iterate

        def diverge_damped(instance, opts, damping):
            if damping == 0.5:
                raise GampDivergenceError(GampState(
                    x_hat=np.full(instance.n, np.nan), v=np.ones(instance.n),
                    omega=np.zeros(instance.m), g=np.zeros(instance.m),
                    V_scalar=1.0, lam=1.0, t=1))
            return iterate(instance, opts, damping)

        monkeypatch.setattr(gamp, "_gamp_iterate", diverge_damped)
        run = gamp_run(inst, GampOptions(seed=3, max_iter=20))
        assert np.array_equal(run.x_hat_final, first.x_hat_final)
        assert (run.converged, run.attempts) == (False, 1)


class TestPrediction:
    def test_linear_is_projection(self):
        x_hat = np.arange(9.0)
        row = np.ones(9)
        expected = row @ x_hat / 3.0
        assert gamp_predict(x_hat, 0.4, row, LinearAWGN(0.0), 1.0) == \
            pytest.approx(expected)

    def test_sign_erf_identity(self):
        x_hat = np.full(16, 0.3)
        row = np.arange(16.0) / 16
        q_t, rho = 0.6, 1.0
        om = row @ x_hat / 4.0
        expected = erf(om / math.sqrt(2 * (rho - q_t)))
        assert gamp_predict(x_hat, q_t, row, Sign(), rho) == pytest.approx(expected)

    def test_full_overlap_uses_plain_activation(self):
        x_hat = np.full(4, 1.0)
        row = np.array([1.0, -1.0, 1.0, 1.0])
        om = row @ x_hat / 2.0
        assert gamp_predict(x_hat, 1.0, row, Abs(0.0), 1.0) == pytest.approx(abs(om))

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            gamp_predict(np.ones(3), 1.5, np.ones(3), Sign(), 1.0)


class TestEmpiricalGenError:
    def test_perfect_recovery_linear_leaves_noise(self):
        delta = 0.25
        inst = generate_instance(GaussianPrior(1.0), LinearAWGN(delta), 500,
                                 1.0, seed=13)
        err = empirical_generalization_error(inst, inst.x_star, 1.0, 20000,
                                             seed=14)
        assert err == pytest.approx(delta, abs=3 * delta * math.sqrt(2.0 / 20000)
                                    + 0.01)

    @pytest.mark.parametrize("channel", [Sign(), ReLU(0.3), Sigmoid(2.0)],
                             ids=repr)
    def test_exact_law_matches_full_matrix(self, channel):
        # two independent estimates of one mean: within 4 sigma of each other
        n_test = 4000
        inst = generate_instance(GaussBernoulliPrior(0.3), channel, 40, 1.5,
                                 seed=4)
        x_hat = inst.x_star + 0.3 * np.random.default_rng(4).standard_normal(40)
        ref = _full_matrix_error(inst, x_hat, 0.2, n_test, seed=9)
        got = empirical_generalization_error(inst, x_hat, 0.2, n_test, seed=10)
        assert abs(got - ref.mean()) <= 4 * math.sqrt(2 * ref.var() / n_test)

    @pytest.mark.parametrize("case", ["generic", "x_hat=x*", "x_hat=0", "x*=0"])
    def test_projections_have_exact_covariance(self, case):
        n, n_test = 50, 200_000
        rng = np.random.default_rng(3)
        x_star = rng.standard_normal(n)
        x_hat = {"generic": 0.6 * x_star + 0.5 * rng.standard_normal(n),
                 "x_hat=x*": x_star, "x_hat=0": np.zeros(n),
                 "x*=0": rng.standard_normal(n)}[case]
        if case == "x*=0":
            x_star = np.zeros(n)
        z, omega = gamp._test_projections(x_star, x_hat, n_test, seed=7)
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(omega))
        target = np.array([[x_star @ x_star, x_star @ x_hat],
                           [x_star @ x_hat, x_hat @ x_hat]]) / n
        cov = np.cov(np.stack([z, omega]))
        # sd of a sample covariance: sqrt((S_ii S_jj + S_ij^2) / n_test)
        d = np.diag(target)
        sd = np.sqrt((np.outer(d, d) + target ** 2) / n_test)
        assert np.all(np.abs(cov - target) <= 4 * sd)
        if case == "x_hat=x*":
            assert np.allclose(omega, z, rtol=0, atol=1e-6)
        if case == "x_hat=0":
            assert not omega.any()
        if case == "x*=0":
            assert not z.any()

    def test_q_t_checked_before_drawing(self, monkeypatch):
        inst = generate_instance(RademacherPrior(), Sign(), 20, 1.0, seed=1)
        monkeypatch.setattr(gamp, "_test_projections", None)  # never reached
        with pytest.raises(ValueError, match="q_t"):
            empirical_generalization_error(inst, inst.x_star, 1.5, 10, seed=2)

    def test_perceptron_generalizes(self):
        inst = generate_instance(RademacherPrior(), Sign(), 2000, 2.0, seed=15)
        run = gamp_run(inst, GampOptions(seed=15))
        q_t = min(run.norm_sq_seq[-1], 1.0)
        err = empirical_generalization_error(inst, run.x_hat_final, q_t,
                                             10000, seed=16)
        assert err <= 0.01


class TestSerialization:
    def test_round_trip_without_phi(self, tmp_path):
        inst = generate_instance(GaussBernoulliPrior(0.3), SymmetricDoor(),
                                 40, 1.2, seed=21)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.phi, inst.phi)
        assert np.array_equal(back.x_star, inst.x_star)
        assert np.array_equal(back.y, inst.y)
        assert back.prior == inst.prior
        assert back.channel == inst.channel

    def test_round_trip_without_phi_noisy_channel(self, tmp_path):
        # noisy labels come from a seed stream, which the file does not hold
        inst = generate_instance(GaussBernoulliPrior(0.3), ReLU(0.3), 40, 1.2,
                                 seed=21)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert json.loads(path.read_text())["version"] == 2
        back = load_instance(path)
        assert np.array_equal(back.phi, inst.phi)
        assert np.array_equal(back.y, inst.y)
        assert back.channel == inst.channel

    def test_round_trip_with_phi(self, tmp_path):
        inst = generate_instance(RademacherPrior(), LinearAWGN(0.5), 12, 1.5,
                                 seed=22)
        path = tmp_path / "inst_full.json"
        save_instance(inst, path, include_phi=True)
        back = load_instance(path)
        assert np.array_equal(back.phi, inst.phi)
        assert np.array_equal(back.y, inst.y)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_instance(path)

    @pytest.mark.parametrize("obj", SPEC_PRIORS + SPEC_CHANNELS)
    def test_spec_round_trip(self, obj):
        base = Prior if isinstance(obj, Prior) else Channel
        spec = to_spec(obj)
        assert json.loads(json.dumps(spec)) == spec
        assert from_spec(spec, base) == obj

    @pytest.mark.parametrize("prior,channel",
                             zip(SPEC_PRIORS + SPEC_PRIORS[:2], SPEC_CHANNELS))
    def test_instance_round_trip_keeps_specs(self, tmp_path, prior, channel):
        path = tmp_path / "inst.json"
        phi = np.ones((2, 3))
        inst = Instance(phi=phi, x_star=np.zeros(3), y=np.zeros(2),
                        prior=prior, channel=channel, seed=5)
        save_instance(inst, path, include_phi=True)
        back = load_instance(path)
        assert (back.prior, back.channel) == (prior, channel)
        assert json.loads(path.read_text())["prior"] == to_spec(prior)

    @pytest.mark.parametrize("spec,base", PARENT_SPECS)
    def test_parent_format_specs_load(self, spec, base):
        obj = from_spec(spec, base)
        assert obj in SPEC_PRIORS + SPEC_CHANNELS
        assert to_spec(obj) == spec

    def test_parent_format_instance_file_loads(self, tmp_path):
        # a version 1 file with phi loads as it was written
        rng = np.random.default_rng(3)
        phi, x_star, y = rng.standard_normal((3, 2)), rng.standard_normal(2), \
            rng.standard_normal(3)
        path = tmp_path / "parent.json"
        path.write_text(json.dumps({
            "format": "glmphase-instance", "version": 1, "n": 2, "m": 3,
            "seed": 3, "prior": {"kind": "gaussian", "variance": 2.0},
            "channel": {"kind": "door", "epsilon": 0.0, "delta": 0.0,
                        "K": 1.2}, "phi": phi.tolist(), "x_star": x_star.tolist(),
            "y": y.tolist()}))
        back = load_instance(path)
        assert (back.prior, back.channel) == (GaussianPrior(2.0), SymmetricDoor(K=1.2))
        assert np.array_equal(back.phi, phi) and np.array_equal(back.x_star, x_star)
        assert np.array_equal(back.y, y) and back.seed == 3

    def test_parent_format_sigmoid_file_loads(self, tmp_path):
        path = tmp_path / "parent.json"
        path.write_text(json.dumps({
            "format": "glmphase-instance", "version": 2, "n": 10, "m": 15,
            "seed": 3, "prior": {"kind": "rademacher", "p_plus": 0.5},
            "channel": {"kind": "sigmoid", "epsilon": 0.0, "slope": 2.0}}))
        back = load_instance(path)
        assert back.channel == Sigmoid(2.0)
        assert np.array_equal(back.y, generate_instance(
            RademacherPrior(), Sigmoid(2.0), 10, 1.5, seed=3).y)

    @pytest.mark.parametrize("change,match", [
        ({"version": 1}, "version 1 file without phi.*include_phi=True"),
        ({"version": 7}, "version"),
        ({"version": True}, "version"),
        ({"n": 20.5}, "n must"),
        ({"m": 0}, "m must"),
        ({"seed": -1}, "seed must"),
        ({"phi": [[1.0, 2.0]] * 3, "x_star": [1.0], "y": [0.0] * 3}, "phi must"),
        ({"phi": [[1.0]] * 3, "x_star": [1.0, 2.0], "y": [0.0] * 3}, "x_star must"),
        ({"phi": [[1.0]] * 3, "x_star": [1.0], "y": [0.0] * 2}, "y must"),
        ({"phi": [[1.0], [1.0, 2.0], [1.0]], "x_star": [1.0], "y": [0.0] * 3},
         "phi must"),
        # ... drops the key
        ({"prior": ...}, "prior spec is a dict, got None"),
        ({"prior": "rademacher"}, "prior spec is a dict, got 'rademacher'"),
        ({"channel": ["sign"]}, "channel spec is a dict"),
    ])
    def test_bad_files_rejected(self, tmp_path, change, match):
        doc = {"format": "glmphase-instance", "version": 2, "n": 1, "m": 3,
               "seed": 0, "prior": {"kind": "rademacher"},
               "channel": {"kind": "sign"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({k: v for k, v in {**doc, **change}.items()
                                    if v is not ...}))
        with pytest.raises(ValueError, match=match):
            load_instance(path)

    def test_defaults_and_list_strings(self):
        assert from_spec({"kind": "relu"}, Channel) == ReLU(1e-8)
        assert from_spec({"kind": "door", "K": 1}, Channel) == SymmetricDoor(K=1.0)
        assert from_spec({"kind": "two_point", "values": "1.0,-1.0",
                          "probabilities": [0.5, 0.5]}, Prior) \
            == TwoPointPrior((1.0, -1.0), (0.5, 0.5))

    @pytest.mark.parametrize("spec,base,match", [
        ({"kind": "sign", "K": 3.0}, Channel, "K"),
        ({"kind": "sign"}, Prior, "prior kind 'sign'"),
        ({"kind": "gaussian"}, Channel, "channel kind 'gaussian'"),
        ({"kind": "wormhole"}, Channel, "wormhole"),
        ({"delta": 0.1}, Channel, "kind None"),
        ({"kind": "gauss_bernoulli"}, Prior, "sparsity"),
        ({"kind": "two_point", "values": [1.0, -1.0]}, Prior, "probabilities"),
        ({"kind": "linear", "delta": "lots"}, Channel, "linear.delta"),
        ({"kind": "two_point", "values": "1.0,x",
          "probabilities": [0.5, 0.5]}, Prior, "two_point.values"),
        ({"kind": "sigmoid", "slope": 2.0, "epsilon": 0.3}, Channel, "epsilon"),
    ])
    def test_bad_specs_rejected(self, spec, base, match):
        with pytest.raises(ValueError, match=match):
            from_spec(spec, base)
