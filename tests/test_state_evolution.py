import math

import numpy as np
import pytest

from glmphase import state_evolution as se
from glmphase.channels import (Abs, LinearAWGN, Sign, SymmetricDoor,
                               quad_profile)
from glmphase.numerics import BracketError, FixedPointOptions
from glmphase.priors import (GaussBernoulliPrior, GaussianPrior,
                             RademacherPrior)
from glmphase.state_evolution import (SPINODAL_SE_OPTS, SENonConvergenceError,
                                      _channel_table, find_alpha_amp,
                                      find_alpha_c, find_alpha_it,
                                      gamma_branches, phase_sweep, se_run)


class TestSERun:
    def test_symmetric_point_is_invariant(self):
        traj = se_run(RademacherPrior(), SymmetricDoor(), 2.0, 0.0)
        assert traj.q_limit == 0.0
        assert np.all(traj.q_seq == 0.0)
        assert traj.converged

    def test_linear_gaussian_quadratic_root(self):
        for delta, alpha in ((0.5, 2.0), (0.1, 2.0)):
            traj = se_run(GaussianPrior(1.0), LinearAWGN(delta), alpha, 1e-6)
            s = 1.0 + delta + alpha
            q_exact = (s - math.sqrt(s * s - 4 * alpha)) / 2.0
            assert traj.q_limit == pytest.approx(q_exact, abs=1e-8)
            assert traj.converged

    def test_perceptron_recovery(self):
        traj = se_run(RademacherPrior(), Sign(), 2.0, 1e-6)
        assert traj.q_limit == pytest.approx(1.0, abs=1e-6)

    def test_init_kind_labels(self):
        prior, ch = RademacherPrior(), Sign()
        assert se_run(prior, ch, 1.0, 1e-6).init_kind == "uninformative"
        assert se_run(prior, ch, 1.0, 1.0 - 1e-6).init_kind == "informative"
        assert se_run(prior, ch, 1.0, 0.4).init_kind.startswith("custom")

    def test_max_iter_reports_nonconvergence(self):
        traj = se_run(RademacherPrior(), Sign(), 1.6, 1e-6,
                      FixedPointOptions(tol=1e-14, max_iter=3))
        assert not traj.converged

    def test_damping_invariance(self):
        prior, ch, alpha = GaussBernoulliPrior(0.3), LinearAWGN(0.2), 1.0
        limits = []
        for d in (0.0, 0.3, 0.7):
            traj = se_run(prior, ch, alpha, 1e-6,
                          FixedPointOptions(damping=d, tol=1e-12,
                                            max_iter=20000))
            assert traj.converged
            limits.append(traj.q_limit)
        assert max(limits) - min(limits) < 1e-8

    def test_fast_tables_match_exact(self):
        prior, ch, alpha = RademacherPrior(), SymmetricDoor(), 1.45
        exact = se_run(prior, ch, alpha, 1e-6, SPINODAL_SE_OPTS, fast=False)
        fast = se_run(prior, ch, alpha, 1e-6, SPINODAL_SE_OPTS, fast=True)
        assert fast.q_limit == pytest.approx(exact.q_limit, abs=1e-4)

    def test_q0_validation(self):
        with pytest.raises(ValueError):
            se_run(RademacherPrior(), Sign(), 1.0, 1.5)

    def test_fixed_points_are_critical_points(self):
        prior, ch, alpha = RademacherPrior(), Sign(), 1.3
        traj = se_run(prior, ch, alpha, 1e-6,
                      FixedPointOptions(tol=1e-12, max_iter=50000))
        q = traj.q_limit
        resid = abs(q - 2 * prior.psi_p0_prime(
            2 * alpha * ch.psi_pout_prime(q, 1.0)))
        assert resid <= 10 * 1e-10 + 1e-11


class TestGammaBranches:
    def test_hard_phase_has_two_attractors(self):
        qs = gamma_branches(RademacherPrior(), Sign(), 1.35)
        assert any(q > 1.0 - 1e-4 for q in qs)
        assert any(q < 0.9 for q in qs)

    def test_symmetric_zero_included(self):
        qs = gamma_branches(RademacherPrior(), SymmetricDoor(), 1.2)
        assert min(qs) == pytest.approx(0.0, abs=1e-12)


class TestStabilityThreshold:
    def test_abs_half(self):
        assert find_alpha_c(Abs(0.0), 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_door_value(self):
        assert find_alpha_c(SymmetricDoor(), 1.0) == pytest.approx(1.36, abs=0.01)

    def test_se_escape_consistency(self):
        # SE from q0 = 1e-8 escapes zero iff alpha > alpha_c (+- 5%)
        ch = SymmetricDoor()
        alpha_c = find_alpha_c(ch, 1.0)
        prior = RademacherPrior()
        opts = FixedPointOptions(tol=1e-12, max_iter=100000)
        below = se_run(prior, ch, alpha_c * 0.95, 1e-8, opts)
        above = se_run(prior, ch, alpha_c * 1.05, 1e-8, opts)
        assert below.q_limit < 1e-6
        assert above.q_limit > 1e-3


class TestTransitionFinders:
    def test_alpha_amp_bracket_errors(self):
        prior, ch = RademacherPrior(), Sign()
        with pytest.raises(BracketError):
            find_alpha_amp(prior, ch, 1.6, 1.8)  # recovery at both ends
        with pytest.raises(BracketError):
            find_alpha_amp(prior, ch, 1.0, 1.2)  # recovery at neither

    def test_alpha_it_none_when_branches_merge(self):
        # noisy linear channel: no first-order transition
        res = find_alpha_it(GaussianPrior(1.0), LinearAWGN(0.5), 0.5, 2.0)
        assert res is None

    def test_alpha_it_gb_perceptron_is_none(self):
        # continuous prior + sign labels: smooth error decrease, no jump
        res = find_alpha_it(GaussBernoulliPrior(0.2), Sign(), 0.5, 3.0)
        assert res is None

    def test_linear_alpha_it_equals_sparsity(self):
        a = find_alpha_it(GaussBernoulliPrior(0.2), LinearAWGN(0.0),
                          0.05, 0.45, tol=1e-3)
        assert a == pytest.approx(0.2, abs=5e-3)

    def test_abs_alpha_it_at_full_density(self):
        # sign-less recovery is information-theoretically as easy as CS
        a = find_alpha_it(GaussianPrior(1.0), Abs(0.0), 0.7, 1.3, tol=2e-3)
        assert a == pytest.approx(1.0, abs=0.01)


class TestPhaseSweep:
    def test_door_k_sweep_rows(self):
        reports = phase_sweep(
            lambda k: RademacherPrior(),
            lambda k: SymmetricDoor(K=k),
            params=[0.67449, 0.9],
            alpha_lo=0.8, alpha_hi=2.2, tol=2e-3)
        assert len(reports) == 2
        row = reports[0]
        assert row.error is None
        assert row.alpha_c == pytest.approx(1.36, abs=0.01)
        assert row.alpha_it == pytest.approx(1.0, abs=0.01)
        assert row.alpha_amp == pytest.approx(1.566, abs=0.01)
        assert row.alpha_it <= row.alpha_amp

    def test_row_errors_recorded_not_raised(self):
        reports = phase_sweep(
            lambda p: RademacherPrior(),
            lambda p: SymmetricDoor(K=p),
            params=[-1.0],  # invalid K
            alpha_lo=0.8, alpha_hi=2.0)
        assert reports[0].error is not None

    def test_workers_do_not_change_results(self):
        args = (lambda p: RademacherPrior(), lambda p: SymmetricDoor(K=p))
        seq = phase_sweep(*args, params=[0.67449], alpha_lo=0.8,
                          alpha_hi=2.0, tol=5e-3)
        par = phase_sweep(*args, params=[0.67449], alpha_lo=0.8,
                          alpha_hi=2.0, tol=5e-3, workers=2)
        assert seq[0].alpha_amp == par[0].alpha_amp
        assert seq[0].alpha_it == par[0].alpha_it

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            phase_sweep(lambda p: RademacherPrior(),
                        lambda p: SymmetricDoor(), params=[],
                        alpha_lo=0.5, alpha_hi=2.0)


CAPPED = FixedPointOptions(max_iter=5)


class TestNonConvergenceIsLoud:
    """A capped SE run is not a limit: the finders raise instead of reading
    it as "not recovered"."""

    def test_alpha_amp(self):
        with pytest.raises(SENonConvergenceError) as info:
            find_alpha_amp(RademacherPrior(), Sign(), 1.2, 1.8, opts=CAPPED)
        assert (info.value.alpha, info.value.iterations) == (1.8, 5)

    def test_alpha_it(self):
        with pytest.raises(SENonConvergenceError) as info:
            find_alpha_it(RademacherPrior(), Sign(), 1.0, 1.45, opts=CAPPED)
        assert (info.value.alpha, info.value.iterations) == (1.45, 5)

    def test_phase_sweep_records_it_in_the_row(self, monkeypatch):
        monkeypatch.setattr(se, "SPINODAL_SE_OPTS", CAPPED)
        (row,) = phase_sweep(lambda k: RademacherPrior(),
                             lambda k: SymmetricDoor(K=k), [0.67449], 0.8, 1.8)
        assert row.error.startswith("SENonConvergenceError")
        assert row.alpha_amp is None and row.alpha_it is None


def test_residual_grid_takes_one_call(q_sizes):
    # the SE runs call psi_pout' one q at a time; the 50-point grid once
    sizes = q_sizes("psi_pout_prime")
    gamma_branches(RademacherPrior(), Sign(), 1.35)
    assert set(sizes) == {1, 50} and sizes.count(50) == 1


LOGITS = np.linspace(math.log(1e-9), math.log(1e13), 321)
# about 4x the largest error measured, 1.26e-6 (SymmetricDoor, fast profile)
TABLE_REL_BOUND = 5e-6


class TestChannelTable:
    def test_built_in_one_call(self, q_sizes):
        sizes = q_sizes("psi_pout_prime")
        _channel_table(SymmetricDoor(K=0.5), 1.0)
        assert sizes == [321]

    @pytest.mark.parametrize("ch", [Sign(), SymmetricDoor()])
    def test_nodes_match_scalar_loop(self, ch):
        qt = 1.0 / (1.0 + np.exp(-LOGITS))
        table = _channel_table(ch, 1.0)
        with quad_profile("fast"):
            loop = np.array([ch.psi_pout_prime(float(q), 1.0) for q in qt])
        got = np.array([table(q) for q in qt])
        np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ch,stride", [(Sign(), 1), (SymmetricDoor(), 1),
                                           (Abs(0.0), 20)])
    def test_error_bound_at_midpoints(self, ch, stride):
        """Fast-profile spline against exact-profile psi_pout' halfway
        between the logit nodes, where interpolation error peaks."""
        mid = (0.5 * (LOGITS[:-1] + LOGITS[1:]))[::stride]
        q = 1.0 / (1.0 + np.exp(-mid))
        table = _channel_table(ch, 1.0)
        exact = ch.psi_pout_prime(q, 1.0)
        got = np.array([table(x) for x in q])
        assert np.max(np.abs(got - exact) / exact) <= TABLE_REL_BOUND
