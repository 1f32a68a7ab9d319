import math

import numpy as np
import pytest

from glmphase import replica, state_evolution as se
from glmphase.channels import (Abs, Channel, LinearAWGN, Sign,
                               SymmetricDoor, quad_profile)
from glmphase.numerics import BracketError, FixedPointOptions, cubic_spline
from glmphase.priors import (R_CAP, GaussBernoulliPrior, GaussianPrior,
                             RademacherPrior, TwoPointPrior)
from glmphase.state_evolution import (CHANNEL_TABLE_LOGITS, PRIOR_TABLE_NODES,
                                      SPINODAL_SE_OPTS, SENonConvergenceError,
                                      _channel_table, _prior_table,
                                      find_alpha_amp, find_alpha_c,
                                      find_alpha_it, gamma_branches,
                                      phase_sweep, se_run)


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


class TestSymmetricSnap:
    """One rule reads a vanishing limit as the exact fixed point q = 0,
    where that point exists: an even channel under a centred prior."""

    @pytest.mark.parametrize("prior,ch,q,snapped", [
        (RademacherPrior(), SymmetricDoor(), 9e-9, 0.0),
        (RademacherPrior(), SymmetricDoor(), 2e-8, 2e-8),
        (GaussBernoulliPrior(0.5), Abs(0.0), 4e-9, 0.0),
        (GaussBernoulliPrior(0.5), Abs(0.0), 6e-9, 6e-9),
        (RademacherPrior(), Sign(), 1e-9, 1e-9),
        (TwoPointPrior((1.0, -0.5), (0.3, 0.7)), SymmetricDoor(), 1e-9, 1e-9)],
        ids=repr)
    def test_rule(self, prior, ch, q, snapped):
        assert se._symmetric_snap(prior, ch, q) == snapped

    def test_finder_limit_is_snapped(self):
        prior, ch = RademacherPrior(), SymmetricDoor()
        run = se_run(prior, ch, 1.2, 1e-6, SPINODAL_SE_OPTS, fast=True)
        assert 0.0 < run.q_limit < se.SNAP_FRAC
        assert se._se_limit(prior, ch, 1.2, 1e-6, SPINODAL_SE_OPTS)[0] == 0.0

    def test_door_alpha_it_solves_no_root_at_zero(self, monkeypatch):
        """Each bisection step once solved 2 psi_p0'(r) = q_un for a q_un
        of 1e-10 to 5e-9."""
        targets = []
        real = replica.find_root

        def spy(f, a, b, t, **kw):
            targets.extend(np.ravel(t).tolist())
            return real(f, a, b, t, **kw)

        monkeypatch.setattr(replica, "find_root", spy)
        replica._INNER_POINTS.clear()
        alpha_it = find_alpha_it(RademacherPrior(), SymmetricDoor(), 0.8, 1.8)
        assert alpha_it == pytest.approx(1.0, abs=0.005)
        assert targets and min(targets) >= se.SNAP_FRAC

    def test_door_alpha_it_takes_psi_pout_at_zero_once(self, monkeypatch):
        """f_hat at the snapped q_un = 0 does not depend on alpha: every
        bisection step reads its psi_pout from the point cache."""
        qs = []
        real = Channel.psi_pout

        def spy(self, q, rho):
            qs.extend(np.ravel(q).tolist())
            return real(self, q, rho)

        monkeypatch.setattr(Channel, "psi_pout", spy)
        replica._exact_psi_pout.cache_clear()
        alpha_it = find_alpha_it(RademacherPrior(), SymmetricDoor(), 0.8, 1.8)
        assert alpha_it == pytest.approx(1.0, abs=0.005)
        assert qs.count(0.0) == 1


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


class TestAlphaITComparison:
    """The comparison is chosen once per (prior, channel): where the depth
    slope decides, only alpha_hi runs SE."""

    @pytest.fixture
    def se_runs(self, monkeypatch):
        calls = []
        real = se.se_run

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(se, "se_run", counting)
        return calls

    def test_slope_case_runs_se_at_alpha_hi_only(self, se_runs):
        find_alpha_it(GaussBernoulliPrior(0.6), Abs(0.0), 0.3, 1.5)
        assert se_runs == [1.5, 1.5]

    def test_finite_sentinel_runs_se_at_every_step(self, se_runs):
        find_alpha_it(RademacherPrior(), SymmetricDoor(), 0.8, 1.8)
        assert len(se_runs) == 24

    def test_slope_case_merged_row_is_none(self):
        assert find_alpha_it(GaussBernoulliPrior(0.5), Abs(0.0), 0.2, 0.4) is None

    @pytest.mark.parametrize("prior,ch,lo,hi,tol,expected", [
        (GaussBernoulliPrior(1.0), Abs(), 0.3, 1.5, 1e-3, "0x1.fff3333333335p-1"),
        (GaussBernoulliPrior(0.6), Abs(), 0.3, 1.5, 1e-3, "0x1.32c0000000000p-1"),
        (GaussBernoulliPrior(0.45), Abs(), 0.3, 1.5, 1e-3, "0x1.cbe6666666666p-2"),
        (GaussBernoulliPrior(0.2), LinearAWGN(0.0), 0.05, 0.45, 1e-3,
         "0x1.98ccccccccccdp-3"),
        (GaussBernoulliPrior(0.5), LinearAWGN(0.0), 0.2, 0.8, 1e-3,
         "0x1.ff1999999999ap-2"),
        (GaussianPrior(1.0), Abs(0.0), 0.7, 1.3, 2e-3, "0x1.ffb3333333333p-1"),
        (RademacherPrior(), SymmetricDoor(), 0.8, 1.8, 1e-3, "0x1.ffd999999999ap-1"),
        (RademacherPrior(), Sign(), 1.0, 1.45, 1e-3, "0x1.3ea999999999ap+0"),
    ], ids=["gb1-abs", "gb0.6-abs", "gb0.45-abs", "gb0.2-linear", "gb0.5-linear",
            "gauss-abs", "rademacher-door", "rademacher-sign"])
    def test_alpha_it_bits(self, prior, ch, lo, hi, tol, expected):
        # the values of the finder that ran SE at every step
        assert find_alpha_it(prior, ch, lo, hi, tol=tol).hex() == expected

    @pytest.mark.parametrize("prior,ch,lo,hi,expected", [
        (RademacherPrior(), Sign(), 1.2, 1.8, "0x1.7e20000000001p+0"),
        (RademacherPrior(), SymmetricDoor(), 0.8, 1.8, "0x1.90ecccccccccdp+0"),
        (RademacherPrior(), SymmetricDoor(K=0.85), 0.8, 1.8, "0x1.59acccccccccdp+0"),
        (GaussianPrior(1.0), Abs(0.0), 0.8, 1.4, "0x1.20e0000000001p+0"),
        (GaussBernoulliPrior(0.5), Abs(0.0), 0.6, 1.2, "0x1.d1c0000000000p-1"),
    ], ids=["rademacher-sign", "rademacher-door", "rademacher-door0.85",
            "gauss-abs", "gb0.5-abs"])
    def test_alpha_amp_bits(self, prior, ch, lo, hi, expected):
        # the values of the fast step that evaluated the table coefficient
        # lists inline, equal to the table callables of its time
        assert find_alpha_amp(prior, ch, lo, hi, tol=1e-3).hex() == expected

    def test_bracket_error_message_kept(self):
        with pytest.raises(BracketError, match=r"^informative branch already "
                           r"optimal at alpha_lo=0.3$"):
            find_alpha_it(RademacherPrior(), Abs(0.0), 0.3, 1.5)


UNINFORMATIVE, INFORMATIVE = se.UNINFORMATIVE_FRAC, 1.0 - se.INFORMATIVE_FRAC
# |f_rs(q, r_run) - f_hat(q)| at a sub-recovery SE limit: at most 3.6e-15
# measured over the cases below, where r_run / r_inner - 1 is up to 3e-7
# and f_rs is stationary in r; about 280x margin
PAIR_F_BOUND = 1e-12
TWO_POINT = TwoPointPrior((1.0, -0.5), (0.3, 0.7))


class TestPairRule:
    """alpha_IT takes f at a sub-recovery SE limit (q, r) as f_rs at the
    run's own r, with no root solve; snapped and recovered limits keep
    f_hat and recovery_f."""

    @pytest.mark.parametrize("prior,ch,alpha,start", [
        (RademacherPrior(), SymmetricDoor(K=0.87), 1.2, UNINFORMATIVE),
        (RademacherPrior(), SymmetricDoor(K=0.96), 1.2, UNINFORMATIVE),
        (RademacherPrior(), Sign(0.1), 1.0, UNINFORMATIVE),
        (GaussBernoulliPrior(0.5), Sign(0.05), 0.8, UNINFORMATIVE),
        (GaussBernoulliPrior(0.5), Sign(0.05), 1.5, INFORMATIVE),
        (TWO_POINT, SymmetricDoor(), 1.0, UNINFORMATIVE),
        (TWO_POINT, Sign(), 0.5, UNINFORMATIVE),
    ], ids=repr)
    def test_error_bound(self, prior, ch, alpha, start):
        rho = prior.second_moment
        q, r = se._se_limit(prior, ch, alpha, start * rho, SPINODAL_SE_OPTS)
        assert 0.0 < q <= rho * (1.0 - replica.RECOVERY_FRAC)
        f_hat, r_inner = replica.f_hat(prior, ch, alpha, q)
        assert r != r_inner
        assert abs(se._limit_f(prior, ch, alpha, q, r) - f_hat) <= PAIR_F_BOUND

    @pytest.mark.parametrize("prior,ch,alpha,start", [
        (RademacherPrior(), SymmetricDoor(), 1.2, UNINFORMATIVE),
        (RademacherPrior(), Sign(0.1), 1.5, INFORMATIVE),
        (GaussBernoulliPrior(0.6), Abs(0.0), 1.2, INFORMATIVE),
    ], ids=repr)
    def test_snapped_and_recovered_limits_keep_f_hat(self, prior, ch, alpha,
                                                     start, monkeypatch):
        rho = prior.second_moment
        q, r = se._se_limit(prior, ch, alpha, start * rho, SPINODAL_SE_OPTS)
        assert q == 0.0 or q > rho * (1.0 - replica.RECOVERY_FRAC)
        qs, real = [], replica.f_hat
        monkeypatch.setattr(replica, "f_hat",
                            lambda *a: qs.append(a[3]) or real(*a))
        assert se._limit_f(prior, ch, alpha, q, r) == real(prior, ch, alpha, q)[0]
        assert qs == [q]

    def test_recovered_door_limit_reads_recovery_f(self, monkeypatch):
        """Above alpha_c both door limits are off q = 0: the recovered one
        is recovery_f at SENTINEL_DEPTH, the other f_rs at its pair."""
        depths, real = [], replica.recovery_f
        monkeypatch.setattr(replica, "recovery_f",
                            lambda *a, **kw: depths.append(kw["depth"]) or real(*a, **kw))
        qs, real_hat = [], replica.f_hat
        monkeypatch.setattr(replica, "f_hat", lambda *a: qs.append(a[3]) or real_hat(*a))
        assert se._informative_wins(RademacherPrior(), SymmetricDoor(), 1.5,
                                    SPINODAL_SE_OPTS, False)
        assert depths == [se.SENTINEL_DEPTH]
        assert qs == [1.0 - se.SENTINEL_DEPTH]

    def test_door_alpha_it_solves_no_sub_recovery_root(self, monkeypatch):
        """At K = 0.96 alpha_IT lies above alpha_c, so q_un > 0 at every
        bisection step; each step once solved 2 psi_p0'(r) = q_un."""
        qs, real = [], replica.inner_inf_r

        def spy(prior, q):
            qs.extend(np.ravel(q).tolist())
            return real(prior, q)

        monkeypatch.setattr(replica, "inner_inf_r", spy)
        replica._INNER_POINTS.clear()
        alpha_it = find_alpha_it(RademacherPrior(), SymmetricDoor(K=0.96), 0.8, 1.8)
        assert alpha_it.hex() == "0x1.15acccccccccdp+0"
        assert qs and all(q == 0.0 or q > 1.0 - replica.RECOVERY_FRAC for q in qs)


class TestBisectionTolerance:
    """tol <= 0 never ended (the bracket stops at one ulp) and a NaN tol
    returned the midpoint at once."""

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_finders_reject(self, tol):
        with pytest.raises(ValueError, match="tol"):
            find_alpha_amp(RademacherPrior(), Sign(), 1.2, 1.8, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            find_alpha_it(RademacherPrior(), Sign(), 1.0, 1.45, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            phase_sweep(lambda p: RademacherPrior(), lambda p: Sign(), [0.0],
                        1.2, 1.8, tol=tol)

    def test_stops_at_adjacent_floats(self):
        mid = se._bisect_bool(lambda a: a >= 1.0, 0.5, 2.0, 1e-300)
        assert mid == pytest.approx(1.0, abs=1e-15)


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
    # the SE runs call psi_pout' one q at a time and the 50-point grid once;
    # the two crossings at alpha 1.35 are solved together, in a few
    # Chandrupatla steps of two q: their four bracket ends, once taken
    # again in a call of their own, come from the grid call
    sizes = q_sizes("psi_pout_prime")
    gamma_branches(RademacherPrior(), Sign(), 1.35)
    assert set(sizes) <= {1, 2, 50}
    assert sizes.count(50) == 1
    assert 1 <= sizes.count(2) <= 8


def test_crossings_match_bisection():
    """The branches below recovery, crossings of the one-step map solved
    to 1e-12 rho, lie within 1e-12 of the ones the batched bisection
    found (values from that code)."""
    prior, ch = RademacherPrior(), Sign()
    for alpha, old in ((0.9, [0.5077725503419787, 0.9938929554035842]),
                       (1.35, [0.756462910930576, 0.9643779821022893])):
        qs = gamma_branches(prior, ch, alpha)
        assert len(qs) == 3 and qs[-1] > 1.0 - 1e-4
        np.testing.assert_allclose(qs[:2], old, rtol=0.0, atol=1e-12)
        for q in qs[:2]:
            r = 2.0 * alpha * ch.psi_pout_prime(q, 1.0)
            assert abs(2.0 * prior.psi_p0_prime(r) - q) <= 1e-11


LOGITS = CHANNEL_TABLE_LOGITS
MID = 0.5 * (LOGITS[:-1] + LOGITS[1:])
# about 5x the largest error measured, 9.4e-7 (Abs(0), fast profile, above
# u = 10); the door reaches 7.5e-7
TABLE_REL_BOUND = 5e-6


def _table_rel_error(ch, u, rho=1.0):
    """Relative error of the fast-profile spline against exact-profile
    psi_pout' at q = rho / (1 + exp(-u))."""
    q = rho / (1.0 + np.exp(-u))
    table = _channel_table(ch, rho)
    exact = ch.psi_pout_prime(q, rho)
    got = np.array([table(x) for x in q])
    return np.max(np.abs(got - exact) / exact)


class TestChannelTable:
    def test_node_layout(self):
        # uniform up to u = 10, every 8th node above, the top node kept
        assert LOGITS.size == 211
        steps = np.diff(LOGITS)
        h = steps[0]
        np.testing.assert_allclose(steps[LOGITS[1:] <= 10.0], h, rtol=1e-9)
        np.testing.assert_allclose(steps[LOGITS[:-1] > 10.0], 8 * h, rtol=1e-9)
        assert LOGITS[-1] == pytest.approx(math.log(1e13), rel=1e-15)

    def test_built_in_one_call(self, q_sizes):
        # the 211 nodes and q = 0
        se._channel_table.cache_clear()
        se._shipped.cache_clear()
        sizes = q_sizes("psi_pout_prime")
        _channel_table(SymmetricDoor(K=0.5), 1.0)
        assert sizes == [212]

    @pytest.mark.parametrize("rho", [1.0, 0.6])
    @pytest.mark.parametrize("ch", [Sign(), SymmetricDoor(), Abs(0.0)], ids=repr)
    def test_below_the_lowest_node(self, ch, rho):
        """Below u = ln 1e-9 the table once extended psi' ~ q down to 0,
        which holds for even channels only: for Sign it gave 3.2e-4 at
        q = 1e-12 against 0.318."""
        q = np.array([0.0, 1e-12, 1e-10]) * rho
        table = _channel_table(ch, rho)
        got = np.array([table(x) for x in q])
        exact = ch.psi_pout_prime(q, rho)
        assert got == pytest.approx(exact, rel=TABLE_REL_BOUND, abs=0.0)

    @pytest.mark.parametrize("prior,ch,alpha", [
        (RademacherPrior(), Sign(), 1.0),
        (GaussBernoulliPrior(0.3), Sign(), 1.2),
        (RademacherPrior(), SymmetricDoor(), 1.5)], ids=repr)
    def test_fast_run_from_zero_matches_exact(self, prior, ch, alpha):
        """The fast Sign run from q0 = 0 once stopped at q = 0 after one
        step; the exact run goes to 0.5607."""
        exact = se_run(prior, ch, alpha, 0.0, SPINODAL_SE_OPTS)
        fast = se_run(prior, ch, alpha, 0.0, SPINODAL_SE_OPTS, fast=True)
        assert fast.converged and exact.converged
        assert fast.q_limit == pytest.approx(exact.q_limit, abs=1e-4)

    def test_linear_channel_keeps_its_closed_form(self, monkeypatch):
        """The spline misses TABLE_REL_BOUND on LinearAWGN(0.01), so a
        channel whose psi' is a closed form gets no table: its fast run is
        the exact one."""
        ch = LinearAWGN(0.01)
        assert _table_rel_error(ch, MID) > TABLE_REL_BOUND
        assert ch.closed_form_prime
        assert not any(c.closed_form_prime for c in (Sign(), Abs(0.0), SymmetricDoor()))
        built = []
        monkeypatch.setattr(se, "_channel_table", lambda *a: built.append(a))
        fast = se_run(GaussianPrior(1.0), ch, 2.0, 1e-6, fast=True)
        exact = se_run(GaussianPrior(1.0), ch, 2.0, 1e-6)
        assert built == []
        np.testing.assert_array_equal(fast.q_seq, exact.q_seq)

    @pytest.mark.parametrize("ch", [Sign(), SymmetricDoor()])
    def test_nodes_match_scalar_loop(self, ch):
        qt = 1.0 / (1.0 + np.exp(-LOGITS))
        table = _channel_table(ch, 1.0)
        with quad_profile("fast"):
            loop = np.array([ch.psi_pout_prime(float(q), 1.0) for q in qt])
        got = np.array([table(q) for q in qt])
        np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ch,stride", [(Sign(), 1), (SymmetricDoor(), 1),
                                           (Abs(0.0), 1), (SymmetricDoor(K=0.9), 1),
                                           (SymmetricDoor(K=1.0), 1),
                                           (SymmetricDoor(K=1.2), 1)])
    def test_error_bound_at_midpoints(self, ch, stride):
        """Fast-profile spline against exact-profile psi_pout' halfway
        between the logit nodes, where interpolation error peaks."""
        assert _table_rel_error(ch, MID[::stride]) <= TABLE_REL_BOUND

    @pytest.mark.parametrize("ch", [Sign(), Abs(0.0), SymmetricDoor(),
                                    SymmetricDoor(K=0.9), SymmetricDoor(K=1.0),
                                    SymmetricDoor(K=1.2)], ids=repr)
    def test_fast_profile_matches_exact_at_nodes(self, ch):
        """The table's own values: fast-profile Gauss-Hermite rows once
        missed by 9.4e-5 (Abs) where the threshold images were wide."""
        q = 1.0 / (1.0 + np.exp(-LOGITS))
        with quad_profile("fast"):
            fast = ch.psi_pout_prime(q, 1.0)
        exact = ch.psi_pout_prime(q, 1.0)
        assert np.max(np.abs(fast / exact - 1.0)) <= 1e-7

    @pytest.mark.parametrize("ch", [Sign(), SymmetricDoor(), Abs(0.0)])
    def test_error_bound_above_u10(self, ch):
        """Every midpoint of the thinned nodes above u = 10."""
        assert _table_rel_error(ch, MID[MID > 10.0]) <= TABLE_REL_BOUND

    @pytest.mark.parametrize("rho", [0.6, 0.45, 0.2])
    @pytest.mark.parametrize("ch", [Sign(), SymmetricDoor(), Abs(0.0)], ids=repr)
    def test_error_bound_at_midpoints_rho(self, ch, rho):
        """At rho not a power of two, logit(q / rho) lost about 1e-3 of
        rho - q near q = rho, at the nodes and at the lookup: the spline
        then missed by 3.5e-5 (Sign, rho 0.2) to 4.0e-4 (Abs, rho 0.6)."""
        assert _table_rel_error(ch, MID, rho) <= TABLE_REL_BOUND

    def test_rejects_a_node_value_it_cannot_take_the_log_of(self):
        """A psi_pout' of 0 at a node once became 1e-300 in the table."""
        q_bad = float((1.0 / (1.0 + np.exp(-CHANNEL_TABLE_LOGITS)) * 0.3)[100])

        class ZeroAtOneNode(Channel):
            def psi_pout_prime(self, q, rho):
                return np.where(q == q_bad, 0.0, 1.0 + q)

            def __repr__(self):
                return "ZeroAtOneNode()"

        with pytest.raises(ValueError) as exc:
            _channel_table(ZeroAtOneNode(), 0.3)
        msg = str(exc.value)
        assert "ZeroAtOneNode()" in msg and "rho=0.3" in msg
        assert f"q={q_bad!r}" in msg


def test_shipped_keys():
    """glmphase._se_tables ships the rho = 1 tables of Sign(), Abs() and
    SymmetricDoor() and the prior table of RademacherPrior(), each keyed
    by module and repr."""
    from glmphase._se_tables import VALUES
    assert set(VALUES) == {
        "glmphase.channels.Sign(delta=0.0, epsilon=0.0)",
        "glmphase.channels.Abs(delta=0.0, epsilon=0.0)",
        "glmphase.channels.SymmetricDoor(K=0.67449, delta=0.0, epsilon=0.0)",
        "glmphase.priors.RademacherPrior(p_plus=0.5)"}


class TestScaleFreeTable:
    """Sign and noiseless abs serve every rho from their rho = 1 table,
    whose values ship in glmphase._se_tables, as do those of the door's
    rho = 1 table."""

    @pytest.mark.parametrize("ch", [Sign(), Abs(), SymmetricDoor()], ids=repr)
    def test_shipped_values_are_fresh(self, ch):
        """numpy's SIMD exp and log move the last bits between CPUs, hence
        rtol 1e-12 and not equality."""
        from glmphase._se_tables import VALUES
        shipped = np.array(VALUES[f"glmphase.channels.{ch!r}"].split(), dtype=float)
        assert shipped.size == LOGITS.size + 1
        np.testing.assert_allclose(
            shipped, se._table_values(ch, 1.0), rtol=1e-12, atol=0.0,
            err_msg="stale shipped channel-table values: rerun "
                    "tools/se_tables.py")

    @pytest.mark.parametrize("rho", [1.0, 0.6])
    @pytest.mark.parametrize("ch", [Sign(), Abs()], ids=repr)
    def test_shipped_channels_build_nothing(self, ch, rho, q_sizes):
        se._channel_table.cache_clear()
        se._shipped.cache_clear()
        sizes = q_sizes("psi_pout_prime")
        _channel_table(ch, rho)
        assert sizes == []

    def test_other_scale_free_channels_build_once(self, q_sizes):
        """Sign(0.2) ships no values: one rho = 1 build serves every rho."""
        se._channel_table.cache_clear()
        se._shipped.cache_clear()
        sizes = q_sizes("psi_pout_prime")
        for rho in (0.6, 0.3, 1.0):
            _channel_table(Sign(0.2), rho)
        assert sizes == [LOGITS.size + 1]

    @pytest.mark.parametrize("ch", [Sign(), Abs()], ids=repr)
    def test_rescaled_error_bound(self, ch):
        """At a rho the other table tests do not take."""
        assert _table_rel_error(ch, MID, 0.73) <= TABLE_REL_BOUND


class TestShippedDoorTable:
    """SymmetricDoor() is not scale-free: its shipped rho = 1 values serve
    rho = 1 only, where the door's Rademacher prior puts it."""

    def test_builds_nothing_at_rho_1(self, q_sizes):
        se._channel_table.cache_clear()
        se._shipped.cache_clear()
        sizes = q_sizes("psi_pout_prime")
        _channel_table(SymmetricDoor(), 1.0)
        assert sizes == []

    def test_other_rho_and_width_build_their_own(self, q_sizes):
        se._channel_table.cache_clear()
        se._shipped.cache_clear()
        sizes = q_sizes("psi_pout_prime")
        _channel_table(SymmetricDoor(), 0.6)
        _channel_table(SymmetricDoor(K=0.9), 1.0)
        assert sizes == [LOGITS.size + 1] * 2


class TestShippedPriorTable:
    """RademacherPrior(), the prior of the perceptron and the door, ships
    its table values in glmphase._se_tables."""

    @staticmethod
    def _shipped():
        from glmphase._se_tables import VALUES
        return np.array(VALUES[f"glmphase.priors.{RademacherPrior()!r}"].split(),
                        dtype=float)

    def test_shipped_values_are_fresh(self):
        shipped = self._shipped()
        assert shipped.size == PRIOR_TABLE_NODES.size
        np.testing.assert_allclose(
            shipped, se._prior_values(RademacherPrior()), rtol=1e-12, atol=0.0,
            err_msg="stale shipped prior-table values: rerun tools/se_tables.py")

    @staticmethod
    def _r_sizes(monkeypatch):
        sizes, real = [], RademacherPrior.psi_p0_prime

        def spy(self, r):
            sizes.append(np.size(r))
            return real(self, r)

        monkeypatch.setattr(RademacherPrior, "psi_p0_prime", spy)
        return sizes

    def test_shipped_prior_builds_nothing(self, monkeypatch):
        """The table is the spline of the shipped values, to the bit, at
        the nodes and halfway between them."""
        se._prior_table.cache_clear()
        se._shipped.cache_clear()
        sizes = self._r_sizes(monkeypatch)
        table = _prior_table(RademacherPrior())
        assert sizes == []
        want = cubic_spline(PRIOR_TABLE_NODES, self._shipped())
        t_max = float(PRIOR_TABLE_NODES[-1])
        t_mid = 0.5 * (PRIOR_TABLE_NODES[:-1] + PRIOR_TABLE_NODES[1:])
        for r in np.expm1(np.concatenate([PRIOR_TABLE_NODES, t_mid])).tolist():
            assert table(r) == want(min(math.log1p(r), t_max))

    def test_other_priors_build_in_one_call(self, monkeypatch):
        """RademacherPrior(0.3) ships no values, nor does a subclass of the
        shipped class whose repr names the base class."""

        class Tilted(RademacherPrior):
            def __repr__(self):
                return "RademacherPrior(p_plus=0.5)"

        se._prior_table.cache_clear()
        se._shipped.cache_clear()
        sizes = self._r_sizes(monkeypatch)
        _prior_table(RademacherPrior(0.3))
        _prior_table(Tilted())
        assert sizes == [PRIOR_TABLE_NODES.size] * 2


# node indices of the table pins: the two lowest, two inside, and the one
# below the top
PIN_NODES = (0, 1, 40, 120, -2)


def _pin_args(nodes):
    """The pinned nodes, then the midpoint after each."""
    return np.array([nodes[i] for i in PIN_NODES]
                    + [0.5 * (nodes[i] + nodes[i + 1]) for i in PIN_NODES])


def _pin_qs(rho):
    """q at the pinned channel nodes and midpoints, then half the lowest
    node's q and q = rho, which the table clamps to its top node."""
    q = (rho / (1.0 + np.exp(-_pin_args(LOGITS)))).tolist()
    return q + [0.5 * q[0], rho]


@pytest.mark.parametrize("table,args,want", [
    (lambda: _prior_table(GaussBernoulliPrior(0.5)),
     lambda: np.expm1(_pin_args(PRIOR_TABLE_NODES)).tolist() + [2.0 * R_CAP],
     ["0x0.0p+0", "0x1.3a61511f5328ap-11", "0x1.a9fa0a76c4f9ap-2",
      "0x1.ffdc058457337p-2", "0x1.ffffffa30d9f1p-2", "0x1.3a61371ce6be6p-12",
      "0x1.fede7f77912eep-11", "0x1.ad3a1a985fe28p-2", "0x1.ffdd6ae1b7c71p-2",
      "0x1.ffffffa68d11dp-2", "0x1.ffffffa9ead95p-2"]),
    (lambda: _channel_table(SymmetricDoor(K=0.9), 1.0), lambda: _pin_qs(1.0),
     ["0x1.0f15402a8e339p-31", "0x1.3d94526627294p-31", "0x1.29bc860bab4ccp-22",
      "0x1.2e5e83060c0fdp-4", "0x1.89ffb56c5c216p+19", "0x1.25695f81e4f46p-31",
      "0x1.57bce0ccf6990p-31", "0x1.4242a913a6c0dp-22", "0x1.444783c0a3641p-4",
      "0x1.0e6e2b89c9c70p+20", "0x1.0f15402a8e33ep-32", "0x1.733bc36f7eb57p+20"]),
    (lambda: _channel_table(Sign(0.2), 0.6), lambda: _pin_qs(0.6),
     ["0x1.052d4fab888b6p-1", "0x1.052d4fac00efap-1", "0x1.052d55aea38f1p-1",
      "0x1.20c41cc3eeec9p-1", "0x1.d05b4a1da7ff4p+19", "0x1.052d4fabc25f5p-1",
      "0x1.052d4fac44a99p-1", "0x1.052d562da2a0ap-1", "0x1.22eb8c86f3436p-1",
      "0x1.3eb1511b8a22ep+20", "0x1.052d4faa2996ep-1", "0x1.b5924f2d5eff2p+20"]),
], ids=["prior-GB(0.5)", "door-K0.9", "sign-0.2-rho0.6"])
def test_table_bits(table, args, want):
    """Built tables keep their values to the bit: at a few nodes, at the
    midpoints after them, below the lowest channel node and beyond the top
    node (r = 2 R_CAP, q = rho).  Values from the tables as they were when
    each closure carried its own copy of the cubic."""
    lookup = table()
    assert [lookup(x).hex() for x in args()] == want


DAMPED = FixedPointOptions(damping=0.3, tol=1e-10, max_iter=200_000)
CUT = FixedPointOptions(tol=1e-14, max_iter=40)


@pytest.mark.parametrize("prior,ch,alpha,start,opts,q_limit,iterations,converged", [
    (GaussBernoulliPrior(1.0), Abs(), 1.1, UNINFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.61af11233f32dp-1", 302, True),
    (GaussBernoulliPrior(1.0), Abs(), 1.3, 0.0, SPINODAL_SE_OPTS, "0x0.0p+0", 1, True),
    (GaussBernoulliPrior(0.6), Abs(), 0.9, UNINFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.e9a5161b16b66p-3", 154, True),
    (GaussBernoulliPrior(0.6), Abs(), 0.5, INFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.d0bf9f121465cp-19", 34704, True),
    (RademacherPrior(), SymmetricDoor(), 1.5, UNINFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.240607ffbe59bp-3", 439, True),
    (RademacherPrior(), SymmetricDoor(), 0.9, INFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.fffffffffffa6p-1", 2, True),
    (GaussBernoulliPrior(0.3), Sign(), 1.2, 0.0, SPINODAL_SE_OPTS,
     "0x1.bbddcd2f0f596p-3", 26, True),
    (GaussBernoulliPrior(0.3), Sign(), 1.2, INFORMATIVE, SPINODAL_SE_OPTS,
     "0x1.bbddcd3317366p-3", 29, True),
    (GaussBernoulliPrior(0.6), Abs(), 0.9, UNINFORMATIVE, DAMPED,
     "0x1.e9a5160d9c882p-3", 217, True),
    (RademacherPrior(), SymmetricDoor(), 1.5, UNINFORMATIVE, CUT,
     "0x1.a093a448beed2p-15", 40, False),
], ids=repr)
def test_fast_run_bits(prior, ch, alpha, start, opts, q_limit, iterations, converged):
    """Fast runs as the inlined step of the table coefficient lists left
    them, which equalled stepping through the table callables."""
    run = se_run(prior, ch, alpha, start * prior.second_moment, opts, fast=True)
    assert (run.q_limit.hex(), len(run.r_seq), run.converged) == (
        q_limit, iterations, converged)


# about 3x the largest error measured, 6.7e-6 (GaussBernoulli(0.2) at
# r = 0.45); the uniform grid it replaced was 4.7e-4 low for Rademacher
PRIOR_REL_BOUND = 2e-5


@pytest.mark.parametrize("prior", [GaussianPrior(1.0), RademacherPrior(),
                                   GaussBernoulliPrior(0.2),
                                   TwoPointPrior((1.0, -0.5), (0.3, 0.7))])
def test_prior_table_error_bound_at_midpoints(prior):
    """The spline of 2 psi_p0'(r) against a direct evaluation halfway
    between every pair of nodes, and at r -> 0 where it vanishes."""
    t_mid = 0.5 * (PRIOR_TABLE_NODES[:-1] + PRIOR_TABLE_NODES[1:])
    r = np.concatenate([[1e-10, 1e-6], np.expm1(t_mid)])
    table = _prior_table(prior)
    exact = 2.0 * prior.psi_p0_prime(r)
    got = np.array([table(x) for x in r])
    assert np.max(np.abs(got - exact) / exact) <= PRIOR_REL_BOUND
