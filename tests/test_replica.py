import math

import numpy as np
import pytest
from scipy.special import ndtr

from glmphase import priors, replica
from glmphase.channels import (Abs, LinearAWGN, ReLU, Sigmoid, Sign,
                               SymmetricDoor, quad_profile)
from glmphase.numerics import gauss_hermite
from glmphase.priors import (R_CAP, GaussBernoulliPrior, GaussianPrior,
                             RademacherPrior, TwoPointPrior)
from glmphase.replica import (RouteDisagreementError, denoising_error, f_hat,
                              f_rs, generalization_error, i_rs, inner_inf_r,
                              solve)


class TestPotential:
    def test_additive_structure_at_origin(self):
        prior, ch = RademacherPrior(), Sign()
        alpha = 1.3
        assert f_rs(prior, ch, alpha, 0.0, 0.0) == pytest.approx(
            alpha * ch.psi_pout(0.0, 1.0), abs=1e-12)

    def test_perceptron_capacity_bracket(self):
        # cross-evaluate the planted-perceptron free-entropy bracket:
        # E ln cosh(sqrt(r) Z + r) + 2 alpha E[N ln N] - r (q + 1) / 2
        prior, ch = RademacherPrior(), Sign()
        alpha, q, r = 1.0, 0.5, 0.5
        gh = gauss_hermite(199)
        e_lncosh = float(np.dot(gh.weights,
                                np.logaddexp(math.sqrt(r) * gh.nodes + r,
                                             -math.sqrt(r) * gh.nodes - r)
                                - math.log(2.0)))
        big_n = ndtr(math.sqrt(q) * gh.nodes / math.sqrt(1.0 - q))
        e_nln = float(np.dot(gh.weights, big_n * np.log(big_n)))
        bracket = e_lncosh + 2 * alpha * e_nln - r * (q + 1.0) / 2.0
        assert f_rs(prior, ch, alpha, q, r) == pytest.approx(bracket, abs=1e-6)

    def test_linear_gaussian_closed_form(self):
        # all-Gaussian potential in closed form
        prior, ch = GaussianPrior(1.0), LinearAWGN(0.5)
        alpha, q, r = 2.0, 0.4, 1.1
        expected = 0.5 * (r - math.log1p(r)) \
            - 0.5 * alpha * math.log(2 * math.pi * math.e * (0.5 + 1.0 - q)) \
            - 0.5 * r * q
        assert f_rs(prior, ch, alpha, q, r) == pytest.approx(expected, abs=1e-12)

    def test_i_rs_identity(self):
        # i_rs = alpha psi_pout(rho) - f_rs, checked at random points
        prior, ch = RademacherPrior(), Sign(0.3)
        alpha = 1.4
        rng = np.random.default_rng(0)
        psi_rho = ch.psi_pout(1.0, 1.0)
        for _ in range(5):
            q = float(rng.uniform(0, 1))
            r = float(rng.uniform(0, 5))
            lhs = i_rs(prior, ch, alpha, q, r)
            rhs = alpha * psi_rho - f_rs(prior, ch, alpha, q, r)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_i_rs_trivial_point(self):
        # q = rho, r = 0: I_P0(0) = 0 and the channel term vanishes
        assert i_rs(RademacherPrior(), Sign(0.3), 1.0, 1.0, 0.0) == pytest.approx(
            0.0, abs=1e-10)

    def test_f_rs_rejects_nan_r(self):
        with pytest.raises(ValueError, match="r=nan"):
            f_rs(RademacherPrior(), Sign(), 1.0, 0.5, math.nan)


class TestInnerInf:
    def test_stationarity(self):
        prior = GaussBernoulliPrior(0.3)
        for q in (0.05, 0.15, 0.29):
            r = inner_inf_r(prior, q)
            assert 2 * prior.psi_p0_prime(r) == pytest.approx(q, abs=1e-9)

    def test_zero_for_small_q(self):
        assert inner_inf_r(RademacherPrior(), 0.0) == 0.0

    @pytest.mark.parametrize("q", [math.nan, -0.1, np.array([0.5, math.nan])])
    def test_rejects_nan_or_negative_q(self, q):
        """Such a q once gave r = 0."""
        with pytest.raises(ValueError, match="q="):
            inner_inf_r(RademacherPrior(), q)

    def test_inf_is_a_minimum(self):
        prior, ch = RademacherPrior(), Sign()
        q = 0.5
        f0, r0 = f_hat(prior, ch, 1.0, q)
        for r in (0.5 * r0, 1.5 * r0):
            assert f_rs(prior, ch, 1.0, q, r) >= f0 - 1e-12


class TestSolve:
    def test_perceptron_recovery_phase(self):
        sol = solve(RademacherPrior(), Sign(), 2.0)
        assert sol.q_star == pytest.approx(1.0)
        assert sol.r_star == math.inf
        assert sol.mmse == pytest.approx(0.0)
        assert sol.matrix_mmse == pytest.approx(0.0)
        assert sol.gen_error == pytest.approx(0.0, abs=1e-9)
        assert sol.unique

    def test_door_noninformative_phase(self):
        sol = solve(RademacherPrior(), SymmetricDoor(), 0.9)
        assert sol.q_star == pytest.approx(0.0, abs=1e-8)
        assert sol.mmse == pytest.approx(1.0, abs=1e-8)
        assert sol.gen_error == pytest.approx(1.0, abs=1e-6)

    def test_linear_gaussian_quadratic_root(self):
        alpha, delta = 2.0, 0.5
        sol = solve(GaussianPrior(1.0), LinearAWGN(delta), alpha)
        s = 1.0 + delta + alpha
        q_exact = (s - math.sqrt(s * s - 4 * alpha)) / 2.0
        assert sol.q_star == pytest.approx(q_exact, abs=1e-8)
        assert sol.unique
        # stationarity of the reported couple
        assert sol.r_star == pytest.approx(
            2 * alpha * LinearAWGN(delta).psi_pout_prime(sol.q_star, 1.0),
            rel=1e-6)

    def test_gamma_points_are_critical(self):
        prior, ch = RademacherPrior(), Sign()
        alpha = 1.3
        sol = solve(prior, ch, alpha)
        for p in sol.gamma_set:
            if not math.isfinite(p.r) or p.q >= 1.0 - 1e-4:
                continue
            assert abs(p.q - 2 * prior.psi_p0_prime(p.r)) <= 1e-6
            assert abs(p.r - 2 * alpha * ch.psi_pout_prime(p.q, 1.0)) <= 1e-6 * 1e8

    def test_hard_phase_reports_both_branches(self):
        # between alpha_IT (1.245) and alpha_AMP (1.493) the recovery branch
        # wins while the partial-learning branch persists
        sol = solve(RademacherPrior(), Sign(), 1.35)
        assert sol.q_star == pytest.approx(1.0)
        qs = [p.q for p in sol.gamma_set]
        assert any(q < 0.9 for q in qs)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            solve(RademacherPrior(), Sign(), 0.0)

    def test_rejects_a_grid_of_fewer_than_three_points(self):
        with pytest.raises(ValueError, match="grid_size"):
            solve(RademacherPrior(), Sign(), 1.0, grid_size=2)

    def test_sup_inf_equals_inf_sup(self):
        # lem:sup_inf_dual consequence: optimizing i_rs the other way round
        prior, ch = RademacherPrior(), Sign()
        alpha = 1.2
        sol = solve(prior, ch, alpha)
        psi_rho = ch.psi_pout(1.0, 1.0)
        qs = np.linspace(0.0, 1.0 - 1e-6, 161)
        inf_sup = min(alpha * psi_rho - f_hat(prior, ch, alpha, float(q))[0]
                      for q in qs)
        sup_inf = alpha * psi_rho - sol.free_entropy
        assert inf_sup == pytest.approx(sup_inf, abs=1e-6)


class TestRecoveryTermCache:
    """recovery_f reuses its alpha-independent terms across alphas; the
    cached value must be the same float f_hat gives at the clamp."""

    CASES = [(GaussBernoulliPrior(0.6), Abs(0.0), 1e-5),
             (RademacherPrior(), SymmetricDoor(), 1e-10),
             (RademacherPrior(), Abs(0.0), 1e-4)]

    @pytest.mark.parametrize("prior,ch,depth", CASES)
    def test_bitwise_equal_to_f_hat(self, prior, ch, depth):
        replica._exact_psi_pout.cache_clear()
        rho = prior.second_moment
        for alpha in (0.3, 0.75, 1.1, 1.6):
            got = replica.recovery_f(prior, ch, alpha, depth)
            assert got == f_hat(prior, ch, alpha, rho * (1.0 - depth))[0]

    @pytest.mark.parametrize("prior,ch,depth", CASES)
    def test_first_call_under_fast_profile(self, prior, ch, depth):
        replica._exact_psi_pout.cache_clear()
        with quad_profile("fast"):
            first = replica.recovery_f(prior, ch, 0.9, depth)
        rho = prior.second_moment
        assert first == f_hat(prior, ch, 0.9, rho * (1.0 - depth))[0]
        assert replica.recovery_f(prior, ch, 0.9, depth) == first

    @pytest.mark.parametrize("prior,ch,depth", CASES)
    def test_one_psi_p0_per_prior_and_depth(self, prior, ch, depth, monkeypatch):
        """psi_p0 at the clamp root does not depend on alpha: one call per
        (prior, depth), and the same floats as f_hat."""
        cls = type(prior)
        real, calls = cls.psi_p0, []

        def spy(self, r):
            calls.append(r)
            return real(self, r)

        replica._INNER_POINTS.clear()
        replica._exact_psi_pout.cache_clear()
        alphas = (0.3, 0.75, 1.1, 1.6)
        monkeypatch.setattr(cls, "psi_p0", spy)
        got = [replica.recovery_f(prior, ch, a, depth) for a in alphas]
        got += [replica.recovery_f(prior, ch, a, 10.0 * depth) for a in alphas]
        assert len(calls) == 2
        monkeypatch.setattr(cls, "psi_p0", real)
        rho = prior.second_moment
        assert got == [f_hat(prior, ch, a, rho * (1.0 - d))[0]
                       for d in (depth, 10.0 * depth) for a in alphas]

    @pytest.mark.parametrize("prior,ch,depth", CASES)
    def test_f_hat_is_f_rs_at_the_inner_inf_r(self, prior, ch, depth):
        """f_hat reads psi_p0 and psi_pout from the point caches: the same
        floats as f_rs at inner_inf_r under the exact profile, whether the
        caches are cold or warm and whichever profile is active."""
        rho = prior.second_moment
        qs = (0.0, 0.3 * rho, rho * (1.0 - depth))
        want = [(f_rs(prior, ch, 0.9, q, inner_inf_r(prior, q)), inner_inf_r(prior, q))
                for q in qs]
        replica._INNER_POINTS.clear()
        replica._exact_psi_pout.cache_clear()
        with quad_profile("fast"):
            assert [f_hat(prior, ch, 0.9, q) for q in qs] == want
        assert [f_hat(prior, ch, 0.9, q) for q in qs] == want
        with quad_profile("fast"):
            assert [f_hat(prior, ch, 0.9, q) for q in qs] == want

    def test_f_hat_rejects_q_outside_0_rho(self):
        for q in (-1e-9, 1.0 + 1e-9, math.nan):
            with pytest.raises(ValueError, match="0 <= q <= rho"):
                f_hat(RademacherPrior(), Sign(), 1.0, q)

    def test_clamp_root_solved_once_per_prior(self, monkeypatch):
        """The inner-inf r at the clamp depends on (prior, depth) only: two
        door widths over one prior share one root solve."""
        calls = []
        real = replica.find_root

        def spy(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(replica, "find_root", spy)
        replica._INNER_POINTS.clear()
        replica._exact_psi_pout.cache_clear()
        prior, doors = RademacherPrior(), (SymmetricDoor(), SymmetricDoor(K=0.9))
        got = [replica.recovery_f(prior, ch, 1.2, 1e-10) for ch in doors]
        assert len(calls) == 1
        assert got == [f_hat(prior, ch, 1.2, 1.0 - 1e-10)[0] for ch in doors]


class TestBatchedFHat:
    """f_hat and recovery_f take an array of q (depths): the q the point
    cache lacks share one inner_inf_r call, and every element is the float
    of the scalar call."""

    PRIORS = [RademacherPrior(), GaussBernoulliPrior(1.0), GaussBernoulliPrior(0.6),
              TwoPointPrior((1.0, -0.5), (0.3, 0.7))]

    @staticmethod
    def _root_sizes(monkeypatch):
        sizes, real = [], replica.inner_inf_r

        def spy(prior, q):
            sizes.append(np.size(q))
            return real(prior, q)

        monkeypatch.setattr(replica, "inner_inf_r", spy)
        return sizes

    @pytest.mark.parametrize("prior", PRIORS, ids=repr)
    def test_array_equals_scalar_calls(self, prior, monkeypatch):
        rho = prior.second_moment
        qs = np.array([0.0, 0.2, 0.5, 0.9, 1.0 - 1e-6]) * rho
        replica._INNER_POINTS.clear()
        sizes = self._root_sizes(monkeypatch)
        f, r = f_hat(prior, Sign(), 1.1, qs)
        assert sizes == [qs.size]
        f2, r2 = f_hat(prior, Sign(), 0.7, qs[::-1])
        assert sizes == [qs.size]
        monkeypatch.setattr(replica, "inner_inf_r", inner_inf_r)
        replica._INNER_POINTS.clear()
        assert list(zip(f.tolist(), r.tolist())) == [
            f_hat(prior, Sign(), 1.1, q) for q in qs.tolist()]
        assert f2.tolist() == [f_hat(prior, Sign(), 0.7, q)[0] for q in qs[::-1].tolist()]

    def test_only_missing_q_are_solved(self, monkeypatch):
        prior = GaussBernoulliPrior(0.6)
        replica._INNER_POINTS.clear()
        sizes = self._root_sizes(monkeypatch)
        f_hat(prior, Abs(0.0), 1.0, 0.3)
        f, r = f_hat(prior, Abs(0.0), 1.0, np.array([[0.1, 0.3], [0.5, 0.1]]))
        assert sizes == [1, 2]
        assert f.shape == r.shape == (2, 2)

    @pytest.mark.parametrize("prior", [GaussBernoulliPrior(1.0),
                                       GaussBernoulliPrior(0.6)], ids=repr)
    def test_recovery_slope_solves_its_depths_at_once(self, prior, monkeypatch):
        """The four clamp depths of the divergence slope: one root call."""
        from glmphase import state_evolution as se
        replica._INNER_POINTS.clear()
        sizes = self._root_sizes(monkeypatch)
        se._recovery_slope(prior, Abs(0.0), 0.9)
        assert sizes == [4]
        depths = 1e-7 * np.array([1000.0, 100.0, 10.0, 1.0])
        batched = replica.recovery_f(prior, Abs(0.0), 0.9, depths)
        replica._INNER_POINTS.clear()
        assert batched.tolist() == [replica.recovery_f(prior, Abs(0.0), 0.9, d)
                                    for d in depths.tolist()]

    def test_cache_keeps_the_newest_points(self):
        replica._INNER_POINTS.clear()
        qs = np.linspace(0.0, 0.9, replica._POINTS_MAX + 10)
        f_hat(RademacherPrior(), Sign(), 1.0, qs)
        assert len(replica._INNER_POINTS) == replica._POINTS_MAX
        assert (RademacherPrior(), float(qs[-1])) in replica._INNER_POINTS
        assert (RademacherPrior(), float(qs[0])) not in replica._INNER_POINTS


class TestGeneralizationError:
    CHANNELS = [
        (LinearAWGN(0.3), 1.0),
        (Sign(), 1.0),
        (SymmetricDoor(), 1.0),
        (Abs(0.0), 1.0),
        (ReLU(1e-8), 0.2),
        (Sigmoid(1.5), 1.0),
    ]

    @pytest.mark.parametrize("ch,rho", CHANNELS)
    def test_closed_matches_generic(self, ch, rho):
        # generalization_error asserts agreement <= 1e-6 internally
        for qf in (0.0, 0.5, 0.99):
            generalization_error(ch, rho, qf * rho)

    def test_linear_full_overlap_leaves_noise(self):
        assert generalization_error(LinearAWGN(0.3), 1.0, 1.0) == pytest.approx(0.3)

    def test_sign_random_guessing(self):
        assert generalization_error(Sign(), 1.0, 0.0) == pytest.approx(1.0)

    def test_door_random_guessing(self):
        assert generalization_error(SymmetricDoor(), 1.0, 0.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_relu_values_at_ends(self):
        rho = 0.2
        assert generalization_error(ReLU(1e-8), rho, 0.0) == pytest.approx(
            rho / 2 - rho / (2 * math.pi), abs=1e-6)
        assert generalization_error(ReLU(1e-8), rho, rho) == pytest.approx(
            0.0, abs=1e-6)

    def test_monotone_in_q(self):
        for ch in (LinearAWGN(0.2), Sign()):
            qs = np.linspace(0.0, 0.99, 12)
            vals = [generalization_error(ch, 1.0, q) for q in qs]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            generalization_error(Sign(), 1.0, 1.2)

    @pytest.mark.parametrize("ch,rho,q", [
        (Sigmoid(5.0), 2.5, 1.25),
        (Sigmoid(8.0), 1.0, 0.5),
        (Sigmoid(8.0), 2.5, 0.99 * 2.5),
    ])
    def test_steep_sigmoid_routes_agree(self, ch, rho, q):
        generalization_error(ch, rho, q)

    def test_relu_near_full_overlap(self):
        ch, rho = ReLU(0.3), 1.0
        q = rho * (1.0 - 1e-6)
        assert generalization_error(ch, rho, q) == pytest.approx(
            replica._generic_gen_error(ch, rho, q), abs=1e-12)

    # channels whose mean label is not zero on average, so the shift moves
    # E_V[inner^2] by about 2e-5 E[phi]
    @pytest.mark.parametrize("ch,rho", [(Abs(0.0), 1.0), (ReLU(1e-8), 0.2)])
    def test_cross_check_catches_a_shifted_mean(self, ch, rho, monkeypatch):
        original = type(ch).mean_label_gauss
        monkeypatch.setattr(type(ch), "mean_label_gauss",
                            lambda self, mu, var: original(self, mu, var) + 1e-5)
        with pytest.raises(RuntimeError, match="routes disagree"):
            generalization_error(ch, rho, 0.5 * rho)


class TestDenoisingError:
    def test_linear_closed_form(self):
        # delta (rho - q) / (delta + rho - q), derived from Gaussian algebra
        delta, rho, q = 1.0, 1.0, 0.5
        expected = delta * (rho - q) / (delta + rho - q)
        assert denoising_error(LinearAWGN(1.0), rho, q, delta) == pytest.approx(
            expected, abs=1e-8)

    def test_bounds(self):
        for ch, rho in ((Abs(0.0), 1.0), (Sign(), 1.0)):
            val = denoising_error(ch, rho, 0.0, 0.5)
            assert 0.0 <= val <= ch.second_moment_phi(rho) + 1e-9

    def test_full_overlap_is_zero(self):
        assert denoising_error(LinearAWGN(0.0), 1.0, 1.0, 0.7) == 0.0

    def test_monotone_nonincreasing_in_q(self):
        for ch in (LinearAWGN(0.0), Sign()):
            qs = np.linspace(0.0, 0.9, 10)
            vals = [denoising_error(ch, 1.0, q, 0.5) for q in qs]
            assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            denoising_error(Sign(), 1.0, 0.5, 0.0)


INNER_PRIORS = [GaussianPrior(1.0), RademacherPrior(0.5), RademacherPrior(0.3),
                TwoPointPrior(values=(0.5, -1.5), probabilities=(0.6, 0.4)),
                GaussBernoulliPrior(0.2), GaussBernoulliPrior(1.0)]


class TestBatchedInnerInf:
    """inner_inf_r on an array of q: one batched bracketing solve."""

    @staticmethod
    def _qs(prior):
        rho = prior.second_moment
        return rho * np.array([0.0, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.8, 0.99,
                               1.0 - 1e-6, 1.0])

    @pytest.mark.parametrize("prior", INNER_PRIORS)
    def test_array_equals_scalar_calls(self, prior):
        qs = self._qs(prior)
        got = inner_inf_r(prior, qs)
        loop = np.array([inner_inf_r(prior, float(q)) for q in qs])
        np.testing.assert_array_equal(got, loop)
        assert type(inner_inf_r(prior, float(qs[4]))) is float

    @pytest.mark.parametrize("prior", INNER_PRIORS)
    def test_roots_and_clamps(self, prior):
        qs = self._qs(prior)
        rs = inner_inf_r(prior, qs)
        at_zero, at_cap = 2.0 * prior.psi_p0_prime(np.array([0.0, R_CAP]))
        inside = (qs > at_zero) & (qs < at_cap)
        assert np.all(rs[qs <= at_zero] == 0.0)
        assert np.all(rs[qs >= at_cap] == R_CAP)
        assert inside.sum() >= 5
        np.testing.assert_allclose(2.0 * prior.psi_p0_prime(rs[inside]),
                                   qs[inside], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("prior", INNER_PRIORS)
    def test_zero_takes_psi_prime_at_no_positive_r(self, prior, monkeypatch):
        """No q above 2 psi_p0'(0) = mean^2 needs no root; psi_p0' was
        once taken at R_CAP all the same."""
        seen = []
        original = type(prior).psi_p0_prime

        def spy(self, r):
            seen.append(float(np.max(r)))
            return original(self, r)

        monkeypatch.setattr(type(prior), "psi_p0_prime", spy)
        assert inner_inf_r(prior, 0.0) == 0.0
        assert np.all(inner_inf_r(prior, np.zeros(4)) == 0.0)
        assert seen and max(seen) == 0.0

    def test_nonzero_mean_clamps_to_zero(self):
        # 2 psi_p0'(0) = mean^2 = 0.16 for p_plus = 0.3
        prior = RademacherPrior(0.3)
        assert np.all(inner_inf_r(prior, np.array([0.0, 0.1, 0.16])) == 0.0)
        assert inner_inf_r(prior, 0.2) > 0.0


@pytest.mark.parametrize("prior", [
    GaussianPrior(1.0), RademacherPrior(), GaussBernoulliPrior(0.4),
    TwoPointPrior(values=(1.0, -0.5), probabilities=(0.3, 0.7))], ids=repr)
def test_inner_inf_matches_scipy_find_root(prior):
    """numerics.find_root inside inner_inf_r against scipy's elementwise
    Chandrupatla solve of the same equation with the same tolerances."""
    from scipy.optimize.elementwise import find_root as scipy_find_root
    rho = prior.second_moment
    q = rho * np.concatenate([np.random.default_rng(4).uniform(0.0, 1.0, 40),
                              1.0 - np.geomspace(1e-12, 1e-2, 11)])
    got = inner_inf_r(prior, q)
    at_zero, at_cap = 2.0 * prior.psi_p0_prime(np.array([0.0, R_CAP]))
    inside = (q > at_zero) & (q < at_cap)
    assert inside.sum() >= 40
    ref = scipy_find_root(
        lambda t, qt: 2.0 * prior.psi_p0_prime(np.expm1(t)) - qt,
        (0.0, math.log1p(R_CAP)), args=(q[inside],),
        tolerances=dict(xatol=1e-13, xrtol=1e-14))
    assert np.all(ref.success)
    np.testing.assert_allclose(got[inside], np.expm1(ref.x), rtol=1e-11, atol=0.0)


def test_route_b_needs_no_spline_tables(monkeypatch, q_sizes):
    """solve's direct route evaluates psi_p0' itself: it must not touch the
    state-evolution spline tables, so it stays a cross-check of Route A.
    It takes psi_pout of its 201-point grid in one call."""
    from glmphase import state_evolution as se

    def forbidden(*args):
        raise AssertionError("spline table used")

    monkeypatch.setattr(se, "_prior_table", forbidden)
    monkeypatch.setattr(se, "_channel_table", forbidden)
    sizes = q_sizes("psi_pout")
    sol = solve(RademacherPrior(), Sign(), 0.93)
    assert sol.q_star < 1.0
    assert sizes.count(201) == 1 and set(sizes) == {1, 201}


ROUTE_B_CASES = (
    [(RademacherPrior(), Sign(), a) for a in (0.5, 0.93, 1.35, 1.98)]
    # nonzero mean: the t = 0 end of the curve sits at q = mean^2 = 0.16
    + [(RademacherPrior(0.3), SymmetricDoor(), a) for a in (0.8, 1.7)]
    + [(TwoPointPrior(values=(0.5, -1.5), probabilities=(0.6, 0.4)), Sign(), 1.0),
       (GaussianPrior(1.0), LinearAWGN(0.5), 1.0)])


@pytest.mark.parametrize("prior,ch,alpha", ROUTE_B_CASES)
def test_route_b_value_matches_route_a(prior, ch, alpha):
    """Route B's sup along the inner-inf curve equals the free entropy of
    the winning state-evolution branch."""
    f_direct = replica._direct_sup_inf(prior, ch, alpha, 201)
    assert abs(f_direct - solve(prior, ch, alpha).free_entropy) <= 1e-10


def test_solution_carries_both_routes():
    prior, ch, alpha = RademacherPrior(), Sign(), 1.35
    sol = solve(prior, ch, alpha)
    assert sol.f_gamma == sol.free_entropy
    assert sol.f_direct == replica._direct_sup_inf(prior, ch, alpha, 201)
    assert abs(sol.f_gamma - sol.f_direct) <= 1e-10


@pytest.mark.parametrize("alpha", [0.93, 1.35])
def test_solution_carries_routes_uninformative_se_run(alpha):
    """The exact SE run of Route A from the uninformative start, as a
    separate se_run from UNINFORMATIVE_FRAC * rho gives it."""
    from glmphase import state_evolution as se
    prior, ch = RademacherPrior(), Sign()
    sol = solve(prior, ch, alpha)
    ref = se.se_run(prior, ch, alpha, se.UNINFORMATIVE_FRAC * prior.second_moment)
    assert sol.se_uninformative.q_limit == ref.q_limit
    assert sol.se_uninformative.converged and ref.converged
    np.testing.assert_array_equal(sol.se_uninformative.q_seq, ref.q_seq)


def test_route_b_solves_one_root(monkeypatch):
    """The curve is parametrized by r, so Route B needs one scalar root,
    the top of its t range, and that is the clamp root of Route A's
    recovery point: a solve and a second Route B solve it once."""
    calls = []
    original = replica.inner_inf_r

    def counted(prior, q, *args):
        calls.append(np.size(q))
        return original(prior, q, *args)

    monkeypatch.setattr(replica, "inner_inf_r", counted)
    replica._INNER_POINTS.clear()
    prior, ch = RademacherPrior(), Sign()
    sol = solve(prior, ch, 1.35)
    assert sol.q_star == 1.0
    replica._direct_sup_inf(prior, ch, 0.93, 201)
    assert calls == [1]


@pytest.mark.parametrize("prior", [RademacherPrior(), GaussBernoulliPrior(0.6),
                                   TwoPointPrior(values=(1.0, -0.5),
                                                 probabilities=(0.4, 0.6))], ids=repr)
def test_route_b_takes_one_prior_pass_per_block(prior, monkeypatch):
    """Route B builds each prior block's panel rule once: its 201-point
    grid and each Brent step take psi_p0 and psi_p0' from one pass, and
    only the 65-point coarse grid takes psi_p0' alone."""
    replica._inner_points(prior, [prior.second_moment * (1.0 - replica.EVAL_DEPTH)])
    blocks, rules = [], []
    expect, panels = type(prior)._expect_y0, priors.gauss_panels

    def spy_expect(self, r, gs):
        blocks.append((tuple(r), len(gs)))
        return expect(self, r, gs)

    def spy_panels(*args, **kwargs):
        rules.append(1)
        return panels(*args, **kwargs)

    monkeypatch.setattr(type(prior), "_expect_y0", spy_expect)
    monkeypatch.setattr(priors, "gauss_panels", spy_panels)
    replica._direct_sup_inf(prior, Sign(), 1.0, 201)
    rs = [r for r, _ in blocks]
    assert len(rules) == len(blocks) and len(set(rs)) == len(rs)
    # r = 0, the t = 0 end of both grids, takes no rule: 64 coarse r and
    # 200 grid r in blocks of four, then one r per Brent step
    assert [n for r, n in blocks if len(r) == 4] == [1] * 16 + [2] * 50
    steps = [n for r, n in blocks if len(r) == 1]
    assert 1 <= len(steps) <= 20 and set(steps) == {2}
    assert len(blocks) == 66 + len(steps)


# q_star of Rademacher x Sign below alpha_IT, as float.hex, from before the
# crossing solves of gamma_branches took the grid's residuals at their
# bracket ends
Q_STAR_PINS = [(0.93, '0x1.0c1a716aeb563p-1'), (1.15, '0x1.4846e834e9d14p-1')]


@pytest.mark.parametrize("alpha,pin", Q_STAR_PINS)
def test_q_star_keeps_its_bits(alpha, pin):
    assert solve(RademacherPrior(), Sign(), alpha).q_star.hex() == pin


def _golden_direct_sup_inf(prior, channel, alpha, grid_size):
    """Route B as it was before Brent's method: the same grid, refined by
    golden section in t to the same bracket width."""
    rho = prior.second_moment
    q_hi = rho * (1.0 - replica.EVAL_DEPTH)

    def q_of(t):
        return np.minimum(2.0 * prior.psi_p0_prime(np.expm1(t)), q_hi)

    def f_of(t, q):
        r = np.expm1(t)
        return replica._f_rs_terms(prior.psi_p0(r), channel.psi_pout(q, rho),
                                   alpha, q, r)

    t_coarse = np.linspace(0.0, math.log1p(inner_inf_r(prior, q_hi)), 65)
    q_coarse = q_of(t_coarse)
    ts = np.interp(np.linspace(q_coarse[0], q_coarse[-1], grid_size),
                   q_coarse, t_coarse)
    qs = q_of(ts)
    fs = f_of(ts, qs)
    k = int(np.argmax(fs))
    lo, hi = max(k - 1, 0), min(k + 1, grid_size - 1)
    slope = np.max(np.diff(qs[lo:hi + 1]) / np.diff(ts[lo:hi + 1]))
    tol = 0.5 * 1e-9 * max(rho, 1.0) / max(slope, 1e-300)
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ts[lo], ts[hi]
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f_of(c, q_of(c)), f_of(d, q_of(d))
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f_of(c, q_of(c))
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f_of(d, q_of(d))
    return max(fs[k], fc, fd)


# two maxima of f along the curve nearly tie around alpha_IT = 1.245
BRENT_CASES = ROUTE_B_CASES + [(RademacherPrior(), Sign(), a)
                               for a in (1.24, 1.249, 1.26)]


@pytest.mark.parametrize("prior,ch,alpha", BRENT_CASES)
def test_brent_refinement_matches_golden_section(prior, ch, alpha, monkeypatch):
    """Brent's method finds the sup the golden-section refinement found,
    to 1e-12, with at most 20 psi_pout calls after the grid's one (golden
    section took 37)."""
    golden = _golden_direct_sup_inf(prior, ch, alpha, 201)
    sizes, original = [], type(ch).psi_pout

    def counted(self, q, rho):
        sizes.append(np.size(q))
        return original(self, q, rho)

    monkeypatch.setattr(type(ch), "psi_pout", counted)
    got = replica._direct_sup_inf(prior, ch, alpha, 201)
    assert abs(got - golden) <= 1e-12
    assert sizes.count(201) == 1 and len(sizes) <= 21


def test_route_b_returns_a_nan_grid_value(monkeypatch):
    """np.argmax picks a NaN, wherever it sits on the grid: Route B returns
    it, rather than a refined value beside it."""
    original = Sign.psi_pout

    def one_nan(self, q, rho):
        out = original(self, q, rho)
        if np.size(q) == 201:
            out = np.array(out)
            out[17] = np.nan
        return out

    monkeypatch.setattr(Sign, "psi_pout", one_nan)
    assert math.isnan(replica._direct_sup_inf(RademacherPrior(), Sign(), 1.6, 201))
    with pytest.raises(RouteDisagreementError) as exc:
        solve(RademacherPrior(), Sign(), 1.6)
    assert math.isnan(exc.value.f_direct)


def test_nan_route_b_value_raises(monkeypatch):
    """abs(f_gamma - nan) > tol is False: the route check once let a NaN
    Route B value through and returned f_direct = nan."""
    monkeypatch.setattr(replica, "_direct_sup_inf", lambda *args: math.nan)
    with pytest.raises(RouteDisagreementError) as exc:
        solve(RademacherPrior(), Sign(), 1.6)
    assert math.isfinite(exc.value.f_gamma) and math.isnan(exc.value.f_direct)


@pytest.mark.parametrize("prior,ch", [
    (RademacherPrior(), Sign()), (RademacherPrior(), SymmetricDoor()),
    (GaussBernoulliPrior(0.5), Sign())], ids=repr)
def test_recovery_point_is_f_hat_at_the_clamp(prior, ch):
    """Route A's recovery point reads recovery_f at EVAL_DEPTH: the same
    float f_hat gives at q_hi = rho (1 - EVAL_DEPTH)."""
    q_hi = prior.second_moment * (1.0 - replica.EVAL_DEPTH)
    for alpha in (0.7, 1.35, 2.0):
        assert replica.recovery_f(prior, ch, alpha, replica.EVAL_DEPTH) \
            == f_hat(prior, ch, alpha, q_hi)[0]


# inner_inf_r at three q per prior, as float.hex, from before find_root
# took per-element brackets: its scalar-bracket calls keep every bit
INNER_INF_PINS = [
    (RademacherPrior(), [(0.3, "0x1.9fa706c8fc217p-2"),
                         (0.9, "0x1.ae5e1164a1b58p+1"),
                         (0.999999, "0x1.8c803e95ebca5p+4")]),
    (RademacherPrior(0.3), [(0.3, "0x1.c9e61ac73b8a2p-3"),
                            (0.9, "0x1.97df0f7fea03cp+1"),
                            (0.999999, "0x1.89b541bfb6c64p+4")]),
    (GaussBernoulliPrior(0.5), [(0.15, "0x1.98e0bc9a50aafp-1"),
                                (0.45, "0x1.b2e54bd69fed5p+3"),
                                (0.4999995, "0x1.ef1698c885025p+19")]),
]


@pytest.mark.parametrize("prior,pins", INNER_INF_PINS, ids=repr)
def test_inner_inf_r_pinned(prior, pins):
    for q, r in pins:
        assert inner_inf_r(prior, q).hex() == r
    qs = np.array([q for q, _ in pins])
    assert [r.hex() for r in inner_inf_r(prior, qs).tolist()] == [r for _, r in pins]


def test_cross_check_catches_a_missed_branch(monkeypatch):
    """Between alpha_IT and alpha_AMP the recovery branch wins; if Route A
    loses it, Route B still finds it and solve refuses to answer."""
    from glmphase import state_evolution as se
    original = se.gamma_branches

    def partial_only(prior, channel, alpha, *args):
        return [q for q in original(prior, channel, alpha, *args) if q < 0.9]

    monkeypatch.setattr(se, "gamma_branches", partial_only)
    with pytest.raises(RouteDisagreementError) as exc:
        solve(RademacherPrior(), Sign(), 1.35)
    assert exc.value.f_direct > exc.value.f_gamma + 1e-5


def test_noisy_sign_recovery_routes_agree():
    """Rademacher x Sign(0.2) at alpha 1.5: psi_pout' collapsed to 0 near
    q = rho, so SE from the informative start fell to q = 0 and Route B's
    recovery end beat every branch of Route A (RouteDisagreementError)."""
    sol = solve(RademacherPrior(), Sign(0.2), 1.5)
    assert sol.q_star == 1.0
    assert sol.free_entropy == pytest.approx(-1.61548, abs=1e-5)
    assert abs(sol.f_gamma - sol.f_direct) <= 1e-12


def test_capped_se_runs_offer_no_branch(monkeypatch):
    """Rademacher x Sign at alpha 1.0 with SE capped at 2 iterations: the
    cut runs' last iterates (q = 0.5099 and 0.9910) once entered gamma_set;
    now every listed q below the recovery branch is a fixed point of the
    one-step map, found by the grid crossings."""
    from glmphase import state_evolution as se
    from glmphase.numerics import FixedPointOptions
    monkeypatch.setattr(se, "DEFAULT_SE_OPTS",
                        FixedPointOptions(damping=0.0, tol=1e-10, max_iter=2))
    prior, ch, alpha = RademacherPrior(), Sign(), 1.0
    rho = prior.second_moment
    sol = solve(prior, ch, alpha)
    assert not sol.se_uninformative.converged
    qs = [p.q for p in sol.gamma_set if p.q < rho * (1.0 - replica.RECOVERY_FRAC)]
    assert qs
    for q in qs:
        r = 2.0 * alpha * ch.psi_pout_prime(q, rho)
        assert abs(2.0 * prior.psi_p0_prime(r) - q) <= 1e-9 * rho
