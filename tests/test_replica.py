import math

import numpy as np
import pytest
from scipy.special import ndtr

from glmphase import replica
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


class TestInnerInf:
    def test_stationarity(self):
        prior = GaussBernoulliPrior(0.3)
        for q in (0.05, 0.15, 0.29):
            r = inner_inf_r(prior, q)
            assert 2 * prior.psi_p0_prime(r) == pytest.approx(q, abs=1e-9)

    def test_zero_for_small_q(self):
        assert inner_inf_r(RademacherPrior(), 0.0) == 0.0

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
        replica._recovery_terms.cache_clear()
        rho = prior.second_moment
        for alpha in (0.3, 0.75, 1.1, 1.6):
            got = replica.recovery_f(prior, ch, alpha, depth)
            assert got == f_hat(prior, ch, alpha, rho * (1.0 - depth))[0]

    @pytest.mark.parametrize("prior,ch,depth", CASES)
    def test_first_call_under_fast_profile(self, prior, ch, depth):
        replica._recovery_terms.cache_clear()
        with quad_profile("fast"):
            first = replica.recovery_f(prior, ch, 0.9, depth)
        rho = prior.second_moment
        assert first == f_hat(prior, ch, 0.9, rho * (1.0 - depth))[0]
        assert replica.recovery_f(prior, ch, 0.9, depth) == first


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

    def test_nonzero_mean_clamps_to_zero(self):
        # 2 psi_p0'(0) = mean^2 = 0.16 for p_plus = 0.3
        prior = RademacherPrior(0.3)
        assert np.all(inner_inf_r(prior, np.array([0.0, 0.1, 0.16])) == 0.0)
        assert inner_inf_r(prior, 0.2) > 0.0

    def test_bracket_narrows_without_moving_roots(self):
        prior = RademacherPrior()
        qs = np.linspace(0.0, 1.0 - 1e-6, 21)
        rs = inner_inf_r(prior, qs)
        for k in (3, 10, 18):
            q = 0.5 * (qs[k] + qs[k + 1])
            full = inner_inf_r(prior, q)
            narrow = inner_inf_r(prior, q, r_bracket=(rs[k], rs[k + 1]))
            assert narrow == pytest.approx(full, rel=1e-11)

    def test_bracket_missing_the_root_falls_back(self):
        prior = RademacherPrior()
        full = inner_inf_r(prior, 0.5)
        assert inner_inf_r(prior, 0.5, r_bracket=(10.0, 20.0)) == pytest.approx(
            full, rel=1e-11)


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
