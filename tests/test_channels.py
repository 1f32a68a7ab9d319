import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, log_expit, logsumexp, ndtr
from scipy.stats import norm

from glmphase import channels
from glmphase.channels import (Abs, Channel, GoutUnderflowError, LinearAWGN,
                               ReLU, Sigmoid, Sign, SymmetricDoor,
                               _MASS, _VAR, _PiecewiseChannel,
                               _log_gauss_prob, _trunc_moments, quad_profile)
from glmphase.numerics import DEFAULT_GH_ORDER, gauss_hermite, gauss_panels
from glmphase.replica import denoising_error, generalization_error

from adaptive_simpson import integrate_1d

RHO1_CHANNELS = [
    LinearAWGN(0.5),
    Sign(),
    Sign(0.2),
    Abs(0.0),
    Abs(1e-8),
    SymmetricDoor(),
    Sigmoid(2.0),
]


class TestConstruction:
    def test_relu_requires_noise(self):
        with pytest.raises(ValueError):
            ReLU(0.0)

    @pytest.mark.parametrize("make,field", [
        (lambda: Sign(delta=math.nan), "delta"), (lambda: Sign(epsilon=math.inf), "epsilon"),
        (lambda: Abs(epsilon=-0.1), "epsilon"), (lambda: ReLU(math.nan), "delta"),
        (lambda: SymmetricDoor(K=math.inf), "K"), (lambda: SymmetricDoor(K=0.0), "K"),
        (lambda: Sigmoid(math.nan), "slope"), (lambda: Sigmoid(epsilon=0.1), "epsilon"),
        (lambda: LinearAWGN(epsilon=0.3), "epsilon"), (lambda: LinearAWGN(-1.0), "delta")])
    def test_one_parameter_rule(self, make, field):
        """Every field is finite, delta and epsilon are >= 0, and a field the
        channel ignores is 0.  Sign(delta=nan) and LinearAWGN(epsilon=0.3),
        which gave the psi_pout of LinearAWGN(), were accepted."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            make()

    def test_flags(self):
        assert Abs(0.0).is_even and SymmetricDoor().is_even
        assert not Sign().is_even and not LinearAWGN().is_even
        assert not ReLU(1e-8).is_even and not Sigmoid().is_even
        assert Sign().is_discrete and SymmetricDoor().is_discrete
        assert Sigmoid().is_discrete
        assert not Sign(0.1).is_discrete
        assert not Abs(0.0).is_discrete  # continuous labels even at delta=0

    def test_mirror(self):
        assert Abs(0.0)._mirror == SymmetricDoor(K=1.2)._mirror == 1
        assert Abs(0.1)._mirror == 1
        for ch in (Sign(), Sign(0.2), LinearAWGN(0.5), Sigmoid(2.0)):
            assert ch._mirror == -1
        for ch in (ReLU(0.3), Sign(epsilon=0.05), Abs(epsilon=0.05),
                   SymmetricDoor(epsilon=0.05)):
            assert ch._mirror is None

    def test_epsilon_breaks_evenness(self):
        # a shifted threshold breaks z -> -z: no q = 0 fixed point, no
        # stability integral
        for ch in (Abs(epsilon=0.05), SymmetricDoor(epsilon=0.05)):
            assert not ch.is_even
            with pytest.raises(ValueError, match="even channel"):
                ch.stability_integral(1.0)

    def test_epsilon_shifts_door_threshold(self):
        ch = SymmetricDoor(K=0.67449).with_epsilon(1e-4)
        assert ch.phi(0.67449 + 5e-5) == -1.0
        assert SymmetricDoor(K=0.67449).phi(0.67449 + 5e-5) == 1.0


class TestSampleLabel:
    def test_identity_channel(self):
        assert LinearAWGN(0.0).sample_label(1.3, seed=0) == 1.3

    def test_sign(self):
        assert Sign().sample_label(-0.7, seed=0) == -1.0
        assert Sign().sample_label(0.0, seed=0) == 1.0  # tie convention

    def test_door_inside_is_minus_one(self):
        assert SymmetricDoor(K=0.67449).sample_label(0.2, seed=0) == -1.0
        assert SymmetricDoor(K=0.67449).sample_label(0.9, seed=0) == 1.0

    def test_sigmoid_statistics(self):
        ch = Sigmoid(2.0)
        z = 0.5
        ys = np.array([ch.sample_label(z, seed=s) for s in range(4000)])
        p = float(np.mean(ys == 1.0))
        target = 1.0 / (1.0 + math.exp(-2.0 * z))
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / 4000)

    def test_noise_added_after_activation(self):
        y = Abs(0.25).sample_label(-2.0, seed=5)
        rng = np.random.default_rng(5)
        assert y == pytest.approx(2.0 + 0.5 * rng.standard_normal())


class TestDensity:
    def test_linear_gaussian_peak(self):
        assert LinearAWGN(1.0).density(0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi))

    def test_sign_pmf(self):
        assert Sign().density(1.0, 0.5) == 1.0
        assert Sign().density(1.0, -0.5) == 0.0
        assert Sign().density(3.0, 0.5) == 0.0  # off-support label

    def test_abs_hand_value(self):
        # N(0 - |2|; 0, 1) = exp(-2)/sqrt(2 pi)
        assert Abs(1.0).density(0.0, 2.0) == pytest.approx(
            0.05399096651318806, abs=1e-12)

    def test_noiseless_continuous_rejected(self):
        with pytest.raises(ValueError):
            LinearAWGN(0.0).density(1.0, 1.0)
        with pytest.raises(ValueError):
            Abs(0.0).density(1.0, 1.0)

    @pytest.mark.parametrize("ch", [c for c in RHO1_CHANNELS
                                    if c.is_discrete or c.delta > 0])
    def test_normalization_in_y(self, ch):
        for z in (-1.3, 0.0, 0.8):
            if ch.is_discrete:
                total = sum(ch.density(y, z) for y in ch.labels)
            else:
                center = float(ch.mean_label(z))  # phi(z) for deterministic
                half = 12 * math.sqrt(ch.delta)
                total = integrate_1d(lambda y: ch.density(y, z),
                                     center - half, center + half, tol=1e-12)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestZout:
    def test_v_zero_reduces_to_density(self):
        for ch in (LinearAWGN(0.5), Sign(), SymmetricDoor(), Sigmoid(1.5)):
            y = 1.0
            assert ch.zout(y, 0.3, 0.0) == pytest.approx(
                ch.density(y, 0.3), abs=1e-14)

    def test_v_continuity_near_zero(self):
        for ch in (LinearAWGN(0.5), Sign(), Sigmoid(1.5)):
            val = ch.zout(1.0, 0.3, 1e-8)
            assert val == pytest.approx(ch.density(1.0, 0.3), abs=1e-6)

    def test_linear_gaussian_convolution(self):
        ch = LinearAWGN(0.7)
        y, om, v = 0.4, -0.2, 0.5
        assert ch.zout(y, om, v) == pytest.approx(
            norm.pdf(y, loc=om, scale=math.sqrt(0.7 + v)), rel=1e-12)

    def test_sign_gaussian_tail(self):
        assert Sign().zout(1.0, 0.3, 0.25) == pytest.approx(ndtr(0.6), rel=1e-12)
        assert Sign().zout(-1.0, 0.3, 0.25) == pytest.approx(ndtr(-0.6), rel=1e-12)

    @pytest.mark.parametrize("ch", [Abs(0.3), ReLU(1e-4), SymmetricDoor()])
    def test_against_w_quadrature(self, ch):
        om, v = 0.4, 0.6
        ys = ch.labels if ch.is_discrete else (0.05, 0.8, 2.0)
        for y in ys:
            pts = sorted({min(max((y - om) / math.sqrt(v), -10), 10),
                          min(max(-om / math.sqrt(v), -10), 10)})
            ref = quad(lambda w: norm.pdf(w) * ch.density(y, om + math.sqrt(v) * w),
                       -10, 10, limit=400, points=pts)[0]
            assert ch.zout(y, om, v) == pytest.approx(ref, rel=1e-6)

    def test_noiseless_abs_two_root_formula(self):
        # zout = [N(y; om, v) + N(y; -om, v)] for y > 0 (unit slopes)
        ch = Abs(0.0)
        y, om, v = 0.8, 0.4, 0.6
        expected = norm.pdf(y, om, math.sqrt(v)) + norm.pdf(y, -om, math.sqrt(v))
        assert ch.zout(y, om, v) == pytest.approx(expected, rel=1e-12)

    def test_log_domain_deep_tail(self):
        # evidence of the wrong label at huge |omega|/sqrt(V): underflows in
        # linear domain but the log value stays finite
        val = Sign().log_zout(-1.0, 40.0, 1e-2)
        assert -1e6 < val < math.log(1e-300)

    @pytest.mark.parametrize("lo,hi", [(1e155, 2e155), (1e155, math.inf),
                                       (-2e155, -1e155), (-math.inf, -1e155)])
    def test_gauss_prob_beyond_log_ndtr_range(self, lo, hi):
        # log_ndtr of both bounds is -inf there; the mass is 0, not NaN
        assert _log_gauss_prob(lo, hi) == -math.inf
        assert np.array_equal(_log_gauss_prob([lo, 0.5], [hi, 1.0]) == -math.inf,
                              [True, False])

    @pytest.mark.parametrize("y,omega", [(-1.0, 1e155), (1.0, -1e155)])
    def test_log_zout_beyond_log_ndtr_range(self, y, omega):
        assert Sign().log_zout(y, omega, 1.0) == -math.inf

    @pytest.mark.parametrize("ch", [Sign(), LinearAWGN(0.5), Sigmoid(2.0)], ids=repr)
    def test_array_v(self, ch):
        """zout takes an array V, as log_zout does; it once tested the
        truth value of the array."""
        y, omega = np.array([1.0, -1.0, 1.0]), np.array([0.3, -0.2, 1.5])
        v = np.array([0.25, 1.0, 2.0])
        got = ch.zout(y, omega, v)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.array_equal(got, np.exp(ch.log_zout(y, omega, v)))
        assert got[0] == ch.zout(1.0, 0.3, 0.25)

    @pytest.mark.parametrize("ch", [Sign(), LinearAWGN(0.5), Sigmoid(2.0)], ids=repr)
    def test_negative_v_element_rejected(self, ch):
        with pytest.raises(ValueError, match="V must be nonnegative"):
            ch.zout(1.0, 0.3, np.array([0.5, -1e-3]))
        with pytest.raises(ValueError, match="V must be nonnegative"):
            ch.zout(1.0, 0.3, -1.0)


class TestGout:
    def test_even_channel_symmetric_point(self):
        for ch in (Abs(0.0), Abs(0.1), SymmetricDoor()):
            for y in (0.3, 1.0) if not ch.is_discrete else ch.labels:
                assert ch.gout(y, 0.0, 0.7).gout == pytest.approx(0.0, abs=1e-13)

    def test_linear_closed_form(self):
        ch = LinearAWGN(1.0)
        y, om, v = 1.0, 0.2, 0.5
        expected = math.sqrt(v) * (y - om) / (1.0 + v)
        assert ch.gout(y, om, v).gout == pytest.approx(expected, rel=1e-12)

    def test_sign_inverse_mills(self):
        om, v = 0.3, 0.25
        t = om / math.sqrt(v)
        expected = norm.pdf(t) / ndtr(t)
        assert Sign().gout(1.0, om, v).gout == pytest.approx(expected, rel=1e-10)

    def test_matches_tilted_quadrature(self):
        for ch, y in ((SymmetricDoor(), -1.0), (Sigmoid(2.0), 1.0), (Abs(0.2), 0.7)):
            om, v = 0.5, 0.4
            sq = math.sqrt(v)
            num = quad(lambda w: w * norm.pdf(w) * ch.density(y, om + sq * w),
                       -10, 10, limit=400)[0]
            den = quad(lambda w: norm.pdf(w) * ch.density(y, om + sq * w),
                       -10, 10, limit=400)[0]
            res = ch.gout(y, om, v)
            assert res.gout == pytest.approx(num / den, rel=1e-6)
            assert res.zout == pytest.approx(den, rel=1e-6)

    def test_vout_is_posterior_variance(self):
        ch, y, om, v = SymmetricDoor(), 1.0, 0.5, 0.4
        sq = math.sqrt(v)
        # the density jumps where om + sq * w = +-K
        jumps = [(-ch.K - om) / sq, (ch.K - om) / sq]

        def moment(k):
            return quad(lambda w: w ** k * norm.pdf(w) * ch.density(y, om + sq * w),
                        -10, 10, points=jumps)[0]

        den = moment(0)
        m1, m2 = moment(1) / den, moment(2) / den
        assert ch.gout(y, om, v).vout == pytest.approx(m2 - m1 * m1, rel=1e-12)

    def test_underflow_error_mentions_remedies(self):
        with pytest.raises(GoutUnderflowError, match="damping"):
            Sign().gout(3.0, 0.0, 1.0)  # off-support label: zero evidence

    def test_requires_positive_v(self):
        with pytest.raises(ValueError):
            Sign().gout(1.0, 0.0, 0.0)
        for v in (0.0, np.array([0.5, -1e-3])):
            with pytest.raises(ValueError, match="V must be positive"):
                Abs(0.2).posterior_phi_mean(0.7, 0.5, v)


class TestPsiPout:
    def test_sign_symmetric_point(self):
        assert Sign().psi_pout(0.0, 1.0) == pytest.approx(-math.log(2.0),
                                                           abs=1e-12)

    def test_sign_recovery_limit(self):
        assert abs(Sign().psi_pout(1.0 - 1e-9, 1.0)) < 1e-3

    def test_linear_differential_entropy(self):
        val = LinearAWGN(1.0).psi_pout(0.0, 1.0)
        assert val == pytest.approx(-0.5 * math.log(4 * math.pi * math.e),
                                    abs=1e-12)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            Sign().psi_pout(-0.1, 1.0)
        with pytest.raises(ValueError):
            Sign().psi_pout(1.1, 1.0)

    @pytest.mark.parametrize("ch", RHO1_CHANNELS)
    def test_convex_and_nondecreasing(self, ch):
        qs = np.linspace(0.0, 0.999, 20)
        vals = np.array([ch.psi_pout(q, 1.0) for q in qs])
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all(vals[:-2] + vals[2:] - 2 * vals[1:-1] >= -1e-9)

    def test_generic_matches_linear_closed_form(self):
        ch = LinearAWGN(0.7)
        for q in (0.0, 0.4, 0.9):
            generic = _PiecewiseChannel.psi_pout(ch, q, 1.0)
            assert generic == pytest.approx(ch.psi_pout(q, 1.0), abs=1e-10)


class TestPsiPoutPrime:
    def test_even_channel_zero(self):
        for ch in (Abs(0.0), SymmetricDoor()):
            assert ch.psi_pout_prime(0.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_linear_closed_form(self):
        assert LinearAWGN(1.0).psi_pout_prime(0.0, 1.0) == pytest.approx(0.25)
        generic = _PiecewiseChannel.psi_pout_prime(LinearAWGN(1.0), 0.0, 1.0)
        assert generic == pytest.approx(0.25, abs=1e-12)

    def test_rejects_q_equal_rho(self):
        with pytest.raises(ValueError):
            Sign().psi_pout_prime(1.0, 1.0)

    @pytest.mark.parametrize("ch", RHO1_CHANNELS + [ReLU(1e-8)])
    def test_matches_finite_differences(self, ch):
        rho = 0.2 if isinstance(ch, ReLU) else 1.0
        for qf in (0.1, 0.5, 0.9):
            q, h = qf * rho, 1e-4 * rho
            fd = (ch.psi_pout(q + h, rho) - ch.psi_pout(q - h, rho)) / (2 * h)
            an = ch.psi_pout_prime(q, rho)
            assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-12)

    def test_noiseless_blowup_near_recovery(self):
        # exact-recovery criterion: psi' grows without bound as q -> rho
        for ch in (Sign(), SymmetricDoor(), Abs(0.0)):
            assert ch.psi_pout_prime(1.0 - 1e-8, 1.0) > 1e3
        shallow = [ch.psi_pout_prime(1.0 - 1e-4, 1.0)
                   for ch in (Sign(), SymmetricDoor(), Abs(0.0))]
        deep = [ch.psi_pout_prime(1.0 - 1e-8, 1.0)
                for ch in (Sign(), SymmetricDoor(), Abs(0.0))]
        assert all(d > 10 * s for s, d in zip(shallow, deep))

    SCALE_X = np.array([1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6])

    def _scale_miss(self, ch, rho):
        """Relative miss of psi'(x rho; rho) rho against psi'(x; 1)."""
        unit = ch.psi_pout_prime(self.SCALE_X, 1.0)
        scaled = ch.psi_pout_prime(self.SCALE_X * rho, rho) * rho
        return np.max(np.abs(scaled - unit) / np.abs(unit))

    @pytest.mark.parametrize("rho", [0.25, 0.6])
    @pytest.mark.parametrize("ch", [Sign(), Sign(0.2), Abs()], ids=repr)
    def test_scale_free_identity(self, ch, rho):
        """y | c z has the law of y | z up to a relabelling of y, so
        psi'(q; rho) = psi'(q / rho; 1) / rho (measured to 4.6e-14)."""
        assert ch.scale_free
        assert self._scale_miss(ch, rho) <= 1e-12

    @pytest.mark.parametrize("ch", [Abs(0.1), Sign(epsilon=1e-3),
                                    SymmetricDoor(), ReLU(1e-8), Sigmoid(2.0)],
                             ids=repr)
    def test_not_scale_free(self, ch):
        """Noise on a linear piece, a threshold away from 0, or a slope."""
        assert not ch.scale_free
        if not isinstance(ch, (ReLU, Sigmoid)):
            assert max(self._scale_miss(ch, rho) for rho in (0.25, 0.6)) > 1e-7


class TestStability:
    def test_abs_is_two(self):
        assert Abs(0.0).stability_integral(1.0) == pytest.approx(2.0, abs=2e-3)
        assert Abs(1e-8).stability_integral(1.0) == pytest.approx(2.0, abs=2e-3)

    def test_door_closed_form(self):
        # A(+-1) = +-2 K pdf(K), B(+-1) = 1/2 at the balanced K
        k = 0.67449
        a = 2 * k * norm.pdf(k)
        expected = 2 * a * a / 0.5
        assert SymmetricDoor().stability_integral(1.0) == pytest.approx(
            expected, rel=1e-10)

    def test_non_even_rejected(self):
        for ch in (Sign(), LinearAWGN(0.5), Sigmoid()):
            with pytest.raises(ValueError):
                ch.stability_integral(1.0)

    def test_door_k_to_zero_trend(self):
        # labels become uninformative: integral -> 0, alpha_c -> infinity
        vals = [SymmetricDoor(K=k).stability_integral(1.0)
                for k in (0.67449, 0.2, 0.05)]
        assert vals[0] > vals[1] > vals[2]
        assert 1.0 / vals[2] > 20.0  # alpha_c heading to infinity


class TestMeanLabel:
    def test_pointwise(self):
        assert Sign().mean_label(np.array([-0.5, 0.5])) == pytest.approx([-1, 1])
        assert Abs(0.0).mean_label(-2.0) == 2.0
        assert ReLU(1e-8).mean_label(-2.0) == 0.0
        assert Sigmoid(2.0).mean_label(0.3) == pytest.approx(math.tanh(0.3))

    def test_gaussian_smoothing_matches_quadrature(self):
        for ch, mu, var in (
                (Sign(), 0.4, 0.6), (Abs(0.0), 0.4, 0.6), (ReLU(1e-6), 0.4, 0.6),
                (SymmetricDoor(), 0.4, 0.6), (Sigmoid(1.5), 0.4, 0.6),
                # steep slopes: the tanh step is narrower than the Hermite
                # node spacing
                (Sigmoid(5.0), 0.4, 1.25), (Sigmoid(8.0), 0.4, 2.5),
                (Sigmoid(50.0), 0.4, 1.0), (Sigmoid(50.0), -1.3, 1.0)):
            s = math.sqrt(var)
            ref = quad(lambda w: norm.pdf(w) * float(ch.mean_label(mu + s * w)),
                       -10, 10, points=[-mu / s], limit=200)[0]
            assert ch.mean_label_gauss(mu, var) == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("slope,var", [(5.0, 1.25), (8.0, 2.5), (50.0, 1.0)])
    def test_steep_sigmoid_evidence_matches_quadrature(self, slope, var):
        # a 99-node Hermite rule misses log Z_out here by 2.9e-5, 6.7e-3 and
        # 0.14: the step is narrower than its node spacing
        ch = Sigmoid(slope)
        s = math.sqrt(var)
        for om in (0.4, -1.3, 0.0):
            for y in (1.0, -1.0):
                # the step at w = -om / s is a break point of quad's rule
                def moment(k):
                    return quad(lambda w: w ** k * norm.pdf(w)
                                * float(ch.density(y, om + s * w)),
                                -12.0, 12.0, points=[-om / s], epsabs=0.0,
                                epsrel=1e-13, limit=400)[0]

                z0, z1, z2 = moment(0), moment(1), moment(2)
                assert ch.log_zout(y, om, var) == pytest.approx(
                    math.log(z0), rel=0.0, abs=1e-12)
                den = ch.gout(y, om, var)
                assert den.gout == pytest.approx(z1 / z0, rel=0.0, abs=1e-12)
                assert den.vout == pytest.approx(z2 / z0 - (z1 / z0) ** 2,
                                                 rel=0.0, abs=1e-11)
                logz, g = ch._log_zout_gout(y, om, var)
                assert (logz, g) == (den.log_zout, den.gout)

    def test_sigmoid_evidence_blocks_keep_shape(self):
        ch = Sigmoid(8.0)
        om = np.linspace(-3.0, 3.0, 600).reshape(20, 30)
        y = np.where(np.arange(600) % 3 == 0, -1.0, 1.0).reshape(20, 30)
        got = ch.log_zout(y, om, 0.5)
        assert got.shape == om.shape
        each = [ch.log_zout(yy, o, 0.5)
                for yy, o in zip(y.reshape(-1)[::37], om.reshape(-1)[::37])]
        assert got.reshape(-1)[::37] == pytest.approx(each, rel=0.0, abs=1e-15)
        assert isinstance(ch.log_zout(1.0, 0.3, 0.5), float)
        # V = 0 entries take the label probability at omega
        v = np.where(np.arange(600) % 2 == 0, 0.0, 0.5).reshape(20, 30)
        mixed = ch.log_zout(y, om, v)
        assert np.array_equal(mixed[v == 0.0], log_expit(8.0 * y * om)[v == 0.0])
        assert np.array_equal(mixed[v > 0.0], got[v > 0.0])

    def test_sigmoid_smoothing_blocks_keep_shape(self):
        ch = Sigmoid(8.0)
        mu = np.linspace(-3.0, 3.0, 600).reshape(20, 30)
        got = ch.mean_label_gauss(mu, 0.5)
        assert got.shape == mu.shape
        each = [ch.mean_label_gauss(float(m), 0.5) for m in mu.reshape(-1)[::37]]
        assert got.reshape(-1)[::37] == pytest.approx(each, abs=1e-15)
        assert isinstance(ch.mean_label_gauss(0.3, 0.5), float)
        # var = 0 is the mean label itself
        assert np.array_equal(ch.mean_label_gauss(mu, 0.0), ch.mean_label(mu))
        assert ch.mean_label_gauss(0.3, 0.0) == ch.mean_label(0.3)

    def test_sign_erf_identity(self):
        mu, var = 0.7, 0.3
        assert Sign().mean_label_gauss(mu, var) == pytest.approx(
            erf(mu / math.sqrt(2 * var)), rel=1e-12)
        with pytest.raises(ValueError, match="var must be scalar"):
            Sign().mean_label_gauss(mu, np.array([var, var]))

    def test_second_moment_phi(self):
        assert LinearAWGN(0.1).second_moment_phi(0.8) == pytest.approx(0.8)
        assert Sign().second_moment_phi(1.0) == pytest.approx(1.0)
        assert Abs(0.0).second_moment_phi(0.7) == pytest.approx(0.7)
        assert ReLU(1e-8).second_moment_phi(0.6) == pytest.approx(0.3, abs=1e-9)
        assert SymmetricDoor().second_moment_phi(1.0) == pytest.approx(1.0)
        assert Sigmoid().second_moment_phi(1.0) == pytest.approx(1.0)


# (channel, labels drawn for the array inputs, an off-support label whose
# pieces all carry zero evidence, or None when every label has some)
PIECEWISE_CASES = [
    (LinearAWGN(0.0), None, None),
    (LinearAWGN(0.5), None, None),
    (Sign(), (-1.0, 1.0), 3.0),
    (Sign(0.2), None, None),
    (Abs(0.0), None, -0.5),
    (Abs(0.2), None, None),
    (ReLU(0.3), None, None),
    (SymmetricDoor(), (-1.0, 1.0), 0.5),
    (SymmetricDoor(K=0.9, delta=0.1), None, None),
]


def _reference_kernel(ch, y, omega, v):
    """Evidence and posterior moments from scipy's logsumexp over the
    stacked per-piece arrays."""
    logw, mean, var = ch._piece_stats(y, omega, v, _VAR)
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = logsumexp(logw, axis=0)
        ok = np.isfinite(logz)
        post = np.where(ok, np.exp(logw - np.where(ok, logz, 0.0)), 0.0)
    g = np.sum(post * mean, axis=0)
    piece_axis = (-1,) + (1,) * np.ndim(logz)
    cs = np.array([p[2] for p in ch.pieces()]).reshape(piece_axis)
    ds = np.array([p[3] for p in ch.pieces()]).reshape(piece_axis)
    return {"log_zout": logz,
            "gout": g,
            "vout": np.sum(post * (var + (mean - g) ** 2), axis=0),
            "phi": np.sum(post * (cs + ds * (omega + math.sqrt(v) * mean)), axis=0)}


def _assert_kernel_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite])  # -inf stays -inf
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-14)


class TestPieceAxisKernel:
    """The evidence kernel reduces over a leading piece axis with its own
    max-shifted log-sum-exp; it must agree with scipy's logsumexp."""

    V = 0.6

    def _inputs(self, ch, labels):
        rng = np.random.default_rng(7)
        omega = rng.uniform(-3.0, 3.0, size=(4, 5))
        if labels is not None:
            y = rng.choice(labels, size=omega.shape)
        else:
            y = ch.phi(omega + rng.standard_normal(omega.shape))
            y = y + math.sqrt(ch.delta) * rng.standard_normal(omega.shape)
        return y, omega

    @pytest.mark.parametrize("ch,labels,_", PIECEWISE_CASES)
    def test_pieces_lead(self, ch, labels, _):
        y, omega = self._inputs(ch, labels)
        for arr in ch._piece_stats(y, omega, self.V, _VAR):
            assert arr.shape == (len(ch.pieces()),) + omega.shape

    @pytest.mark.parametrize("ch,labels,_", PIECEWISE_CASES)
    def test_arrays_match_scipy_reference(self, ch, labels, _):
        y, omega = self._inputs(ch, labels)
        ref = _reference_kernel(ch, y, omega, self.V)
        res = ch.gout(y, omega, self.V)
        _assert_kernel_close(ch.log_zout(y, omega, self.V), ref["log_zout"])
        _assert_kernel_close(res.log_zout, ref["log_zout"])
        _assert_kernel_close(res.gout, ref["gout"])
        _assert_kernel_close(res.vout, ref["vout"])
        _assert_kernel_close(ch._log_zout_gout(y, omega, self.V)[1], ref["gout"])
        if ch.delta > 0:
            _assert_kernel_close(ch.posterior_phi_mean(y, omega, self.V),
                                 ref["phi"])

    @pytest.mark.parametrize("ch,labels,_", PIECEWISE_CASES)
    def test_scalar_inputs_stay_float(self, ch, labels, _):
        y = labels[1] if labels is not None else float(ch.phi(0.4)) + 0.1
        ref = _reference_kernel(ch, y, 0.4, self.V)
        res = ch.gout(y, 0.4, self.V)
        lz = ch.log_zout(y, 0.4, self.V)
        assert all(type(x) is float for x in (lz, res.gout, res.vout, res.log_zout))
        _assert_kernel_close(lz, ref["log_zout"])
        _assert_kernel_close(res.gout, ref["gout"])
        _assert_kernel_close(res.vout, ref["vout"])
        if ch.delta > 0:
            phi = ch.posterior_phi_mean(y, 0.4, self.V)
            assert type(phi) is float
            _assert_kernel_close(phi, ref["phi"])

    @pytest.mark.parametrize("ch,labels,off",
                             [c for c in PIECEWISE_CASES if c[2] is not None])
    def test_all_pieces_zero_rows(self, ch, labels, off):
        y, omega = self._inputs(ch, labels)
        y[1] = off  # a whole row of zero-evidence observations
        ref = _reference_kernel(ch, y, omega, self.V)
        lz = ch.log_zout(y, omega, self.V)
        assert np.all(lz[1] == -np.inf)
        _assert_kernel_close(lz, ref["log_zout"])
        g = ch._log_zout_gout(y, omega, self.V)[1]
        assert np.all(g[1] == 0.0)
        _assert_kernel_close(g, np.where(np.isfinite(ref["log_zout"]),
                                         ref["gout"], 0.0))
        assert ch.log_zout(off, 0.4, self.V) == -math.inf
        with pytest.raises(GoutUnderflowError):
            ch.gout(y, omega, self.V)
        with pytest.raises(GoutUnderflowError):
            ch.gout(off, 0.4, self.V)

    def test_deep_tail_is_shifted_not_underflowed(self):
        # wrong-side label far out: every piece weight is below exp(-745),
        # so an unshifted sum would underflow to zero evidence
        omega = np.array([-40.0, 40.0])
        for ch, y in ((Sign(), np.array([1.0, -1.0])),
                      (SymmetricDoor(K=0.5), np.array([-1.0, -1.0]))):
            ref = _reference_kernel(ch, y, omega, 1e-4)
            assert np.all(ref["log_zout"] < -1e6)
            res = ch.gout(y, omega, 1e-4)
            _assert_kernel_close(res.log_zout, ref["log_zout"])
            np.testing.assert_allclose(res.gout, ref["gout"], rtol=1e-12)

    @pytest.mark.parametrize("ch", [Abs(0.0), Abs(0.2), SymmetricDoor(),
                                    SymmetricDoor(K=0.9, delta=0.1)])
    def test_stability_integral_matches_reference(self, ch):
        rho = 1.0

        def ratio(y):
            logw, mean, var = ch._piece_stats(np.asarray(y), 0.0, rho, _VAR)
            log_den = logsumexp(logw, axis=0)
            log_num, sign = logsumexp(logw, b=var + mean ** 2 - 1.0, axis=0,
                                      return_sign=True)
            if log_den < math.log(1e-300):
                return 0.0
            return float(np.exp(2.0 * log_num - log_den))

        if ch.is_discrete:
            ref = sum(ratio(lab) for lab in ch.labels)
        else:
            # the range of phi over +-9 deviations (on a grid: the door's
            # -1 level lies between its kinks), padded by 10 noise ones
            phis = ch.phi(np.linspace(-9.0, 9.0, 1801) * math.sqrt(rho))
            pad = 10.0 * math.sqrt(ch.delta) + 1e-6
            ref = integrate_1d(ratio, phis.min() - pad, phis.max() + pad, tol=1e-12)
        assert ch.stability_integral(rho) == pytest.approx(ref, rel=1e-12)


class TestFarTails:
    """The kernel works on the standardized w = (x - omega) / sqrt(V), so
    omega far beyond sqrt(V) neither cancels nor overflows."""

    @pytest.mark.parametrize("omega", [1e8, 1e100])
    def test_right_label_far_out_is_unit_gaussian(self, omega):
        # x = omega + w is positive for every w that matters: w ~ N(0, 1)
        res = Sign().gout(1.0, omega, 1.0)
        assert (res.gout, res.vout, res.log_zout) == (0.0, 1.0, 0.0)

    def test_abs_far_out(self):
        # y = |x| = omega leaves w = 0 (the other root, w = -2 omega, has no
        # Gaussian weight)
        res = Abs().gout(1e155, 1e155, 1.0)
        assert (res.gout, res.vout) == (0.0, 0.0)
        assert res.zout == pytest.approx(norm.pdf(0.0), rel=1e-15)

    def test_wrong_label_far_out_sits_at_the_threshold(self):
        res = Sign().gout(-1.0, 1e100, 1.0)
        assert res.gout == pytest.approx(-1e100, rel=1e-15)
        assert 0.0 <= res.vout <= 1.0
        assert -1e201 < res.log_zout < -1e199

    @pytest.mark.parametrize("x", [30.0, 1e4, 1e8, 1e100])
    def test_truncated_moments_match_mills_series(self, x):
        # E[W | W > x] = phi(x) / Q(x) ~ x + 1/x - 2/x^3 + 10/x^5 - ...
        # and Var[W | W > x] ~ 1/x^2 - 6/x^4 + 50/x^6 - 518/x^8
        u = 1.0 / x
        mean = x + u * (1 + u * u * (-2 + u * u * (10 + u * u * (-74 + 706 * u * u))))
        var = u * u * (1 + u * u * (-6 + u * u * (50 - 518 * u * u)))
        _, right, right_var = _trunc_moments(x, math.inf, _VAR)
        _, left, left_var = _trunc_moments(-math.inf, -x, _VAR)
        assert right == pytest.approx(mean, rel=1e-13)
        assert left == pytest.approx(-mean, rel=1e-13)
        # four terms of the variance series are good to 1e-8 at x = 30
        assert right_var == left_var == pytest.approx(var, abs=2e-8)

    @pytest.mark.parametrize("x", [1e2, 1e3, 1e4, 1e6])
    def test_tail_variance_keeps_relative_accuracy(self, x):
        # 1 + x ra - m^2 cancels to eps x^4 relative (2.5e-4 at x = 1e3, and
        # 0 for x >= 1e4); five series terms are good to 1e-11 at x = 100
        y = 1.0 / (x * x)
        var = y * (1 + y * (-6 + y * (50 + y * (-518 + 6354 * y))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in ((x, math.inf), (-math.inf, -x), (x, 2.0 * x)):
                _, _, got = _trunc_moments(lo, hi, _VAR)
                assert got == pytest.approx(var, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lo,hi", [(1e3, 1e3 + 0.04), (1e4, 1e4 + 0.004),
                                       (20.0, 20.5), (30.0, 30.01),
                                       (1e6, 1e6 + 1e-5)])
    def test_narrow_far_interval_matches_mpmath(self, lo, hi):
        """Both ends far out and the far one carrying mass: E[W^2] - m^2
        gave 1.0000076e-6 for (1e3, 1e3 + 0.04) and 0 for (1e4, 1e4 +
        0.004)."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            a, b = mp.mpf(lo), mp.mpf(hi)
            mass = mp.ncdf(-a) - mp.ncdf(-b)
            mean = (mp.npdf(a) - mp.npdf(b)) / mass
            var = 1 + (a * mp.npdf(a) - b * mp.npdf(b)) / mass - mean ** 2
            mean, var = float(mean), float(var)
        for a, b, sign in ((lo, hi, 1.0), (-hi, -lo, -1.0)):
            _, m, v = _trunc_moments(a, b, _VAR)
            assert m == pytest.approx(sign * mean, rel=1e-10, abs=0.0)
            assert v == pytest.approx(var, rel=1e-10, abs=0.0)

    def test_no_nan_on_extreme_inputs(self):
        channels = [LinearAWGN(0.0), LinearAWGN(0.5), Sign(), Sign(0.2),
                    Sign(epsilon=0.1), Abs(0.0), Abs(0.2), ReLU(1e-8),
                    ReLU(0.3), SymmetricDoor(), SymmetricDoor(delta=0.1),
                    SymmetricDoor(epsilon=0.05)]
        scales = [1e-300, 1.0, 40.0, 1e8, 1e100, 1e155, 1e300]
        omegas = [0.0] + scales + [-s for s in scales]
        for ch in channels:
            ys = ch.labels or (-1.0, 0.0, 1.0, 1e8, 1e155)
            for y in ys:
                for v in (1e-300, 1e-8, 1.0, 1e8, 1e300):
                    for omega in omegas:
                        try:
                            res = ch.gout(y, omega, v)
                        except GoutUnderflowError:
                            continue
                        vals = (res.gout, res.vout, res.log_zout)
                        assert np.all(np.isfinite(vals)), (ch, y, omega, v, vals)


# intervals of every case of the truncated-normal kernel: tails on either
# side, across zero, infinite ends, empty ones, and narrow ones 20 or more
# deviations out whose far end carries mass (their moments are rewritten)
LEVEL_INTERVALS = [
    (0.5, 3.0), (2.0, math.inf), (-3.0, -0.5), (-math.inf, -2.0), (0.0, 1.0),
    (-1.0, 0.0), (-1.0, 2.0), (-0.3, math.inf), (-math.inf, 0.7),
    (-math.inf, math.inf), (1.0, 1.0), (2.0, 1.0), (math.inf, math.inf),
    (-math.inf, -math.inf), (20.0, 20.5), (30.0, 30.01), (1e3, 1e3 + 0.04),
    (-20.5, -20.0), (-1e4 - 0.004, -1e4), (25.0, math.inf), (40.0, 1e3),
    (1e155, 2e155), (-2e155, -1e155),
]


class TestKernelLevels:
    """The evidence kernels skip the moments where their caller reads the
    log mass only; it is the full kernel's, to the bit."""

    def test_trunc_moments_mass_matches_full(self):
        lo, hi = np.array(LEVEL_INTERVALS).T
        full = _trunc_moments(lo, hi, _VAR)
        got = _trunc_moments(lo, hi, _MASS)
        assert len(full) == 3 and len(got) == 1
        assert np.array_equal(got[0], full[0])

    def test_mass_matches_across_element_blocks(self):
        # more elements than one pass of the kernel, mixing every case
        rng = np.random.default_rng(3)
        base = np.array(LEVEL_INTERVALS)
        shape = (5, channels._ELEM_BLOCK // 2 + 7)
        pick = base[rng.integers(len(base), size=shape)]
        jitter = rng.uniform(-0.2, 0.2, size=pick.shape)
        bounds = pick + np.where(np.isfinite(pick) & (np.abs(pick) < 1e3), jitter, 0.0)
        lo, hi = bounds[..., 0], bounds[..., 1]
        got, = _trunc_moments(lo, hi, _MASS)
        assert got.shape == shape
        assert np.array_equal(got, _trunc_moments(lo, hi, _VAR)[0])

    @pytest.mark.parametrize("ch,labels,_", PIECEWISE_CASES, ids=repr)
    def test_piece_stats_mass_matches_full(self, ch, labels, _):
        y, omega = TestPieceAxisKernel()._inputs(ch, labels)
        full = ch._piece_stats(y, omega, 0.6, _VAR)
        got = ch._piece_stats(y, omega, 0.6, _MASS)
        assert len(full) == 3 and len(got) == 1
        assert np.array_equal(got[0], full[0])

    def test_sigmoid_mass_matches_full(self):
        rng = np.random.default_rng(5)
        omega = rng.uniform(-3.0, 3.0, size=(3, 300))
        y = rng.choice([-1.0, 1.0], size=omega.shape)
        v = np.where(rng.random(omega.shape) < 0.1, 0.0, 0.6)
        full = Sigmoid(2.0)._w_stats(y, omega, v, _VAR)
        got = Sigmoid(2.0)._w_stats(y, omega, v, _MASS)
        assert len(full) == 3 and len(got) == 1
        assert np.array_equal(got[0], full[0])


# psi_pout and psi_pout' at q = 0.2, 0.6, 0.95 (rho 1, exact profile), as
# float.hex, from before the kernels took levels
EVIDENCE_PIN_QS = np.array([0.2, 0.6, 0.95])
EVIDENCE_PINS = [
    (Sign(),
     ['-0x1.40007baa3aa4fp-1', '-0x1.cbb93ef28ff82p-2', '-0x1.49683c892513ap-3'],
     ['0x1.765a0cf343345p-2', '0x1.16789aaa2fb17p-1', '0x1.9a3ab3aae7b9ep+0']),
    (SymmetricDoor(),
     ['-0x1.5ef6f97225d23p-1', '-0x1.34604536e9f7cp-1', '-0x1.066a47e0b80d0p-2'],
     ['0x1.461e1bd84f2f6p-4', '0x1.980bf382bcdeep-2', '0x1.44c31d1cc1997p+1']),
    (Abs(0.0),
     ['-0x1.6b32aad69629cp-1', '-0x1.1e21bf1159fefp-1', '0x1.bafa5feeec0f9p-3'],
     ['0x1.4691feaa5e806p-3', '0x1.68a56ad88a5b5p-1', '0x1.13a7a60388b9cp+3']),
    (Sign(0.2),
     ['-0x1.351f67f71077fp+0', '-0x1.0a09f15eac1adp+0', '-0x1.8835087eeec94p-1'],
     ['0x1.67126d91af5eap-2', '0x1.094aecb7b8d84p-1', '0x1.838cb87d2dc3fp+0']),
    (ReLU(0.3),
     ['-0x1.1e634b3f856f2p+0', '-0x1.0248f5f69ddcfp+0', '-0x1.b4d2619033550p-1'],
     ['0x1.e204b1f69670cp-3', '0x1.513c926005cc7p-2', '0x1.4e3a9597724b8p-1']),
]


def test_quad_profile_restores_and_rejects_unknown_names():
    from glmphase import channels
    with quad_profile("fast"):
        with quad_profile("exact"):
            assert channels._profile == "exact"
        assert channels._profile == "fast"
        with pytest.raises(ValueError, match="unknown profile"):
            with quad_profile("fastest"):
                pass
        assert channels._profile == "fast"
    assert channels._profile == "exact"


@pytest.mark.parametrize("ch,psi,prime", EVIDENCE_PINS, ids=repr)
def test_evidence_levels_keep_the_bits(ch, psi, prime):
    """psi_pout reads the log mass only; it and psi_pout' keep every
    bit."""
    with quad_profile("exact"):
        got_psi = ch.psi_pout(EVIDENCE_PIN_QS, 1.0)
        got_prime = ch.psi_pout_prime(EVIDENCE_PIN_QS, 1.0)
    assert [v.hex() for v in got_psi.tolist()] == psi
    assert [v.hex() for v in got_prime.tolist()] == prime


# Every channel family, noiseless and noisy; continuous channels run under
# the fast profile, which changes nothing here but the cost.
ARRAY_CASES = [
    (LinearAWGN(0.0), 1.0), (LinearAWGN(0.5), 1.0), (Sign(), 1.0),
    (Sign(0.2), 1.0), (Abs(0.0), 1.0), (Abs(0.1), 1.0), (ReLU(1e-8), 0.2),
    (SymmetricDoor(), 1.0), (SymmetricDoor(epsilon=0.05), 1.0),
    (Sigmoid(2.0), 1.0),
]
Q_FRACS = np.array([0.0, 1e-9, 1e-4, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-13])


def _profile(ch):
    closed = ch.is_discrete or isinstance(ch, LinearAWGN)
    return quad_profile("exact" if closed else "fast")


def _has_density_at_rho(ch):
    return ch.is_discrete or ch.delta > 0.0


class TestArrayOfQ:
    """psi_pout and psi_pout' take an array of q: discrete channels evaluate
    a block of rows in one pass, continuous ones go row by row."""

    @pytest.mark.parametrize("ch,rho", ARRAY_CASES)
    def test_prime_equals_scalar_loop(self, ch, rho):
        qs = Q_FRACS * rho
        with _profile(ch):
            got = ch.psi_pout_prime(qs, rho)
            loop = np.array([ch.psi_pout_prime(float(q), rho) for q in qs])
        np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ch,rho", ARRAY_CASES)
    def test_psi_equals_scalar_loop(self, ch, rho):
        qs = Q_FRACS * rho
        if _has_density_at_rho(ch):
            qs = np.append(qs, rho)
        with _profile(ch):
            got = ch.psi_pout(qs, rho)
            loop = np.array([ch.psi_pout(float(q), rho) for q in qs])
        np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ch,rho", ARRAY_CASES)
    def test_scalar_is_float_and_shape_is_kept(self, ch, rho):
        grid = np.array([[0.1, 0.3], [0.5, 0.7]]) * rho
        with _profile(ch):
            assert type(ch.psi_pout(0.3 * rho, rho)) is float
            assert type(ch.psi_pout_prime(np.float64(0.3 * rho), rho)) is float
            assert ch.psi_pout(grid, rho).shape == (2, 2)
            assert ch.psi_pout_prime(grid, rho).shape == (2, 2)
            assert ch.psi_pout_prime(grid[:1, 0], rho).shape == (1,)

    @pytest.mark.parametrize("ch,rho", ARRAY_CASES)
    def test_out_of_domain_element_rejected(self, ch, rho):
        for bad in (-1e-12, 1.1 * rho, math.nan):
            with pytest.raises(ValueError):
                ch.psi_pout(np.array([0.2 * rho, bad]), rho)
            with pytest.raises(ValueError):
                ch.psi_pout_prime(np.array([0.2 * rho, bad]), rho)
        with pytest.raises(ValueError):
            ch.psi_pout_prime(np.array([0.2 * rho, rho]), rho)
        if not _has_density_at_rho(ch):
            with pytest.raises(ValueError):
                ch.psi_pout(np.array([0.2 * rho, rho]), rho)


# psi_pout' of the masked kernel, which evaluated every V row of every w
# segment and zeroed the clipped-away ones: skipping those rows leaves each
# value bit for bit the same.  Folding the E_V rule of Abs onto V >= 0 moved
# three Abs values by 1-3 ulp (a different summation order); ReLU is not
# folded and keeps its values.  numerics.erfcx in place of scipy.special's
# erfcx and ndtr moved three ReLU values.  The fast rows moved again when
# the fast profile took panel E_V rows everywhere for kinked channels
# (Gauss-Hermite had served rows whose threshold images are wider than
# 0.75): fast ReLU(0.3) near q = rho went from 0.78098 (6.3% low) to within
# 1.3e-4 of the exact profile.  Every value moved once more when the y rows
# replaced the nested w x noise rules; ADAPTIVE_REFS has the adaptive
# reference of each that moved by more than rounding.
PIN_FRACS = np.array([0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])
PINNED = [
    (Abs(0.0), 1.0, "exact", [0.24483545409679608, 4.006710240907229,
                              499694.16231102694, 500010755269.4909]),
    (Abs(0.0), 1.0, "fast", [0.24483545406946414, 4.00671024086812,
                             499694.16231050773, 500010755255.7728]),
    (ReLU(1e-8), 0.2, "exact", [2.774700162512952, 15.30856997146917,
                                1190908.042302486, 24999487.388465904]),
    (ReLU(1e-8), 0.2, "fast", [2.7747001625130308, 15.308569971467685,
                               1190908.0423012874, 24999499.46927331]),
    (ReLU(0.3), 0.2, "exact", [0.4230011761427611, 0.6761723038890761,
                               0.8332220905159323, 0.8333333333327775]),
    (ReLU(0.3), 0.2, "fast", [0.42300117614415034, 0.6761723043601477,
                              0.8333327777781493, 0.8333333333327787]),
]
# (PINNED row, position): the same E_V rule with the integral over y at each
# node by adaptive quadrature (scipy quad, break points at every feature),
# the relative distance the pin keeps from it, and the distance the pin of
# the nested rules kept.  Near q = rho, y = omega + sqrt(rho - q) x rounds
# away about eps / sqrt(rho - q) of the x part, so at 1 - 1e-12 abs is only
# resolved to about 1e-11 by any of them and is left out.
ADAPTIVE_REFS = {
    (0, 0): (0.24483545409679608, 1e-16, 1.2e-16),
    (1, 0): (0.24483545406946775, 1e-13, 8.8e-13),
    (1, 1): (4.006710240868125, 1e-14, 8.5e-11),
    (1, 2): (499694.16231050633, 1e-14, 3.9e-13),
    (2, 0): (2.7747001625129477, 1e-14, 4.3e-8),
    (2, 1): (15.308569971469085, 1e-14, 6.9e-10),
    (2, 3): (24999487.388465982, 1e-14, 9.2e-14),
    (3, 0): (2.7747001625130143, 1e-14, 2.3e-8),
    (3, 1): (15.308569971467476, 2e-14, 3.2e-9),
    (3, 2): (1190908.042251841, 1e-10, 3.7e-10),
    (3, 3): (24999499.46927542, 9e-14, 9.5e-14),
    (4, 0): (0.4230011761427613, 1e-15, 1.7e-13),
    (5, 0): (0.42300117614415067, 1e-15, 9.7e-9),
    (5, 1): (0.6761723043601476, 1e-15, 6.3e-13),
}


@pytest.mark.parametrize("ch,rho,profile,values", PINNED)
def test_continuous_psi_prime_pinned(ch, rho, profile, values):
    with quad_profile(profile):
        got = ch.psi_pout_prime(PIN_FRACS * rho, rho)
    assert got.tolist() == values


def test_fast_noisy_relu_near_full_overlap():
    """Fast Gauss-Hermite rows were 6.3% low here; panel rows keep the fast
    profile within 1.3e-4 of the exact one."""
    ch, rho = ReLU(0.3), 0.2
    q = rho * (1.0 - 1e-6)
    with quad_profile("fast"):
        fast = ch.psi_pout_prime(q, rho)
    assert fast == pytest.approx(ch.psi_pout_prime(q, rho), rel=1e-3, abs=0.0)


@pytest.mark.parametrize("where", sorted(ADAPTIVE_REFS))
def test_pins_are_closer_to_adaptive_references(where):
    ref, rel, before = ADAPTIVE_REFS[where]
    row, pos = where
    assert rel < before
    assert PINNED[row][3][pos] == pytest.approx(ref, rel=rel, abs=0.0)


# -- the E_V rule of a mirror-symmetric channel, folded onto V >= 0 ----------

def _unfolded_v_rules(self, q, rho):
    """Channel._v_rules without the fold: every row on the whole line, with
    the same break points (V = 0 among them for a mirror-symmetric channel),
    so that folded and unfolded rules differ only by the fold."""
    kinks = np.array(self._x_kinks())
    if not kinks.size:
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        return (np.tile(gh.nodes, q.size), np.tile(gh.weights, q.size),
                np.repeat(np.arange(q.size), gh.nodes.size))
    pos = q > 0.0
    qs = np.where(pos, q, 1.0)[:, None]
    feats = np.where(pos[:, None], kinks / np.sqrt(qs), np.nan)
    spreads = [rho - q[:, None] + self.delta]
    if self.delta > 0.0 and all(p[3] == 0.0 for p in self.pieces()):
        spreads.append(rho - q[:, None])
    widths = np.hstack([np.broadcast_to(np.sqrt(s / qs), feats.shape)
                        for s in spreads])
    feats = np.hstack([feats] * len(spreads))
    if self._mirror is not None:
        feats = np.hstack([feats, np.zeros((q.size, 1))])
        widths = np.hstack([widths, np.zeros((q.size, 1))])
    prof = channels._prof()
    rule = gauss_panels(feats, widths, chunk=prof["v_chunk"], order=prof["v_gl"])
    return rule.nodes, rule.weights, rule.row


FOLDED = [Sign(), Sign(0.2), Abs(0.0), Abs(0.1), SymmetricDoor(),
          SymmetricDoor(K=1.2), Sigmoid(2.0)]
NOT_FOLDED = [ReLU(0.3), Sign(epsilon=0.05), SymmetricDoor(epsilon=0.05)]
FOLD_QS = np.array([0.3, 0.8])


def _v_quantities(ch):
    """psi_pout, psi_pout' and the generalization error at FOLD_QS, and the
    denoising error (delta 0.5) at q = 0.5 where it is defined; rho = 1."""
    vals = [ch.psi_pout(FOLD_QS, 1.0), ch.psi_pout_prime(FOLD_QS, 1.0),
            [generalization_error(ch, 1.0, q) for q in FOLD_QS]]
    if not isinstance(ch, Sigmoid):
        vals.append([denoising_error(ch, 1.0, 0.5, 0.5)])
    return np.concatenate([np.ravel(v) for v in vals])


def _folded_and_unfolded(ch, profile, monkeypatch):
    with quad_profile(profile):
        folded = _v_quantities(ch)
        monkeypatch.setattr(Channel, "_v_rules", _unfolded_v_rules)
        return folded, _v_quantities(ch)


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch", FOLDED, ids=repr)
def test_folded_rule_matches_unfolded(ch, profile, monkeypatch):
    folded, full = _folded_and_unfolded(ch, profile, monkeypatch)
    np.testing.assert_allclose(folded, full, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch", NOT_FOLDED, ids=repr)
def test_unfolded_channels_keep_their_rule(ch, profile, monkeypatch):
    folded, full = _folded_and_unfolded(ch, profile, monkeypatch)
    assert folded.tolist() == full.tolist()


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch", FOLDED, ids=repr)
def test_folded_rows_are_half_line_rules(ch, profile):
    qs = np.array([0.0, 1e-9, 0.3, 0.5, 0.8, 0.9, 1.0 - 1e-6, 1.0])
    with quad_profile(profile):
        nodes, weights, row = ch._v_rules(qs, 1.0)
        ref_nodes, ref_weights, ref_row = _unfolded_v_rules(ch, qs, 1.0)
    assert np.all(nodes >= 0.0) and np.all(weights > 0.0)
    for f in (np.ones_like, np.square):
        got = np.bincount(row, weights=weights * f(nodes), minlength=qs.size)
        ref = np.bincount(ref_row, weights=ref_weights * f(ref_nodes),
                          minlength=qs.size)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)
    if profile == "exact" and ch._x_kinks():
        # every row is panels: with a break at V = 0 they integrate |V|,
        # kinked there, as well as a smooth function (the symmetric
        # Gauss-Hermite rule of a channel without thresholds is exact for
        # even integrands only; the coarser fast panels err by 2e-10)
        got = np.bincount(row, weights=weights * nodes, minlength=qs.size)
        np.testing.assert_allclose(got, math.sqrt(2.0 / math.pi), rtol=1e-14)


def test_folded_door_at_high_q_matches_a_refined_rule(monkeypatch):
    """Near q = 0.95-0.99 the unfolded door rule had one wide panel across
    V = 0 and missed psi' by up to 2.3e-9; the fold's break at 0 removes
    it, so the folded rule is checked against a refined one there."""
    ch, qs = SymmetricDoor(), np.array([0.94603, 0.984176])
    folded = ch.psi_pout_prime(qs, 1.0)
    monkeypatch.setitem(channels._PROFILES["exact"], "v_chunk", 0.05)
    monkeypatch.setitem(channels._PROFILES["exact"], "v_gl", 40)
    refined = ch.psi_pout_prime(qs, 1.0)
    assert refined.tolist() != folded.tolist()
    np.testing.assert_allclose(folded, refined, rtol=1e-13, atol=0.0)


# -- noisy step channels near q = rho ------------------------------------------

def _log_z_pair(ch, y, omega, vp):
    logz = ch.log_zout(y, omega, vp)
    return logz, logz


def _gout_sq_pair(ch, y, omega, vp):
    logz, g = ch._log_zout_gout(y, omega, vp)
    return logz, g * g


def _label_average(ch, q, rho, v, f=_gout_sq_pair):
    """E over the label of the integrand of f, which returns (log Z_out,
    integrand), at omega = sqrt(q) v (gout^2 by default), for a step
    activation plus noise: piece k emits c_k + noise with the mass of its
    w interval."""
    d = rho - q
    omega = math.sqrt(q) * v
    gh = gauss_hermite(95)
    total = 0.0
    for a, b, c, _ in ch.pieces():
        lo, hi = (a - omega) / math.sqrt(d), (b - omega) / math.sqrt(d)
        mass = ndtr(-lo) - ndtr(-hi) if lo > 0.0 else ndtr(hi) - ndtr(lo)
        if mass > 0.0:
            vals = f(ch, c + math.sqrt(ch.delta) * gh.nodes, omega, d)[1]
            total += mass * np.dot(gh.weights, vals)
    return total


def _adaptive_v_average(ch, q, rho, f=_gout_sq_pair, tol=1e-11):
    """E over V of _label_average by adaptive Simpson, in units of the width
    w = sqrt((rho - q) / q) of the band in which omega leaves the side of z
    uncertain, split 12 widths either side of each threshold image."""
    w = math.sqrt((rho - q) / q)

    def g(t):
        return norm.pdf(w * t) * _label_average(ch, q, rho, w * t, f)

    images = [k / math.sqrt(q) / w for k in ch._x_kinks()]
    cuts = sorted([-9.0 / w, 9.0 / w] + [t + o for t in images for o in (-12.0, 12.0)])
    return w * sum(integrate_1d(g, lo, hi, tol=tol)
                   for lo, hi in zip(cuts[:-1], cuts[1:]))


def _adaptive_psi_prime(ch, q, rho):
    return _adaptive_v_average(ch, q, rho) / (2.0 * (rho - q))


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch,d", [(Sign(0.2), 1e-6), (Sign(0.2), 1e-12),
                                  (SymmetricDoor(delta=0.2), 1e-9)], ids=repr)
def test_noisy_step_psi_prime_matches_adaptive_integral(ch, d, profile):
    """Near q = rho the V integrand of a noisy step channel lives within
    sqrt((rho - q) / q) of each threshold image; the E_V panels once had
    nothing that narrow and gave 0.4x the value at d = 1e-6, and 0 below."""
    ref = _adaptive_psi_prime(ch, 1.0 - d, 1.0)
    with quad_profile(profile):
        got = ch.psi_pout_prime(1.0 - d, 1.0)
    assert got == pytest.approx(ref, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("ch", [Sign(0.2), SymmetricDoor(delta=0.2)], ids=repr)
def test_noisy_step_psi_at_the_recovery_clamp(ch):
    """recovery_f reads the exact psi_pout at q_hi = rho (1 - EVAL_DEPTH),
    where psi_pout' grows like 1 / sqrt(rho - q)."""
    from glmphase.replica import EVAL_DEPTH
    q = 1.0 - EVAL_DEPTH
    ref = _adaptive_v_average(ch, q, 1.0, _log_z_pair, tol=1e-10)
    assert ch.psi_pout(q, 1.0) == pytest.approx(ref, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch", [Sign(0.2), SymmetricDoor(delta=0.2)], ids=repr)
def test_noisy_step_psi_prime_diverges_like_inverse_sqrt(ch, profile):
    """psi_pout'(rho - d) sqrt(d) settles to a constant as d -> 0."""
    d = np.array([1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    with quad_profile(profile):
        scaled = ch.psi_pout_prime(1.0 - d, 1.0) * np.sqrt(d)
    np.testing.assert_allclose(scaled, scaled[-1], rtol=1e-3)
    assert scaled[-1] > 0.3


# -- the y rows of continuous channels ------------------------------------------

def _y_rows_average(ch, omega, vp, f):
    """E over y of the integrand of f at one E_V node, on the y rows; f
    returns (log Z_out, integrand)."""
    om, v = np.array([omega]), np.array([vp])
    total = 0.0
    for y, at, wy in ch._y_rows(om, v):
        logz, vals = f(ch, y, om[at], v[at])
        total += np.sum(np.where(logz > -np.inf, wy * vals, 0.0))
    return total


def _y_integral(ch, omega, vp, f, tol):
    """The integral over y of Z_out(y) times the integrand of f by adaptive
    Simpson, split at each piece's centre c + d omega (+- 2, 4, 10 of its
    spread) and at each kink image phi(e) (+- 1 ... 16 noise deviations)."""
    sd = math.sqrt(ch.delta)
    pts = set()
    for a, b, c, d in ch.pieces():
        s = math.sqrt(ch.delta + d * d * vp)
        pts.update(c + d * omega + k * s for k in (-10, -4, -2, 0, 2, 4, 10))
        for e in (a, b):
            if math.isfinite(e):
                pts.update(c + d * e + k * sd
                           for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16))
    cuts = sorted(pts)

    def g(y):
        logz, val = f(ch, np.array(y), omega, vp)
        return 0.0 if logz == -math.inf else math.exp(logz) * float(val)

    return sum(integrate_1d(g, lo, hi, tol=tol) for lo, hi in zip(cuts[:-1], cuts[1:]))


def test_noiseless_jump_matches_quadrature():
    """Abs with epsilon jumps from y = 0.05 to -0.05 at z = -0.05: the rows
    of the other piece break at that image, or psi_pout was 2.2e-5 off at
    q = 0 and the profiles disagreed by 1e-2 in psi_pout'."""
    ch = Abs(0.0, epsilon=0.05)

    def f(y):
        logz = ch.log_zout(np.array(y), 0.0, 1.0)
        return 0.0 if logz == -math.inf else math.exp(logz) * logz

    cuts = [-12.0, -0.05, 0.0, 0.05, 1.0, 12.0]
    ref = sum(quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
              for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert ch.psi_pout(0.0, 1.0) == pytest.approx(ref, rel=1e-13, abs=0.0)
    qs = np.array([0.3, 0.7])
    with quad_profile("fast"):
        fast = ch.psi_pout_prime(qs, 1.0)
    np.testing.assert_allclose(fast, ch.psi_pout_prime(qs, 1.0), rtol=1e-9)


Y_ROW_CASES = [(ReLU(0.3), 0.2), (ReLU(0.3), 1.0), (Abs(0.1), 1.0),
               (ReLU(1e-8), 0.2), (Abs(0.0), 1.0)]


@pytest.mark.parametrize("frac,f", [(0.3, _log_z_pair), (0.9, _gout_sq_pair),
                                    (1.0 - 1e-6, _log_z_pair)],
                         ids=["0.3-logz", "0.9-gout2", "1-1e-6-logz"])
@pytest.mark.parametrize("ch,rho", Y_ROW_CASES, ids=repr)
def test_y_rows_match_adaptive_integral_over_y(ch, rho, frac, f):
    """One E_V node (V = 0.9) of the exact profile: its y rows against an
    adaptive integral over y of Z_out times the integrand.  The nested
    w x noise rules they replace missed psi_pout' by up to 4.3e-8
    (ReLU(1e-8) at q/rho 0.3)."""
    q = frac * rho
    omega = math.sqrt(q) * 0.9
    with np.errstate(divide="ignore"):
        got = _y_rows_average(ch, omega, rho - q, f)
        ref = _y_integral(ch, omega, rho - q, f, tol=1e-13 * abs(got))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


# _piece_stats elements of one psi_pout' call under the nested w x noise
# rules that the y rows replaced (q = frac * rho)
NESTED_RULE_POINTS = [
    (ReLU(0.3), 0.2, "exact", 0.3, 1768960), (ReLU(0.3), 0.2, "exact", 0.9, 1375200),
    (ReLU(0.3), 1.0, "exact", 0.3, 1990080), (ReLU(0.3), 1.0, "exact", 0.9, 1485760),
    (Abs(0.1), 1.0, "exact", 0.3, 1827840), (Abs(0.1), 1.0, "exact", 0.9, 1260000),
    (ReLU(1e-8), 0.2, "exact", 0.9, 1752888),
    (Abs(0.0), 1.0, "exact", 0.3, 121856), (Abs(0.0), 1.0, "exact", 0.9, 91616),
    (Abs(0.0), 1.0, "exact", 1.0 - 1e-6, 82432),
    (Abs(0.0), 1.0, "fast", 0.3, 6400), (Abs(0.0), 1.0, "fast", 0.9, 8160),
    (Abs(0.0), 1.0, "fast", 1.0 - 1e-6, 8800),
]


@pytest.mark.parametrize("ch,rho,profile,frac,before", NESTED_RULE_POINTS)
def test_y_rows_take_fewer_kernel_points(ch, rho, profile, frac, before, monkeypatch):
    """Noisy channels take at least 3 times fewer evidence-kernel points
    than the nested rules did, and noiseless abs no more."""
    count = [0]
    kernel = _PiecewiseChannel._piece_stats

    def counted(self, y, omega, v, level):
        out = kernel(self, y, omega, v, level)
        count[0] += out[0][0].size
        return out

    monkeypatch.setattr(_PiecewiseChannel, "_piece_stats", counted)
    with quad_profile(profile):
        ch.psi_pout_prime(frac * rho, rho)
    assert count[0] * (1 if ch.delta == 0.0 else 3) <= before


# psi_pout at q/rho 0.3, 0.9, 1 and psi_pout' at 0.3, 0.9, 1 - 1e-6 (rho
# 1) of the discrete channels, as float.hex, from before the y rows: their
# label axis keeps every bit
DISCRETE_PINS = [
    (Sign(), "exact", ['-0x1.2c87e5acd7204p-1', '-0x1.d0fc3e597e7b5p-3', '0x0.0p+0'],
     ['0x1.957739cd8fabdp-2', '0x1.2071fd07fbdcbp+0', '0x1.6852d3d50eab8p+8']),
    (Sign(), "fast", ['-0x1.2c87e5acd73d2p-1', '-0x1.d0fc3e597e10fp-3', '0x0.0p+0'],
     ['0x1.957739cd8fd6ep-2', '0x1.2071fd07fb779p+0', '0x1.6852d3d50ece8p+8']),
    (SymmetricDoor(), "exact", ['-0x1.59a57cf8b8921p-1', '-0x1.6e8a9510d597fp-2', '0x0.0p+0'],
     ['0x1.09f1a511ded3ep-3', '0x1.a6fdacee32d55p+0', '0x1.1f03cea96818ap+9']),
    (SymmetricDoor(), "fast", ['-0x1.59a57cf8b8920p-1', '-0x1.6e8a9510d5804p-2', '0x0.0p+0'],
     ['0x1.09f1a511ded3fp-3', '0x1.a6fdacee301b9p+0', '0x1.1f03cea968349p+9']),
    (Sigmoid(2.0), "exact", ['-0x1.4507700b62ee6p-1', '-0x1.f700a80dacd15p-2', '-0x1.d918dafd9d6a1p-2'],
     ['0x1.a6a9dd86a3a5fp-3', '0x1.20b9c057553cap-2', '0x1.361ef8c0601e3p-2']),
    (Sigmoid(2.0), "fast", ['-0x1.4507700b62ee6p-1', '-0x1.f700a80dacd15p-2', '-0x1.d918dafd9d6a1p-2'],
     ['0x1.a6a9dd86a3a5fp-3', '0x1.20b9c057553cap-2', '0x1.361ef8c0601e3p-2']),
]


@pytest.mark.parametrize("ch,profile,psi,prime", DISCRETE_PINS)
def test_discrete_channels_keep_their_bits(ch, profile, psi, prime):
    with quad_profile(profile):
        got_psi = ch.psi_pout(np.array([0.3, 0.9, 1.0]), 1.0)
        got_prime = ch.psi_pout_prime(np.array([0.3, 0.9, 1.0 - 1e-6]), 1.0)
    assert [v.hex() for v in got_psi.tolist()] == psi
    assert [v.hex() for v in got_prime.tolist()] == prime


@pytest.mark.parametrize("profile", ["exact", "fast"])
@pytest.mark.parametrize("ch", [Sign(), SymmetricDoor(), Sigmoid(2.0)], ids=repr)
def test_label_q_block_keeps_the_bits(ch, profile, monkeypatch):
    """A discrete channel takes _LABEL_Q_BLOCK q per pass; each q's value
    is the same float at 4 q per pass."""
    q = np.concatenate([[0.0, 1e-12, 1e-9], np.linspace(0.01, 0.99, 30),
                        1.0 - np.geomspace(1e-3, 1e-12, 7)])
    with quad_profile(profile):
        wide = ch.psi_pout(q, 1.0), ch.psi_pout_prime(q, 1.0)
        monkeypatch.setattr(channels, "_LABEL_Q_BLOCK", 4)
        narrow = ch.psi_pout(q, 1.0), ch.psi_pout_prime(q, 1.0)
    np.testing.assert_array_equal(wide[0], narrow[0])
    np.testing.assert_array_equal(wide[1], narrow[1])


@pytest.mark.parametrize("ch,sizes", [(Sign(), [16, 16, 8]), (Sigmoid(2.0), [16, 16, 8]),
                                      (Abs(0.0), [4] * 10), (Sign(0.2), [4] * 10)],
                         ids=repr)
def test_q_per_pass(ch, sizes, monkeypatch):
    """The label axis takes 16 q per pass; continuous y rows keep 4, since
    16 raised the peak memory of a fast Abs(0) table build."""
    seen = []
    original = Channel._expect_rows

    def counted(self, q, rho, func):
        seen.append(q.size)
        return original(self, q, rho, func)

    monkeypatch.setattr(Channel, "_expect_rows", counted)
    with quad_profile("fast"):
        ch.psi_pout_prime(np.linspace(0.0, 0.9, 40), 1.0)
    assert seen == sizes
