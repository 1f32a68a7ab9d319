import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, logsumexp, ndtr
from scipy.stats import norm

from glmphase.channels import (Abs, GoutUnderflowError, LinearAWGN, ReLU,
                               Sigmoid, Sign, SymmetricDoor,
                               _PiecewiseChannel, _log_gauss_prob,
                               _trunc_moments, density, gout, psi_pout,
                               psi_pout_prime, quad_profile, sample_label,
                               stability_integral, zout)
from glmphase.numerics import integrate_1d

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

    def test_flags(self):
        assert Abs(0.0).is_even and SymmetricDoor().is_even
        assert not Sign().is_even and not LinearAWGN().is_even
        assert not ReLU(1e-8).is_even and not Sigmoid().is_even
        assert Sign().is_discrete and SymmetricDoor().is_discrete
        assert Sigmoid().is_discrete
        assert not Sign(0.1).is_discrete
        assert not Abs(0.0).is_discrete  # continuous labels even at delta=0

    def test_epsilon_shifts_door_threshold(self):
        ch = SymmetricDoor(K=0.67449).with_epsilon(1e-4)
        assert ch.phi(0.67449 + 5e-5) == -1.0
        assert SymmetricDoor(K=0.67449).phi(0.67449 + 5e-5) == 1.0


class TestSampleLabel:
    def test_identity_channel(self):
        assert sample_label(LinearAWGN(0.0), 1.3, seed=0) == 1.3

    def test_sign(self):
        assert sample_label(Sign(), -0.7, seed=0) == -1.0
        assert sample_label(Sign(), 0.0, seed=0) == 1.0  # tie convention

    def test_door_inside_is_minus_one(self):
        assert sample_label(SymmetricDoor(K=0.67449), 0.2, seed=0) == -1.0
        assert sample_label(SymmetricDoor(K=0.67449), 0.9, seed=0) == 1.0

    def test_sigmoid_statistics(self):
        ch = Sigmoid(2.0)
        z = 0.5
        ys = np.array([sample_label(ch, z, seed=s) for s in range(4000)])
        p = float(np.mean(ys == 1.0))
        target = 1.0 / (1.0 + math.exp(-2.0 * z))
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / 4000)

    def test_noise_added_after_activation(self):
        y = sample_label(Abs(0.25), -2.0, seed=5)
        rng = np.random.default_rng(5)
        assert y == pytest.approx(2.0 + 0.5 * rng.standard_normal())


class TestDensity:
    def test_linear_gaussian_peak(self):
        assert density(LinearAWGN(1.0), 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi))

    def test_sign_pmf(self):
        assert density(Sign(), 1.0, 0.5) == 1.0
        assert density(Sign(), 1.0, -0.5) == 0.0
        assert density(Sign(), 3.0, 0.5) == 0.0  # off-support label

    def test_abs_hand_value(self):
        # N(0 - |2|; 0, 1) = exp(-2)/sqrt(2 pi)
        assert density(Abs(1.0), 0.0, 2.0) == pytest.approx(
            0.05399096651318806, abs=1e-12)

    def test_noiseless_continuous_rejected(self):
        with pytest.raises(ValueError):
            density(LinearAWGN(0.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            density(Abs(0.0), 1.0, 1.0)

    @pytest.mark.parametrize("ch", [c for c in RHO1_CHANNELS
                                    if c.is_discrete or c.delta > 0])
    def test_normalization_in_y(self, ch):
        for z in (-1.3, 0.0, 0.8):
            if ch.is_discrete:
                total = sum(density(ch, y, z) for y in ch.labels)
            else:
                center = float(ch.mean_label(z))  # phi(z) for deterministic
                half = 12 * math.sqrt(ch.delta)
                total = integrate_1d(lambda y: density(ch, y, z),
                                     center - half, center + half, tol=1e-12)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestZout:
    def test_v_zero_reduces_to_density(self):
        for ch in (LinearAWGN(0.5), Sign(), SymmetricDoor(), Sigmoid(1.5)):
            y = 1.0
            assert zout(ch, y, 0.3, 0.0) == pytest.approx(
                density(ch, y, 0.3), abs=1e-14)

    def test_v_continuity_near_zero(self):
        for ch in (LinearAWGN(0.5), Sign(), Sigmoid(1.5)):
            val = zout(ch, 1.0, 0.3, 1e-8)
            assert val == pytest.approx(density(ch, 1.0, 0.3), abs=1e-6)

    def test_linear_gaussian_convolution(self):
        ch = LinearAWGN(0.7)
        y, om, v = 0.4, -0.2, 0.5
        assert zout(ch, y, om, v) == pytest.approx(
            norm.pdf(y, loc=om, scale=math.sqrt(0.7 + v)), rel=1e-12)

    def test_sign_gaussian_tail(self):
        assert zout(Sign(), 1.0, 0.3, 0.25) == pytest.approx(ndtr(0.6), rel=1e-12)
        assert zout(Sign(), -1.0, 0.3, 0.25) == pytest.approx(ndtr(-0.6), rel=1e-12)

    @pytest.mark.parametrize("ch", [Abs(0.3), ReLU(1e-4), SymmetricDoor()])
    def test_against_w_quadrature(self, ch):
        om, v = 0.4, 0.6
        ys = ch.labels if ch.is_discrete else (0.05, 0.8, 2.0)
        for y in ys:
            pts = sorted({min(max((y - om) / math.sqrt(v), -10), 10),
                          min(max(-om / math.sqrt(v), -10), 10)})
            ref = quad(lambda w: norm.pdf(w) * density(ch, y, om + math.sqrt(v) * w),
                       -10, 10, limit=400, points=pts)[0]
            assert zout(ch, y, om, v) == pytest.approx(ref, rel=1e-6)

    def test_noiseless_abs_two_root_formula(self):
        # zout = [N(y; om, v) + N(y; -om, v)] for y > 0 (unit slopes)
        ch = Abs(0.0)
        y, om, v = 0.8, 0.4, 0.6
        expected = norm.pdf(y, om, math.sqrt(v)) + norm.pdf(y, -om, math.sqrt(v))
        assert zout(ch, y, om, v) == pytest.approx(expected, rel=1e-12)

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


class TestGout:
    def test_even_channel_symmetric_point(self):
        for ch in (Abs(0.0), Abs(0.1), SymmetricDoor()):
            for y in (0.3, 1.0) if not ch.is_discrete else ch.labels:
                assert gout(ch, y, 0.0, 0.7).gout == pytest.approx(0.0, abs=1e-13)

    def test_linear_closed_form(self):
        ch = LinearAWGN(1.0)
        y, om, v = 1.0, 0.2, 0.5
        expected = math.sqrt(v) * (y - om) / (1.0 + v)
        assert gout(ch, y, om, v).gout == pytest.approx(expected, rel=1e-12)

    def test_sign_inverse_mills(self):
        om, v = 0.3, 0.25
        t = om / math.sqrt(v)
        expected = norm.pdf(t) / ndtr(t)
        assert gout(Sign(), 1.0, om, v).gout == pytest.approx(expected, rel=1e-10)

    def test_matches_tilted_quadrature(self):
        for ch, y in ((SymmetricDoor(), -1.0), (Sigmoid(2.0), 1.0), (Abs(0.2), 0.7)):
            om, v = 0.5, 0.4
            sq = math.sqrt(v)
            num = quad(lambda w: w * norm.pdf(w) * density(ch, y, om + sq * w),
                       -10, 10, limit=400)[0]
            den = quad(lambda w: norm.pdf(w) * density(ch, y, om + sq * w),
                       -10, 10, limit=400)[0]
            res = gout(ch, y, om, v)
            assert res.gout == pytest.approx(num / den, rel=1e-6)
            assert res.zout == pytest.approx(den, rel=1e-6)

    def test_vout_is_posterior_variance(self):
        ch, y, om, v = SymmetricDoor(), 1.0, 0.5, 0.4
        sq = math.sqrt(v)
        den = quad(lambda w: norm.pdf(w) * density(ch, y, om + sq * w), -10, 10)[0]
        m1 = quad(lambda w: w * norm.pdf(w) * density(ch, y, om + sq * w), -10, 10)[0] / den
        m2 = quad(lambda w: w * w * norm.pdf(w) * density(ch, y, om + sq * w), -10, 10)[0] / den
        assert gout(ch, y, om, v).vout == pytest.approx(m2 - m1 * m1, rel=1e-6)

    def test_underflow_error_mentions_remedies(self):
        with pytest.raises(GoutUnderflowError, match="damping"):
            gout(Sign(), 3.0, 0.0, 1.0)  # off-support label: zero evidence

    def test_requires_positive_v(self):
        with pytest.raises(ValueError):
            gout(Sign(), 1.0, 0.0, 0.0)


class TestPsiPout:
    def test_sign_symmetric_point(self):
        assert psi_pout(Sign(), 0.0, 1.0) == pytest.approx(-math.log(2.0),
                                                           abs=1e-12)

    def test_sign_recovery_limit(self):
        assert abs(psi_pout(Sign(), 1.0 - 1e-9, 1.0)) < 1e-3

    def test_linear_differential_entropy(self):
        val = psi_pout(LinearAWGN(1.0), 0.0, 1.0)
        assert val == pytest.approx(-0.5 * math.log(4 * math.pi * math.e),
                                    abs=1e-12)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            psi_pout(Sign(), -0.1, 1.0)
        with pytest.raises(ValueError):
            psi_pout(Sign(), 1.1, 1.0)

    @pytest.mark.parametrize("ch", RHO1_CHANNELS)
    def test_convex_and_nondecreasing(self, ch):
        qs = np.linspace(0.0, 0.999, 20)
        vals = np.array([psi_pout(ch, q, 1.0) for q in qs])
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
            assert psi_pout_prime(ch, 0.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_linear_closed_form(self):
        assert psi_pout_prime(LinearAWGN(1.0), 0.0, 1.0) == pytest.approx(0.25)
        generic = _PiecewiseChannel.psi_pout_prime(LinearAWGN(1.0), 0.0, 1.0)
        assert generic == pytest.approx(0.25, abs=1e-12)

    def test_rejects_q_equal_rho(self):
        with pytest.raises(ValueError):
            psi_pout_prime(Sign(), 1.0, 1.0)

    @pytest.mark.parametrize("ch", RHO1_CHANNELS + [ReLU(1e-8)])
    def test_matches_finite_differences(self, ch):
        rho = 0.2 if isinstance(ch, ReLU) else 1.0
        for qf in (0.1, 0.5, 0.9):
            q, h = qf * rho, 1e-4 * rho
            fd = (psi_pout(ch, q + h, rho) - psi_pout(ch, q - h, rho)) / (2 * h)
            an = psi_pout_prime(ch, q, rho)
            assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-12)

    def test_noiseless_blowup_near_recovery(self):
        # exact-recovery criterion: psi' grows without bound as q -> rho
        for ch in (Sign(), SymmetricDoor(), Abs(0.0)):
            assert psi_pout_prime(ch, 1.0 - 1e-8, 1.0) > 1e3
        shallow = [psi_pout_prime(ch, 1.0 - 1e-4, 1.0)
                   for ch in (Sign(), SymmetricDoor(), Abs(0.0))]
        deep = [psi_pout_prime(ch, 1.0 - 1e-8, 1.0)
                for ch in (Sign(), SymmetricDoor(), Abs(0.0))]
        assert all(d > 10 * s for s, d in zip(shallow, deep))


class TestStability:
    def test_abs_is_two(self):
        assert stability_integral(Abs(0.0), 1.0) == pytest.approx(2.0, abs=2e-3)
        assert stability_integral(Abs(1e-8), 1.0) == pytest.approx(2.0, abs=2e-3)

    def test_door_closed_form(self):
        # A(+-1) = +-2 K pdf(K), B(+-1) = 1/2 at the balanced K
        k = 0.67449
        a = 2 * k * norm.pdf(k)
        expected = 2 * a * a / 0.5
        assert stability_integral(SymmetricDoor(), 1.0) == pytest.approx(
            expected, rel=1e-10)

    def test_non_even_rejected(self):
        for ch in (Sign(), LinearAWGN(0.5), Sigmoid()):
            with pytest.raises(ValueError):
                stability_integral(ch, 1.0)

    def test_door_k_to_zero_trend(self):
        # labels become uninformative: integral -> 0, alpha_c -> infinity
        vals = [stability_integral(SymmetricDoor(K=k), 1.0)
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
        for ch in (Sign(), Abs(0.0), ReLU(1e-6), SymmetricDoor(), Sigmoid(1.5)):
            mu, var = 0.4, 0.6
            ref = quad(lambda w: norm.pdf(w) * float(ch.mean_label(mu + math.sqrt(var) * w)),
                       -10, 10, limit=200)[0]
            assert ch.mean_label_gauss(mu, var) == pytest.approx(ref, abs=1e-7)

    def test_sign_erf_identity(self):
        mu, var = 0.7, 0.3
        assert Sign().mean_label_gauss(mu, var) == pytest.approx(
            erf(mu / math.sqrt(2 * var)), rel=1e-12)

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
    logw, mean, var = ch._piece_stats(y, omega, v)
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
        for arr in ch._piece_stats(y, omega, self.V):
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
            logw, mean, var = ch._piece_stats(np.asarray(y), 0.0, rho)
            log_den = logsumexp(logw, axis=0)
            log_num, sign = logsumexp(logw, b=var + mean ** 2 - 1.0, axis=0,
                                      return_sign=True)
            if log_den < math.log(1e-300):
                return 0.0
            return float(np.exp(2.0 * log_num - log_den))

        if ch.is_discrete:
            ref = sum(ratio(lab) for lab in ch.labels)
        else:
            lo, hi = ch._phi_range(rho)
            pad = 10.0 * math.sqrt(ch.delta) + 1e-6
            ref = integrate_1d(ratio, lo - pad, hi + pad, tol=1e-9)
        assert stability_integral(ch, rho) == pytest.approx(ref, rel=1e-12)


class TestFarTails:
    """The kernel works on the standardized w = (x - omega) / sqrt(V), so
    omega far beyond sqrt(V) neither cancels nor overflows."""

    @pytest.mark.parametrize("omega", [1e8, 1e100])
    def test_right_label_far_out_is_unit_gaussian(self, omega):
        # x = omega + w is positive for every w that matters: w ~ N(0, 1)
        res = gout(Sign(), 1.0, omega, 1.0)
        assert (res.gout, res.vout, res.log_zout) == (0.0, 1.0, 0.0)

    def test_abs_far_out(self):
        # y = |x| = omega leaves w = 0 (the other root, w = -2 omega, has no
        # Gaussian weight)
        res = gout(Abs(), 1e155, 1e155, 1.0)
        assert (res.gout, res.vout) == (0.0, 0.0)
        assert res.zout == pytest.approx(norm.pdf(0.0), rel=1e-15)

    def test_wrong_label_far_out_sits_at_the_threshold(self):
        res = gout(Sign(), -1.0, 1e100, 1.0)
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
        _, right, right_var = _trunc_moments(x, math.inf)
        _, left, left_var = _trunc_moments(-math.inf, -x)
        assert right == pytest.approx(mean, rel=1e-13)
        assert left == pytest.approx(-mean, rel=1e-13)
        # the variance cancels in this tail: it keeps absolute accuracy only
        assert right_var == left_var == pytest.approx(var, abs=2e-8)

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
                            res = gout(ch, y, omega, v)
                        except GoutUnderflowError:
                            continue
                        vals = (res.gout, res.vout, res.log_zout)
                        assert np.all(np.isfinite(vals)), (ch, y, omega, v, vals)


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
