import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from glmphase.priors import (R_CAP, GaussBernoulliPrior, GaussianPrior,
                             RademacherPrior, TwoPointPrior)

ALL_PRIORS = [
    GaussianPrior(1.0),
    GaussianPrior(0.5),
    RademacherPrior(0.5),
    RademacherPrior(0.7),
    GaussBernoulliPrior(0.2),
    GaussBernoulliPrior(0.5),
    TwoPointPrior(values=(0.5, -1.5), probabilities=(0.6, 0.4)),
]


class TestConstruction:
    def test_second_moments(self):
        assert GaussianPrior(0.7).second_moment == pytest.approx(0.7)
        assert RademacherPrior(0.3).second_moment == pytest.approx(1.0)
        assert GaussBernoulliPrior(0.2).second_moment == pytest.approx(0.2)
        tp = TwoPointPrior(values=(2.0, -1.0), probabilities=(0.25, 0.75))
        assert tp.second_moment == pytest.approx(0.25 * 4 + 0.75)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussBernoulliPrior(0.0)
        with pytest.raises(ValueError):
            GaussBernoulliPrior(1.2)
        with pytest.raises(ValueError):
            RademacherPrior(1.0)
        with pytest.raises(ValueError):
            TwoPointPrior(values=(1.0, 1.0), probabilities=(0.5, 0.5))
        # GaussianPrior(nan) and a NaN atom were accepted, with a NaN psi_p0
        for make in (lambda: GaussianPrior(math.nan), lambda: GaussianPrior(math.inf),
                     lambda: TwoPointPrior((1.0, math.nan), (0.5, 0.5)),
                     lambda: TwoPointPrior((math.inf, -1.0), (0.5, 0.5)),
                     lambda: TwoPointPrior((1.0, -1.0), (math.nan, 0.5)),
                     lambda: RademacherPrior(math.nan),
                     lambda: GaussBernoulliPrior(math.nan)):
            with pytest.raises(ValueError):
                make()


class TestSampling:
    def test_rademacher_support(self):
        x = RademacherPrior(0.5).sample(4, seed=0)
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_gauss_bernoulli_sparsity(self):
        prior = GaussBernoulliPrior(0.2)
        n = 20000
        x = prior.sample(n, seed=1)
        frac = np.mean(x != 0.0)
        sigma = math.sqrt(0.2 * 0.8 / n)
        assert abs(frac - 0.2) < 3 * sigma

    def test_gaussian_second_moment(self):
        n = 20000
        x = GaussianPrior(1.0).sample(n, seed=2)
        # Var of X^2 is 2 for the unit Gaussian
        assert abs(np.mean(x ** 2) - 1.0) < 3 * math.sqrt(2.0 / n)

    def test_deterministic_given_seed(self):
        for prior in ALL_PRIORS:
            a = prior.sample(50, seed=42)
            b = prior.sample(50, seed=42)
            assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            GaussianPrior().sample(0, seed=0)


class TestDenoise:
    def test_gaussian_conjugacy(self):
        prior = GaussianPrior(1.0)
        out = prior.denoise(2.0, 3.0)
        assert out.mean == pytest.approx(3.0 * 2.0 / 4.0)
        assert out.variance == pytest.approx(1.0 / 4.0)

    def test_rademacher_tanh(self):
        out = RademacherPrior(0.5).denoise(0.7, 2.0)
        assert out.mean == pytest.approx(math.tanh(1.4))
        assert out.variance == pytest.approx(1.0 - math.tanh(1.4) ** 2)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_lambda_zero_returns_prior_moments(self, prior):
        out = prior.denoise(12.3, 0.0)
        assert out.mean == pytest.approx(prior.mean, abs=1e-12)
        assert out.variance == pytest.approx(prior.variance, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            GaussianPrior().denoise(0.0, -1.0)

    def test_gauss_bernoulli_against_quadrature(self):
        prior = GaussBernoulliPrior(0.3)
        lam, R = 2.5, 0.8
        def w(x):
            return math.exp(-lam * (R - x) ** 2 / 2)
        gauss = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        z0 = 0.7 * w(0.0)
        z1 = 0.3 * quad(lambda x: gauss(x) * w(x), -12, 12)[0]
        m1 = 0.3 * quad(lambda x: x * gauss(x) * w(x), -12, 12)[0]
        m2 = 0.3 * quad(lambda x: x * x * gauss(x) * w(x), -12, 12)[0]
        mean = m1 / (z0 + z1)
        var = m2 / (z0 + z1) - mean ** 2
        out = prior.denoise(R, lam)
        assert out.mean == pytest.approx(mean, rel=1e-10)
        assert out.variance == pytest.approx(var, rel=1e-10)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    @given(R=st.floats(-6.0, 6.0), lam=st.floats(0.0, 50.0))
    def test_posterior_variance_nonnegative(self, prior, R, lam):
        out = prior.denoise(R, lam)
        assert out.variance >= 0.0

    def test_vectorized_matches_scalar(self):
        prior = GaussBernoulliPrior(0.4)
        Rs = np.linspace(-2, 2, 7)
        out = prior.denoise(Rs, 1.7)
        for i, R in enumerate(Rs):
            single = prior.denoise(float(R), 1.7)
            assert out.mean[i] == pytest.approx(single.mean)
            assert out.variance[i] == pytest.approx(single.variance)


class TestPsiP0:
    def test_zero_snr_is_zero(self):
        for prior in ALL_PRIORS:
            assert prior.psi_p0(0.0) == 0.0

    def test_gaussian_closed_form(self):
        prior = GaussianPrior(1.0)
        assert prior.psi_p0(1.0) == pytest.approx(0.5 - math.log(2.0) / 2.0,
                                                   abs=1e-12)

    def test_rademacher_lncosh_form(self):
        # psi(r) = E ln cosh(sqrt(r) Z + r) - r/2
        prior = RademacherPrior(0.5)
        r = 1.7
        f = lambda z: (math.log(math.cosh(math.sqrt(r) * z + r))
                       * math.exp(-z * z / 2) / math.sqrt(2 * math.pi))
        expected = quad(f, -12, 12)[0] - r / 2
        assert prior.psi_p0(r) == pytest.approx(expected, abs=1e-9)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            GaussianPrior().psi_p0(-0.1)

    @pytest.mark.parametrize("call", [
        lambda: RademacherPrior().psi_p0(math.nan),
        lambda: RademacherPrior().psi_p0_prime(math.nan),
        lambda: RademacherPrior().psi_p0_and_prime(math.nan),
        lambda: GaussianPrior().psi_p0(math.nan),
        lambda: GaussBernoulliPrior(0.3).psi_p0_prime(np.array([1.0, math.nan])),
    ])
    def test_nan_r_rejected(self, call):
        """A NaN r once came back as a NaN free entropy."""
        with pytest.raises(ValueError, match="nan"):
            call()

    def test_infinite_r_reads_as_r_cap(self):
        for prior in (RademacherPrior(), GaussianPrior()):
            assert prior.psi_p0(math.inf) == prior.psi_p0(R_CAP)
            assert prior.psi_p0_prime(math.inf) == prior.psi_p0_prime(R_CAP)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_convexity_on_grid(self, prior):
        rs = np.linspace(0.0, 8.0, 20)
        vals = np.array([prior.psi_p0(r) for r in rs])
        mids = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(mids >= vals[1:-1] - 1e-10)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_nondecreasing(self, prior):
        rs = np.linspace(0.0, 8.0, 20)
        vals = np.array([prior.psi_p0(r) for r in rs])
        assert np.all(np.diff(vals) >= -1e-12)


class TestPsiP0Prime:
    def test_zero_mean_prior_at_zero(self):
        for prior in (GaussianPrior(1.0), RademacherPrior(0.5),
                      GaussBernoulliPrior(0.3)):
            assert prior.psi_p0_prime(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_mmse(self):
        assert 2 * GaussianPrior(1.0).psi_p0_prime(3.0) == pytest.approx(0.75)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_saturates_at_second_moment(self, prior):
        assert 2 * prior.psi_p0_prime(1e6) == pytest.approx(
            prior.second_moment, abs=1e-4)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_matches_finite_differences(self, prior):
        for r in (0.1, 1.0, 10.0):
            h = 1e-4
            fd = (prior.psi_p0(r + h) - prior.psi_p0(r - h)) / (2 * h)
            an = prior.psi_p0_prime(r)
            assert abs(fd - an) <= 1e-5 * max(abs(an), 1e-12)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_bounds_and_monotonicity(self, prior):
        rs = [0.0, 0.5, 2.0, 20.0, 1e4]
        vals = [2 * prior.psi_p0_prime(r) for r in rs]
        lo = prior.mean ** 2
        for v in vals:
            assert lo - 1e-10 <= v <= prior.second_moment + 1e-10
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gauss_bernoulli_against_brute_force(self):
        # independent oracle: quadrature over the Y0 marginal
        prior = GaussBernoulliPrior(0.2)
        for r in (1.0, 10.0, 39.0):
            rs_ = prior.sparsity
            def integrand(y):
                f_spike = (1 - rs_) * math.exp(-y * y / 2) / math.sqrt(2 * math.pi)
                f_slab = rs_ * math.exp(-y * y / (2 * (1 + r))) / math.sqrt(
                    2 * math.pi * (1 + r))
                m, _ = prior.posterior_mean_var(math.sqrt(r) * y, r)
                return (f_spike + f_slab) * float(m) ** 2
            e_g2 = quad(integrand, -40, 40, epsabs=1e-13, limit=400)[0]
            assert 2 * prior.psi_p0_prime(r) == pytest.approx(e_g2, rel=1e-7)


BATCH_PRIORS = [
    GaussianPrior(1.0),
    RademacherPrior(0.5),
    RademacherPrior(0.3),
    TwoPointPrior(values=(0.5, -1.5), probabilities=(0.6, 0.4)),
    GaussBernoulliPrior(0.2),
    GaussBernoulliPrior(1.0),
]
# 0, eight decades up to the cap, and two values beyond it
BATCH_RS = np.array([0.0, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.7, 10.0, 1e3, 1e6, 1e8,
                     2e8, 1e12])


class TestBatchedPsi:
    """psi_p0 and psi_p0' on an array of r equal a loop of scalar calls."""

    @pytest.mark.parametrize("name", ["psi_p0", "psi_p0_prime"])
    @pytest.mark.parametrize("prior", BATCH_PRIORS)
    def test_array_matches_scalar_loop(self, prior, name):
        fn = getattr(prior, name)
        loop = np.array([fn(float(r)) for r in BATCH_RS])
        got = fn(BATCH_RS)
        assert isinstance(got, np.ndarray) and got.shape == BATCH_RS.shape
        np.testing.assert_allclose(got, loop, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("prior", BATCH_PRIORS)
    def test_shape_is_kept(self, prior):
        rs = BATCH_RS[1:9].reshape(2, 4)
        got = prior.psi_p0_prime(rs)
        assert got.shape == (2, 4)
        np.testing.assert_allclose(got.ravel(), prior.psi_p0_prime(rs.ravel()),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("prior", BATCH_PRIORS)
    def test_scalar_returns_float(self, prior):
        for r in (0.0, 1.3, np.float64(2.0), 5e8):
            assert type(prior.psi_p0(r)) is float
            assert type(prior.psi_p0_prime(r)) is float

    @pytest.mark.parametrize("prior", BATCH_PRIORS)
    def test_cap_and_zero(self, prior):
        got = prior.psi_p0_prime(np.array([0.0, 1e8, 3e8]))
        assert got[0] == 0.5 * prior.mean ** 2
        assert got[1] == got[2]

    def test_negative_r_in_array_rejected(self):
        with pytest.raises(ValueError):
            RademacherPrior().psi_p0_prime(np.array([1.0, -1e-3]))

    @pytest.mark.parametrize("prior", BATCH_PRIORS[1:])
    def test_batched_panels_equal_single_row_rules(self, prior):
        """Every row of the many-row panel rule the prior builds is the rule
        gauss_panels builds for that row alone, bit for bit."""
        from glmphase.numerics import gauss_panels
        r = BATCH_RS[1:11]
        if isinstance(prior, GaussBernoulliPrior):
            y, w = prior._spike_slab_flip(r)
            sd = np.sqrt(1.0 + r)
            feats = np.concatenate([np.stack([-y, y], 1),
                                    np.stack([-y / sd, y / sd], 1)])
            widths = np.concatenate([np.stack([w, w], 1),
                                     np.stack([w / sd, w / sd], 1)])
        else:
            flips, w = prior._flip_points(r)
            shift = np.sqrt(r)[:, None] * prior.atoms
            feats = (flips[:, None, :] - shift[:, :, None]).reshape(-1, flips.shape[1])
            widths = np.broadcast_to(w[:, None, :], (len(r), len(prior.atoms),
                                                     w.shape[1])).reshape(feats.shape)
        many = gauss_panels(feats, widths)
        for i in range(len(feats)):
            ok = ~np.isnan(feats[i])
            one = gauss_panels(tuple(feats[i][ok]), tuple(widths[i][ok]))
            assert np.array_equal(many.nodes[many.row == i], one.nodes)
            assert np.array_equal(many.weights[many.row == i], one.weights)


# psi_p0 and psi_p0' at r = 0.5, 3, 40, as float.hex, from before the
# integrand of psi_p0' took the posterior mean alone
PRIOR_PIN_RS = np.array([0.5, 3.0, 40.0])
PRIOR_PINS = [
    (RademacherPrior(),
     ['0x1.8e93f10b0eddfp-5', '0x1.d3ffc1e8f6146p-1', '0x1.34e8de809d8c0p+4'],
     ['0x1.668420dbe233bp-3', '0x1.c0596765e13b6p-2', '0x1.fffffffc979a1p-2']),
    (GaussBernoulliPrior(0.2),
     ['0x1.4bbf95436bf12p-9', '0x1.6c4475fab0769p-4', '0x1.acbace1eab3ecp+1'],
     ['0x1.53fb7f43e792ap-7', '0x1.b0209843d9510p-5', '0x1.884c7fbd630cbp-4']),
    (TwoPointPrior(values=(1.0, -0.5), probabilities=(0.4, 0.6)),
     ['0x1.2c0d2c03c7138p-6', '0x1.84701486d2de9p-2', '0x1.4a76b6b4dc3c0p+3'],
     ['0x1.07713f08f45e6p-4', '0x1.94b87cb290f16p-3', '0x1.19995d2ec88f6p-2']),
]


class TestOnePriorPass:
    """psi_p0_and_prime takes psi_p0 and psi_p0' from one panel rule per
    block of r; the mean-only integrand of psi_p0' keeps every bit."""

    @pytest.mark.parametrize("prior,psi,prime", PRIOR_PINS, ids=repr)
    def test_pinned_bits(self, prior, psi, prime):
        for got_psi, got_prime in ((prior.psi_p0(PRIOR_PIN_RS),
                                    prior.psi_p0_prime(PRIOR_PIN_RS)),
                                   prior.psi_p0_and_prime(PRIOR_PIN_RS)):
            assert [v.hex() for v in got_psi.tolist()] == psi
            assert [v.hex() for v in got_prime.tolist()] == prime

    @pytest.mark.parametrize("prior", BATCH_PRIORS + ALL_PRIORS + [
        TwoPointPrior(values=(1.0, -0.5), probabilities=(0.4, 0.6))], ids=repr)
    def test_fused_pass_equals_separate_calls(self, prior):
        psi, prime = prior.psi_p0_and_prime(BATCH_RS)
        assert np.array_equal(psi, prior.psi_p0(BATCH_RS))
        assert np.array_equal(prime, prior.psi_p0_prime(BATCH_RS))
        rs = BATCH_RS[1:9].reshape(2, 4)
        psi, prime = prior.psi_p0_and_prime(rs)
        assert psi.shape == prime.shape == (2, 4)
        assert np.array_equal(psi, prior.psi_p0(rs))
        for r in (0.0, 1.3, np.float64(2.0), 5e8):
            psi, prime = prior.psi_p0_and_prime(r)
            assert type(psi) is float and type(prime) is float
            assert (psi, prime) == (prior.psi_p0(r), prior.psi_p0_prime(r))

    @pytest.mark.parametrize("prior", BATCH_PRIORS[1:], ids=repr)
    def test_mean_only_equals_posterior_mean_var(self, prior):
        theta = np.linspace(-30.0, 30.0, 41)
        for lam in (0.0, 0.7, 40.0):
            mean, _ = prior.posterior_mean_var(theta, lam)
            assert np.array_equal(prior._posterior_mean(theta, lam), mean)


# The posterior moments, the denoiser, and psi_p0 / psi_p0' at r = 0 and
# R_CAP of every mixture prior, pinned in prior_pins.json from before the
# Y0 expectation and the posterior moments moved onto Prior: SHA-256
# digests of the arrays, float.hex of the scalars.  To rewrite the file
# after a deliberate change of the numbers, run this module as a script.
PRIOR_PIN_FILE = Path(__file__).with_name("prior_pins.json")
PIN_PRIORS = [RademacherPrior(), RademacherPrior(0.3),
              TwoPointPrior((1.0, -0.5), (0.4, 0.6)),
              GaussBernoulliPrior(0.2), GaussBernoulliPrior(1.0)]
PIN_THETAS = np.concatenate([[-0.0, 0.0], np.linspace(-40.0, 40.0, 401)])
PIN_LAMS = (0.0, 0.7, 40.0)
PIN_RS = np.array([0.0, R_CAP])


def _prior_surface(prior) -> dict:
    out = {}
    for lam in PIN_LAMS:
        mean, var = prior.posterior_mean_var(PIN_THETAS, lam)
        den = prior.denoise(PIN_THETAS, lam)
        for name, vals in (("mean", mean), ("var", var),
                           ("mean only", prior._posterior_mean(PIN_THETAS, lam)),
                           ("denoise.mean", den.mean), ("denoise.var", den.variance)):
            out[f"{name} {lam} sha256"] = hashlib.sha256(
                np.asarray(vals).tobytes()).hexdigest()
        out[f"denoise scalar {lam}"] = [
            v.hex() for theta in (-0.0, 1.3) for v in vars(prior.denoise(theta, lam)).values()]
    for name, vals in (("psi_p0", prior.psi_p0(PIN_RS)),
                       ("psi_p0'", prior.psi_p0_prime(PIN_RS)),
                       ("psi_p0 scalar", [prior.psi_p0(r) for r in PIN_RS.tolist()]),
                       ("psi_p0' scalar", [prior.psi_p0_prime(r) for r in PIN_RS.tolist()]),
                       ("fused", np.concatenate(prior.psi_p0_and_prime(PIN_RS)))):
        out[name] = [float(v).hex() for v in vals]
    return out


class TestPriorSurfacePins:
    @pytest.mark.parametrize("prior", PIN_PRIORS, ids=repr)
    def test_surface_keeps_its_bits(self, prior):
        assert _prior_surface(prior) == json.loads(PRIOR_PIN_FILE.read_text())[repr(prior)]

    def test_every_pinned_prior_is_tested(self):
        assert sorted(json.loads(PRIOR_PIN_FILE.read_text())) == sorted(map(repr, PIN_PRIORS))


if __name__ == "__main__":
    PRIOR_PIN_FILE.write_text(json.dumps(
        {repr(p): _prior_surface(p) for p in PIN_PRIORS}, indent=1) + "\n")
