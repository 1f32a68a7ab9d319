import importlib.util
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.interpolate import CubicSpline
from scipy.special import expit as scipy_expit
from scipy.special import log_expit as scipy_log_expit
from scipy.special import logsumexp as scipy_logsumexp

from glmphase import numerics
from glmphase.numerics import (_LOG_SQRT_2PI, BracketError, FixedPointOptions,
                               _leggauss_unit, cubic_spline, erfcx, expit,
                               find_root, gauss_hermite, log_expit,
                               gauss_panels, logsumexp)
from glmphase.state_evolution import CHANNEL_TABLE_LOGITS, PRIOR_TABLE_NODES

from adaptive_simpson import NonFiniteIntegrandError, integrate_1d

GAUSSIAN_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0,
                    6: 15.0, 7: 0.0, 8: 105.0, 9: 0.0, 10: 945.0}


class TestGaussHermite:
    def test_order_one_is_the_mean(self):
        rule = gauss_hermite(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([1.0])

    def test_order_two_matches_second_moment(self):
        rule = gauss_hermite(2)
        assert sorted(rule.nodes) == pytest.approx([-1.0, 1.0])
        assert rule.weights == pytest.approx([0.5, 0.5])

    def test_fourth_moment(self):
        rule = gauss_hermite(5)
        assert rule.expect(lambda z: z ** 4) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)

    def test_rule_is_built_once_per_order(self):
        assert gauss_hermite(7) is gauss_hermite(7)

    def test_weights_sum_to_one(self):
        for order in (1, 2, 7, 99):
            rule = gauss_hermite(order)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_normalization(self):
        for order in (2, 10, 99):
            rule = gauss_hermite(order)
            assert rule.expect(lambda z: z * z) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("order", [3, 6, 99])
    def test_exact_monomials_up_to_degree(self, order):
        rule = gauss_hermite(order)
        for k in range(0, min(2 * order - 1, 10) + 1):
            assert rule.expect(lambda z: z ** k) == pytest.approx(
                GAUSSIAN_MOMENTS[k], abs=1e-10 * max(1.0, GAUSSIAN_MOMENTS[k]))


class TestGaussPanels:
    def test_plain_panels_normalize(self):
        rule = gauss_panels()
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert rule.expect(lambda z: z * z) == pytest.approx(1.0, abs=1e-10)

    def test_resolves_narrow_feature(self):
        # indicator of a width-1e-4 window: mass = width * pdf
        c, w = 0.7, 1e-4
        rule = gauss_panels((c,), (w,))
        est = rule.expect(lambda z: ((z > c - w) & (z < c + w)).astype(float))
        exact = 2 * w * math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        assert est == pytest.approx(exact, rel=1e-6)


def _one_row_reference(features, widths, half_range=9.0, chunk=0.6, order=16):
    """The single-row panel rule written out with sets and np.linspace."""
    pts = {-half_range, half_range}
    for f, s in zip(features, widths):
        for k in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0):
            p = f + k * s
            if -half_range < p < half_range:
                pts.add(p)
    spts = sorted(pts)
    edges = []
    for lo, hi in zip(spts[:-1], spts[1:]):
        n_chunks = max(1, int(np.ceil((hi - lo) / chunk)))
        edges.extend(np.linspace(lo, hi, n_chunks + 1)[:-1])
    edges.append(spts[-1])
    x, w = _leggauss_unit(order)
    e = np.asarray(edges)
    width = np.diff(e)[:, None]
    nodes = (e[:-1][:, None] + width * x[None, :]).ravel()
    weights = (width * w[None, :]).ravel()
    return nodes, weights * np.exp(-0.5 * nodes * nodes - _LOG_SQRT_2PI)


class TestGaussPanelsRows:
    """gauss_panels over many rows at once, NaN marking a missing feature."""

    @staticmethod
    def _rows(count=300, F=3, seed=0):
        rng = np.random.default_rng(seed)
        feats = rng.uniform(-12, 12, (count, F)) * rng.choice([1.0, 1e-3, 1e-9], (count, F))
        widths = 10.0 ** rng.uniform(-10, 1, (count, F))
        feats[::7, :2] = [0.0, -0.0]           # coinciding break points
        widths[::7, 1] = widths[::7, 0]
        used = rng.integers(0, F + 1, count)
        missing = np.arange(F) >= used[:, None]
        feats[missing] = widths[missing] = np.nan
        return feats, widths

    def test_rows_match_reference_bit_for_bit(self):
        feats, widths = self._rows()
        many = gauss_panels(feats, widths)
        for i in range(len(feats)):
            ok = ~np.isnan(feats[i])
            ref_nodes, ref_weights = _one_row_reference(feats[i][ok], widths[i][ok])
            assert np.array_equal(many.nodes[many.row == i], ref_nodes)
            assert np.array_equal(many.weights[many.row == i], ref_weights)
            one = gauss_panels(tuple(feats[i][ok]), tuple(widths[i][ok]))
            assert np.array_equal(one.nodes, ref_nodes)
            assert np.array_equal(one.weights, ref_weights)

    def test_other_rule_parameters(self):
        feats, widths = self._rows(40, 2, seed=3)
        many = gauss_panels(feats, widths, chunk=0.25, order=7,
                            bounds=(np.full(len(feats), -6.0), np.full(len(feats), 6.0)))
        for i in range(len(feats)):
            ok = ~np.isnan(feats[i])
            ref_nodes, ref_weights = _one_row_reference(
                feats[i][ok], widths[i][ok], 6.0, 0.25, 7)
            assert np.array_equal(many.nodes[many.row == i], ref_nodes)
            assert np.array_equal(many.weights[many.row == i], ref_weights)

    def test_bounds_per_row(self):
        """Row i integrates over (lo_i, hi_i) only, refined at the features
        inside; a row with lo = hi has no node."""
        from scipy.special import ndtr
        lo = np.array([-9.0, -1.5, 0.3, 2.0, -20.0])
        hi = np.array([9.0, 0.7, 0.3, 8.5, 20.0])
        feats = np.array([[0.1], [0.2], [0.3], [np.nan], [1.0]])
        widths = np.array([[0.01], [1e-4], [0.0], [np.nan], [0.5]])
        rule = gauss_panels(feats, widths, bounds=(lo, hi))
        assert np.all((rule.nodes > lo[rule.row]) & (rule.nodes < hi[rule.row]))
        assert 2 not in rule.row
        # the mass of (lo, hi) and its second moment, x phi(x) at the ends
        mass = ndtr(hi) - ndtr(lo)
        edge = np.exp(-0.5 * hi * hi) * hi - np.exp(-0.5 * lo * lo) * lo
        second = mass - edge / math.sqrt(2.0 * math.pi)
        for f, ref in ((np.ones_like, mass), (np.square, second)):
            got = np.bincount(rule.row, weights=rule.weights * f(rule.nodes), minlength=5)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-16)

    def test_single_row_has_no_row_index(self):
        assert gauss_panels((0.3,), (0.1,)).row is None
        rule = gauss_panels(np.full((3, 2), np.nan), np.full((3, 2), np.nan))
        assert np.array_equal(np.bincount(rule.row), [len(gauss_panels().nodes)] * 3)


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_scipy(self, axis):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=30.0, size=(4, 6, 5))
        x[1, 2, :] = -np.inf              # an all -inf slice along every axis
        x[:, 3, 1] = -np.inf
        x[2, :, 4] = -np.inf
        x[0, 0, 0] = 700.0                # exp overflows without the shift
        with np.errstate(divide="ignore"):
            ref = scipy_logsumexp(x, axis=axis)
        got = logsumexp(x, axis=axis)
        assert got.shape == ref.shape
        finite = np.isfinite(ref)
        assert np.array_equal(got[~finite], ref[~finite])
        np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-14, atol=1e-14)

    def test_all_minus_inf(self):
        assert logsumexp(np.full(3, -np.inf)) == -np.inf
        assert np.array_equal(logsumexp(np.full((2, 3), -np.inf), axis=-1),
                              [-np.inf, -np.inf])


class TestCubicSpline:
    """cubic_spline against scipy's not-a-knot CubicSpline on the node sets
    of the state-evolution tables."""

    @pytest.mark.parametrize("nodes", [PRIOR_TABLE_NODES, CHANNEL_TABLE_LOGITS],
                             ids=["prior", "channel"])
    @pytest.mark.parametrize("shape", [
        lambda x: np.tanh(x / 3.0) + 0.1 * np.sin(x),
        lambda x: np.exp(-0.1 * x) * np.cos(x) + 2.0,
        lambda x: 1e3 * np.log1p(np.exp(x / 4.0)),
    ])
    def test_matches_scipy(self, nodes, shape):
        y = shape(nodes)
        ref = CubicSpline(nodes, y)
        got = cubic_spline(nodes, y)
        rng = np.random.default_rng(9)
        x = np.concatenate([nodes, nodes[[0, -1]],
                            rng.uniform(nodes[0], nodes[-1], 10_000)])
        vals = np.array([got(float(v)) for v in x])
        assert type(got(float(x[-1]))) is float
        bound = 1e-13 * np.max(np.abs(y))
        assert np.max(np.abs(vals - ref(x))) <= bound
        # the spline passes through its nodes
        assert np.max(np.abs(vals[:nodes.size] - y)) <= bound

    def test_reproduces_cubics(self):
        # a not-a-knot spline is exact on a cubic
        x = np.sort(np.random.default_rng(3).uniform(-2.0, 3.0, 12))
        cubic = lambda v: 0.5 * v ** 3 - v ** 2 + 2.0 * v - 1.0
        spline = cubic_spline(x, cubic(x))
        for v in np.linspace(-2.5, 3.5, 41):
            assert spline(float(v)) == pytest.approx(cubic(v), abs=1e-11)

    @pytest.mark.parametrize("x,y", [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]),          # too few nodes
        ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 4.0]),  # repeated node
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0]),     # length mismatch
    ])
    def test_rejects_bad_nodes(self, x, y):
        with pytest.raises(ValueError):
            cubic_spline(x, y)


class TestFindRoot:
    def test_roots_and_batch_invariance(self):
        targets = np.array([-0.9, -0.3, 0.0, 0.2, 0.7, 0.99])
        roots = find_root(np.tanh, -3.0, 3.0, targets, xatol=1e-14, xrtol=1e-15)
        np.testing.assert_allclose(roots, np.arctanh(targets), rtol=0.0,
                                   atol=1e-13)
        alone = [find_root(np.tanh, -3.0, 3.0, [t], 1e-14, 1e-15)[0]
                 for t in targets]
        assert np.array_equal(roots, alone)

    def test_one_call_per_step_on_open_elements(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x ** 3

        find_root(f, 0.0, 2.0, [1e-3, 0.5, 7.9], xatol=1e-12, xrtol=1e-12)
        assert sizes[0] == 2          # f at the bracket ends
        assert sizes[1] == 3
        assert all(a >= b for a, b in zip(sizes[1:], sizes[2:]))

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(np.tanh, 0.1, 3.0, [0.5, -0.5], xatol=1e-12, xrtol=0.0)

    def test_unconverged_elements_are_nan(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ROOT_MAXITER", 3)
        roots = find_root(np.tanh, -3.0, 3.0, [0.25, 0.0], xatol=0.0, xrtol=0.0)
        assert np.isnan(roots[0])
        assert roots[1] == 0.0        # f - target vanishes at the first step


class TestFindRootBrackets:
    """find_root with one bracket per element, as gamma_branches solves its
    crossings; the closed-form oracles are the ones the bisection of those
    crossings was tested against."""

    @staticmethod
    def _root(f, lo, hi, xatol):
        return float(find_root(f, np.array([lo]), np.array([hi]), 0.0,
                               xatol=xatol, xrtol=0.0)[0])

    def test_linear_root(self):
        assert self._root(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == pytest.approx(2.0)

    def test_sqrt_two(self):
        root = self._root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-10)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_atanh_half(self):
        root = self._root(lambda x: np.tanh(x) - 0.5, 0.0, 3.0, 1e-12)
        assert root == pytest.approx(math.atanh(0.5), abs=1e-10)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_finds_planted_root(self, root):
        got = self._root(lambda x: x - root, -4.0, 4.0, 1e-12)
        assert got == pytest.approx(root, abs=1e-10)

    # roots 0, pi, -pi and 2 pi in brackets of different widths
    SIN_LO = np.array([-1.0, 3.0, -3.5, 6.0])
    SIN_HI = np.array([0.5, 3.5, -2.9, 7.0])

    def test_sin_roots(self):
        roots = find_root(np.sin, self.SIN_LO, self.SIN_HI, 0.0, xatol=1e-12,
                          xrtol=0.0)
        np.testing.assert_allclose(roots, [0.0, math.pi, -math.pi, 2 * math.pi],
                                   rtol=0.0, atol=1e-12)

    def test_batch_equals_separate_calls(self):
        roots = find_root(np.sin, self.SIN_LO, self.SIN_HI, 0.0, xatol=1e-12,
                          xrtol=0.0)
        alone = [find_root(np.sin, self.SIN_LO[k:k + 1], self.SIN_HI[k:k + 1],
                           0.0, xatol=1e-12, xrtol=0.0)[0] for k in range(4)]
        assert roots.tolist() == alone
        # targets and brackets broadcast together
        shifted = find_root(lambda x: np.sin(x) + 0.5, self.SIN_LO, self.SIN_HI,
                            np.full(4, 0.5), xatol=1e-12, xrtol=0.0)
        np.testing.assert_allclose(shifted, roots, rtol=0.0, atol=1e-12)

    def test_roots_hit_exactly_by_a_step(self):
        # the first step is the midpoint: 0.25 of [0, 0.5], -0.5 of [-1, 0]
        sizes = []

        def f(x):
            sizes.append(x.size)
            return (x - 0.25) * (x + 0.5)

        roots = find_root(f, np.array([0.0, -1.0]), np.array([0.5, 0.0]), 0.0,
                          xatol=1e-12, xrtol=0.0)
        assert roots.tolist() == [0.25, -0.5]
        assert sizes == [4, 2]

    def test_one_call_per_step_on_open_elements(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return (x - 0.25) * (x + 0.5)

        # the first bracket closes on its first step, the second does not
        lo, hi = np.array([0.0, -1.3]), np.array([0.5, 0.0])
        roots = find_root(f, lo, hi, 0.0, xatol=1e-12, xrtol=0.0)
        assert roots[0] == 0.25 and roots[1] == pytest.approx(-0.5, abs=1e-12)
        assert calls[0].tolist() == [0.0, -1.3, 0.5, 0.0]
        assert calls[1].size == 2 and len(calls) > 3
        assert all(x.size == 1 and -1.3 < x[0] < 0.0 for x in calls[2:])

    def test_known_end_values_skip_the_first_call(self):
        """f values the caller already has at the bracket ends (as
        gamma_branches has from its grid) replace the first call; the
        roots keep their bits."""
        def f(x):
            calls.append(x.copy())
            return np.sin(x)

        calls = []
        ref = find_root(f, self.SIN_LO, self.SIN_HI, 0.0, xatol=1e-12, xrtol=0.0)
        first = len(calls)
        calls.clear()
        got = find_root(f, self.SIN_LO, self.SIN_HI, 0.0, xatol=1e-12, xrtol=0.0,
                        f_ends=(np.sin(self.SIN_LO), np.sin(self.SIN_HI)))
        assert got.tolist() == ref.tolist()
        assert len(calls) == first - 1 and calls[0].size == 4

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(BracketError, match=r"\[3\.5, 4\.0\]"):
            find_root(np.sin, np.array([3.0, 3.5]), np.array([3.5, 4.0]), 0.0,
                      xatol=1e-12, xrtol=0.0)


class TestIntegrate1d:
    def test_linear(self):
        assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)

    def test_gaussian_normalization(self):
        f = lambda y: math.exp(-y * y / 2) / math.sqrt(2 * math.pi)
        assert integrate_1d(f, -8.0, 8.0, tol=1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_sine(self):
        assert integrate_1d(math.sin, 0.0, math.pi, tol=1e-10) == pytest.approx(
            2.0, abs=1e-9)

    def test_nonfinite_integrand_reports_abscissa(self):
        def f(x):
            return math.inf if x > 0.5 else 1.0
        with pytest.raises(NonFiniteIntegrandError) as exc:
            integrate_1d(f, 0.0, 1.0)
        assert exc.value.x > 0.5

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_halving_tol_bounded_work_and_error(self):
        # smooth integrand: halving tol at most doubles evaluations and the
        # reported error does not increase
        exact = 2.0
        prev_err, prev_count = None, None
        for tol in (1e-6, 5e-7, 2.5e-7):
            count = 0
            def f(x):
                nonlocal count
                count += 1
                return math.sin(x)
            err = abs(integrate_1d(f, 0.0, math.pi, tol=tol) - exact)
            if prev_err is not None:
                assert count <= 2.05 * prev_count + 8
                assert err <= prev_err + 1e-15
            prev_err, prev_count = err, count


class TestFixedPointOptions:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            FixedPointOptions(damping=1.0)
        with pytest.raises(ValueError):
            FixedPointOptions(tol=0.0)
        with pytest.raises(ValueError):
            FixedPointOptions(max_iter=0)
        # tol = nan was accepted
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                FixedPointOptions(tol=tol)


# -- erfcx, expit and log_expit ----------------------------------------------

TABLE_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "erfcx_table.py"


def _table_script():
    spec = importlib.util.spec_from_file_location("erfcx_table", TABLE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mp_erfcx(x):
    """erfc(x) exp(x^2) in mpmath.  mpmath's erfc gives up near x = 1e160;
    from x = 1e8 on, the first two terms of the asymptotic series leave a
    remainder below 1e-32 relative."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        if x < 1e8:
            return float(mpmath.erfc(x) * mpmath.exp(x * x))
        return float((1 - 1 / (2 * x * x)) / (x * mpmath.sqrt(mpmath.pi)))


class TestErfcx:
    def _check(self, x):
        ref = np.array([_mp_erfcx(v) for v in x])
        np.testing.assert_allclose(erfcx(x), ref, rtol=2e-15, atol=0.0)

    def test_random_points_against_mpmath(self):
        rng = np.random.default_rng(11)
        self._check(np.concatenate([rng.uniform(0.0, 60.0, 400),
                                    10.0 ** rng.uniform(-12.0, 300.0, 400)]))

    def test_bin_edges_and_x_50_against_mpmath(self):
        # bin k starts at s = k, that is x = SCALE / k - 4; x = 50 is where
        # Johnson's Faddeeva code switches to its continued fraction
        edges = numerics._ERFCX_SCALE / np.arange(1.0, len(numerics._ERFCX_ROWS[0])) - 4.0
        x = np.concatenate([edges, [50.0]])
        self._check(np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]))

    def test_special_values_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erfcx(0.0) == 1.0
            assert erfcx(math.inf) == 0.0
            assert math.isnan(erfcx(math.nan))
            out = erfcx(np.array([[math.nan, 0.0], [math.inf, 1e300]]))
        assert out.shape == (2, 2)
        assert math.isnan(out[0, 0]) and out[0, 1] == 1.0 and out[1, 0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erfcx(np.array([1.0, -1e-3]))

    def test_committed_table_regenerates(self):
        """tools/erfcx_table.py rebuilds the committed coefficients bit for
        bit (five bins: both ends, the special bin 0 and two inside)."""
        script = _table_script()
        rows = numerics._ERFCX_ROWS
        assert script.NBINS + 1 == len(rows[0])
        assert float(4 * script.NBINS) == numerics._ERFCX_SCALE
        for k in (0, 1, 97, 250, script.NBINS):
            assert script.bin_coefficients(k) == tuple(float(r[k]) for r in rows)


class TestSigmoidFunctions:
    X = np.linspace(-800.0, 800.0, 1_400_001)

    def test_log_expit_is_scipys(self):
        assert np.array_equal(log_expit(self.X), scipy_log_expit(self.X))

    def test_expit_within_4_ulp_of_scipy(self):
        got, ref = expit(self.X), scipy_expit(self.X)
        normal = ref >= np.finfo(float).tiny
        assert np.all(np.abs(got - ref)[normal] <= 4.0 * np.spacing(ref[normal]))
        # scipy's 1 / (1 + exp(-x)) rounds to the subnormal grid below
        # x = -708; exp(x) / (1 + exp(x)) stays within 4 ulp of the exact
        # value there
        for x in self.X[~normal][::20000]:
            with mpmath.workdps(40):
                exact = float(1 / (1 + mpmath.exp(-mpmath.mpf(float(x)))))
            assert abs(expit(x) - exact) <= 4.0 * np.spacing(exact)
