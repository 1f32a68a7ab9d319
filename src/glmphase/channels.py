"""Output channels P_out(y|z) built from an activation, optional label
randomness, and Gaussian noise of variance delta.

The piecewise-linear channels (linear, sign, abs, relu, symmetric door) admit
exact Gaussian closed forms for the evidence

    Z_out(y, omega, V) = E_{w ~ N(0,1)}[ P_out(y | omega + sqrt(V) w) ]

and for the posterior moments of the hidden pre-activation, via truncated
normal integrals per linear piece.  Everything runs in log space so deep
tails (door/sign at large |omega|/sqrt(V)) stay finite.

Conventions:
* ``gout`` is the posterior mean of the standardized hidden Gaussian w.
* the asymmetry hook ``epsilon`` shifts one decision threshold and is used
  only by the GAMP assumed channel; data generation keeps epsilon = 0.
"""
from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, log_ndtr, ndtr

from .numerics import (_LOG_SQRT_2PI, DEFAULT_GH_ORDER, _gl_on_edges,
                       gauss_hermite, gauss_panels, integrate_1d, logsumexp)

_LN2 = math.log(2.0)
_INF = math.inf

# Gaussian mass beyond 9 sigma is ~1e-19; quadrature windows stop there.
_GAUSS_RANGE = 9.0
# Per-segment Gauss-Legendre chunking for the panel integrals.
_CHUNK_WIDTH = 0.6
_GL_ORDER = 16
_LOG_TINY = math.log(1e-300)


class GoutUnderflowError(FloatingPointError):
    """Evidence is exactly zero; the output denoiser is undefined."""

    def __init__(self, detail=""):
        super().__init__(
            "output evidence underflowed to zero"
            + (f" ({detail})" if detail else "")
            + "; increase GAMP damping or the assumed-channel epsilon"
        )


@dataclass(frozen=True)
class OutputDenoiser:
    """Posterior mean and variance of the standardized hidden Gaussian w,
    plus the evidence."""

    gout: float | np.ndarray
    zout: float | np.ndarray
    log_zout: float | np.ndarray
    vout: float | np.ndarray = 1.0

    @property
    def underflowed(self):
        return np.asarray(self.log_zout) < _LOG_TINY


def _norm_logpdf(x):
    return -0.5 * np.square(x) - _LOG_SQRT_2PI


def _log1mexp(t):
    """log(1 - exp(t)) for t <= 0, elementwise stable."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(-np.expm1(np.minimum(t, 0.0)))
        large = np.log1p(-np.exp(np.minimum(t, 0.0)))
    return np.where(t > -_LN2, small, large)


def _log_gauss_prob(alpha, beta):
    """log P(alpha < W < beta), W ~ N(0,1), stable in both tails."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    out = np.full(alpha.shape, -np.inf)
    # Beyond about 1e154 standard deviations log_ndtr of both bounds is -inf
    # and their difference NaN; the probability there is 0, its log -inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        # right tail: 0 <= alpha < beta
        m = (alpha >= 0) & (beta > alpha)
        if np.any(m):
            la = log_ndtr(-alpha[m])
            lb = log_ndtr(-beta[m])
            out[m] = np.where(la > -np.inf, la + _log1mexp(lb - la), -np.inf)
        # left tail: alpha < beta <= 0
        m = (beta <= 0) & (beta > alpha)
        if np.any(m):
            la = log_ndtr(alpha[m])
            lb = log_ndtr(beta[m])
            out[m] = np.where(lb > -np.inf, lb + _log1mexp(la - lb), -np.inf)
        # straddling zero: no cancellation in linear domain
        m = (alpha < 0) & (beta > 0)
        if np.any(m):
            out[m] = np.log(ndtr(beta[m]) - ndtr(alpha[m]))
    return out


def _trunc_moments(alpha, beta):
    """(logP, E[W], E[W^2]) for the standard normal truncated to (alpha, beta)."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    logp = _log_gauss_prob(alpha, beta)
    ok = np.isfinite(logp)
    with np.errstate(invalid="ignore", over="ignore"):
        ra = np.where(np.isfinite(alpha) & ok,
                      np.exp(_norm_logpdf(alpha) - logp), 0.0)
        rb = np.where(np.isfinite(beta) & ok,
                      np.exp(_norm_logpdf(beta) - logp), 0.0)
        m1 = ra - rb
        m2 = 1.0 + np.where(np.isfinite(alpha), alpha, 0.0) * ra \
            - np.where(np.isfinite(beta), beta, 0.0) * rb
    m1 = np.clip(m1, np.minimum(alpha, beta), np.maximum(alpha, beta))
    m1 = np.where(ok, m1, 0.0)
    m2 = np.where(ok, np.maximum(m2, m1 * m1), 0.0)
    return logp, m1, m2


# Quadrature profiles: "exact" drives analysis-grade evaluations; "fast" is
# used when tabulating psi' for state-evolution sweeps (interpolation error
# dominates there anyway).  The active profile is thread-local so sweep
# workers building tables never disturb concurrent exact evaluations.
_PROFILES = {
    "exact": dict(w_chunks=14, w_gl=16, near_gl=12, z_near=11, z_wide=15,
                  v_sigma=math.inf),
    "fast": dict(w_chunks=8, w_gl=10, near_gl=8, z_near=7, z_wide=9,
                 v_sigma=0.75),
}
_profile_state = threading.local()


class quad_profile:
    """Context manager switching the (thread-local) quadrature profile."""

    def __init__(self, name: str):
        if name not in _PROFILES:
            raise ValueError(f"unknown profile {name!r}")
        self.name = name

    def __enter__(self):
        self.saved = getattr(_profile_state, "name", "exact")
        _profile_state.name = self.name
        return self

    def __exit__(self, *exc):
        _profile_state.name = self.saved
        return False


def _prof():
    return _PROFILES[getattr(_profile_state, "name", "exact")]


def _master_grid():
    """Uniformly chunked Gauss-Legendre master nodes/weights on [0, 1]."""
    p = _prof()
    return _gl_on_edges(np.linspace(0.0, 1.0, p["w_chunks"] + 1), p["w_gl"])


def _graded_master(smallest, grade_lo, grade_hi, order):
    """Master on [0, 1], chunks geometrically refined toward the graded ends."""
    smallest = max(smallest, 1e-9)
    edges = {0.0, 1.0}
    if grade_lo:
        e = smallest
        while e < 0.75:
            edges.add(e)
            e *= 2.0
    if grade_hi:
        e = smallest
        while e < 0.75:
            edges.add(1.0 - e)
            e *= 2.0
    return _gl_on_edges(sorted(edges), order)


def _panel_nodes_1d(features, widths):
    """Nodes/weights (standard normal measure folded in) on [-R, R] with
    extra resolution around each feature +- a few widths."""
    rule = gauss_panels(tuple(features), tuple(widths),
                        half_range=_GAUSS_RANGE, chunk=_CHUNK_WIDTH,
                        order=_GL_ORDER)
    return rule.nodes, rule.weights


class Channel:
    """Base class; see module docstring for the shared surface."""

    is_even: bool = False
    labels: tuple[float, ...] = ()

    # -- construction helpers ------------------------------------------------

    def with_epsilon(self, epsilon: float) -> "Channel":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def with_delta(self, delta: float) -> "Channel":
        return dataclasses.replace(self, delta=float(delta))

    @property
    def is_discrete(self) -> bool:
        raise NotImplementedError

    # -- sampling and densities ----------------------------------------------

    def sample_label(self, z, seed: int):
        raise NotImplementedError

    def density(self, y, z):
        raise NotImplementedError

    def mean_label(self, z):
        """E[Y | pre-activation z] (noise mean included, which is zero)."""
        raise NotImplementedError

    def mean_label_gauss(self, mu, var):
        """E[Y | z ~ N(mu, var)]."""
        raise NotImplementedError

    def phi_sq_mean(self, z):
        """E_A[phi(z, A)^2] pointwise (no additive noise)."""
        raise NotImplementedError

    def second_moment_phi(self, rho: float) -> float:
        """E[phi(sqrt(rho) V, A)^2] with V ~ N(0,1)."""
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        return float(np.dot(gh.weights, self.phi_sq_mean(np.sqrt(rho) * gh.nodes)))

    # -- evidence and output denoiser ------------------------------------------

    def log_zout(self, y, omega, v):
        raise NotImplementedError

    def zout(self, y, omega, v):
        if v < 0:
            raise ValueError(f"V must be nonnegative, got {v}")
        out = np.exp(self.log_zout(y, omega, v))
        return float(out) if np.ndim(out) == 0 else out

    def gout(self, y, omega, v) -> OutputDenoiser:
        raise NotImplementedError

    def posterior_phi_mean(self, y, omega, v):
        """Posterior mean of phi(omega + sqrt(v) w, a) given the observation y."""
        raise NotImplementedError

    # -- free entropy of the non-linear scalar channel -------------------------

    def _v_grid(self, q, rho):
        """Quadrature for E_V, refined near the decision-threshold images."""
        kinks = self._x_kinks()
        if not kinks:
            gh = gauss_hermite(DEFAULT_GH_ORDER)
            return gh.nodes, gh.weights
        if q <= 0.0:
            return _panel_nodes_1d([], [])
        sigma = math.sqrt((rho - q + self.delta) / q)
        if sigma >= _prof()["v_sigma"]:
            gh = gauss_hermite(DEFAULT_GH_ORDER)
            return gh.nodes, gh.weights
        features = [k / math.sqrt(q) for k in kinks]
        return _panel_nodes_1d(features, [sigma] * len(features))

    def _x_kinks(self):
        return ()

    def _expect_given_v(self, q, rho, func):
        """E over (V, Y~) of func(y, omega, rho - q) on the generative law."""
        raise NotImplementedError

    def psi_pout(self, q: float, rho: float) -> float:
        """E ln Z_out over the scalar channel at overlap q; literal constants kept."""
        if not 0.0 <= q <= rho:
            raise ValueError(f"need 0 <= q <= rho, got q={q}, rho={rho}")
        return self._expect_given_v(q, rho, lambda y, om, vp: self.log_zout(y, om, vp))

    def psi_pout_prime(self, q: float, rho: float) -> float:
        """Psi'(q) = E[gout^2] / (2 (rho - q)); rejects q = rho."""
        if not 0.0 <= q < rho:
            raise ValueError(f"need 0 <= q < rho, got q={q}, rho={rho}")
        vp = rho - q

        def g_sq(y, om, _vp):
            return self._gout_raw(y, om, _vp) ** 2

        return self._expect_given_v(q, rho, g_sq) / (2.0 * vp)

    def _gout_raw(self, y, omega, v):
        raise NotImplementedError

    def stability_integral(self, rho: float) -> float:
        raise NotImplementedError


class _PiecewiseChannel(Channel):
    """Deterministic piecewise-linear activation plus optional Gaussian noise."""

    def pieces(self):
        """Tuple of (a, b, c, d): phi(x) = c + d x on (a, b)."""
        raise NotImplementedError

    @property
    def is_discrete(self) -> bool:
        return self.delta == 0.0 and all(p[3] == 0.0 for p in self.pieces())

    def _x_kinks(self):
        ks = []
        for a, b, _, _ in self.pieces():
            if np.isfinite(a):
                ks.append(a)
            if np.isfinite(b):
                ks.append(b)
        return tuple(sorted(set(ks)))

    # -- pointwise activation ------------------------------------------------

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        conds = [z < b if np.isfinite(b) else np.ones_like(z, bool)
                 for _, b, _, _ in self.pieces()]
        vals = [c + d * z for _, _, c, d in self.pieces()]
        return np.select(conds, vals)

    def mean_label(self, z):
        return self.phi(z)

    def phi_sq_mean(self, z):
        return self.phi(z) ** 2

    def sample_label(self, z, seed: int):
        rng = np.random.default_rng(seed)
        z = np.asarray(z, dtype=float)
        y = self.phi(z)
        if self.delta > 0:
            y = y + math.sqrt(self.delta) * rng.standard_normal(z.shape)
        return float(y) if y.ndim == 0 else y

    def density(self, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.delta > 0:
            sd = math.sqrt(self.delta)
            out = np.exp(_norm_logpdf((y - self.phi(z)) / sd)) / sd
        elif self.is_discrete:
            out = np.where(y == self.phi(z), 1.0, 0.0)
        else:
            raise ValueError(
                "continuous channel with delta = 0 has no Lebesgue density; "
                "use zout with V > 0"
            )
        return float(out) if out.ndim == 0 else out

    def mean_label_gauss(self, mu, var):
        mu = np.asarray(mu, dtype=float)
        if np.ndim(var) != 0:
            raise ValueError("var must be scalar")
        if var == 0.0:
            out = self.phi(mu)
            return float(out) if out.ndim == 0 else out
        s = math.sqrt(var)
        total = np.zeros_like(mu)
        for a, b, c, d in self.pieces():
            logp, m1, _ = _trunc_moments((a - mu) / s, (b - mu) / s)
            total = total + np.exp(logp) * (c + d * (mu + s * m1))
        return float(total) if total.ndim == 0 else total

    def second_moment_phi(self, rho):
        # exact piecewise-Gaussian moments of phi(x)^2, x ~ N(0, rho)
        s = math.sqrt(rho)
        total = 0.0
        for a, b, c, d in self.pieces():
            logp, m1, m2 = _trunc_moments(a / s, b / s)
            p = float(np.exp(logp))
            ex = s * float(m1)
            ex2 = rho * float(m2)
            total += p * (c * c) + 2.0 * c * d * p * ex + d * d * p * ex2
        return total

    # -- evidence core ---------------------------------------------------------

    def _piece_stats(self, y, omega, v):
        """Per piece, stacked on a leading piece axis: log weight and
        conditional 1st/2nd moments of x."""
        y, omega = np.broadcast_arrays(np.asarray(y, float), np.asarray(omega, float))
        sqv = math.sqrt(v)
        delta = self.delta
        logws, m1s, m2s = [], [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b, c, d in self.pieces():
                if d == 0.0:
                    if delta > 0:
                        sd = math.sqrt(delta)
                        logpref = _norm_logpdf((y - c) / sd) - math.log(sd)
                    else:
                        logpref = np.where(y == c, 0.0, -np.inf)
                    logp, m1, m2 = _trunc_moments((a - omega) / sqv,
                                                  (b - omega) / sqv)
                    logw = logpref + logp
                    m1x = omega + sqv * m1
                    m2x = omega ** 2 + 2.0 * omega * sqv * m1 + v * m2
                else:
                    sig2 = delta + d * d * v
                    sig = math.sqrt(sig2)
                    resid = y - c - d * omega
                    logpref = _norm_logpdf(resid / sig) - math.log(sig)
                    m = omega + d * v * resid / sig2
                    s2 = v * delta / sig2
                    if s2 == 0.0:
                        inside = (a < m) & (m < b)
                        logw = np.where(inside, logpref, -np.inf)
                        m1x, m2x = m, m * m
                    else:
                        s = math.sqrt(s2)
                        logp, m1, m2 = _trunc_moments((a - m) / s, (b - m) / s)
                        logw = logpref + logp
                        m1x = m + s * m1
                        m2x = m ** 2 + 2.0 * m * s * m1 + s2 * m2
                logws.append(logw)
                m1s.append(m1x)
                m2s.append(m2x)
        return np.stack(logws), np.stack(m1s), np.stack(m2s)

    def log_zout(self, y, omega, v):
        if v < 0:
            raise ValueError(f"V must be nonnegative, got {v}")
        if v == 0.0:
            with np.errstate(divide="ignore"):
                out = np.log(self.density(y, omega))
            return float(out) if np.ndim(out) == 0 else out
        logw, _, _ = self._piece_stats(y, omega, v)
        out = logsumexp(logw)
        return float(out) if np.ndim(out) == 0 else out

    def _posterior_x_stats(self, y, omega, v):
        """(log Z, per-piece posterior weights, per-piece E[x], E[x^2]);
        rows with zero evidence get zero weights."""
        logw, m1x, m2x = self._piece_stats(y, omega, v)
        logz = logsumexp(logw)
        ok = np.isfinite(logz)
        with np.errstate(invalid="ignore"):
            post = np.exp(logw - np.where(ok, logz, 0.0))
        post = np.where(ok, post, 0.0)
        return logz, post, m1x, m2x

    def _gout_raw(self, y, omega, v):
        logz, post, m1x, _ = self._posterior_x_stats(y, omega, v)
        g = (np.sum(post * m1x, axis=0) - np.asarray(omega)) / math.sqrt(v)
        return np.where(np.isfinite(logz), g, 0.0)

    def gout(self, y, omega, v) -> OutputDenoiser:
        if v <= 0:
            raise ValueError(f"V must be positive, got {v}")
        logz, post, m1x, m2x = self._posterior_x_stats(y, omega, v)
        if not np.all(np.isfinite(logz)):
            raise GoutUnderflowError(f"y={y!r}, omega={omega!r}, V={v!r}")
        ex = np.sum(post * m1x, axis=0)
        ex2 = np.sum(post * m2x, axis=0)
        g = (ex - np.asarray(omega)) / math.sqrt(v)
        var_w = np.maximum(ex2 - ex * ex, 0.0) / v
        z = np.exp(logz)
        if np.ndim(g) == 0:
            return OutputDenoiser(float(g), float(z), float(logz), float(var_w))
        return OutputDenoiser(g, z, logz, var_w)

    def posterior_phi_mean(self, y, omega, v):
        if v <= 0:
            raise ValueError(f"V must be positive, got {v}")
        _, post, m1x, _ = self._posterior_x_stats(y, omega, v)
        piece_axis = (-1,) + (1,) * (post.ndim - 1)
        cs = np.array([p[2] for p in self.pieces()]).reshape(piece_axis)
        ds = np.array([p[3] for p in self.pieces()]).reshape(piece_axis)
        out = np.sum(post * (cs + ds * m1x), axis=0)
        return float(out) if np.ndim(out) == 0 else out

    # -- generative expectations ------------------------------------------------

    def _expect_given_v(self, q, rho, func):
        vp = rho - q
        vnodes, vweights = self._v_grid(q, rho)
        omega = math.sqrt(max(q, 0.0)) * vnodes

        if self.is_discrete:
            vals = np.zeros_like(omega)
            for lab in self.labels:
                w = np.exp(self.log_zout(lab, omega, vp))
                with np.errstate(invalid="ignore"):
                    vals += np.where(w > 0.0, w * func(lab, omega, vp), 0.0)
            return float(np.dot(vweights, vals))

        if vp == 0.0:
            # y = phi(omega) + noise; no hidden w left.
            y0 = self.phi(omega)
            if self.delta > 0:
                gh = gauss_hermite(31)
                y = y0[:, None] + math.sqrt(self.delta) * gh.nodes[None, :]
                vals = func(y, omega[:, None], vp) @ gh.weights
            else:
                vals = func(y0, omega, vp)
            return float(np.dot(vweights, vals))

        sqvp = math.sqrt(vp)
        delta = self.delta
        sqd = math.sqrt(delta)
        prof = _prof()
        inner = np.zeros_like(omega)
        om2 = omega[:, None]

        def add_segment(seg_lo, seg_hi, master, with_z, c, d, z_order):
            width = np.maximum(seg_hi - seg_lo, 0.0)[:, None]
            t, mw = master
            wn = seg_lo[:, None] + width * t[None, :]
            ww = width * mw[None, :] * np.exp(_norm_logpdf(wn))
            y0 = c + d * (omega[:, None] + sqvp * wn)
            if with_z:
                gz = gauss_hermite(z_order)
                y = y0[:, :, None] + sqd * gz.nodes[None, None, :]
                vals = func(y, om2[:, :, None], vp) @ gz.weights
            else:
                vals = func(y0, om2, vp)
            # zero-width (clipped-away) rows evaluate off-support: mask them
            vals = np.where(width > 0, vals, 0.0)
            return np.sum(ww * vals, axis=1)

        # Piece by piece over w: constant pieces integrate exactly in w;
        # linear pieces split near/far around their kinks, where the evidence
        # varies on the sqrt(delta) scale and the noise average is essential.
        for a, b, c, d in self.pieces():
            wlo = np.clip((a - omega) / sqvp, -_GAUSS_RANGE, _GAUSS_RANGE)
            whi = np.clip((b - omega) / sqvp, -_GAUSS_RANGE, _GAUSS_RANGE)
            if d == 0.0:
                # w integrates out exactly; the z rule carries the whole
                # y-integral for this piece, so use a dense rule
                gz = gauss_hermite(95)
                prob = np.exp(_log_gauss_prob(wlo, whi))
                y = c + sqd * gz.nodes
                inner += prob * (func(y, om2, vp) @ gz.weights)
                continue
            if delta == 0.0:
                inner += add_segment(wlo, whi, _master_grid(), False, c, d, 0)
                continue
            sfeat = sqd / (abs(d) * sqvp)
            if sfeat > 0.05:
                # noise scale comparable to the hidden scale: one z-aware pass
                inner += add_segment(wlo, whi, _master_grid(), True, c, d,
                                     prof["z_wide"])
                continue
            # near zones hug finite kinks at +-40 noise widths
            near = 40.0 * sfeat
            far_lo, far_hi = wlo, whi
            graded = _graded_master(1.0 / 40.0, True, False, prof["near_gl"])
            if np.isfinite(a):
                cut = np.minimum(wlo + near, whi)
                inner += add_segment(wlo, cut, graded, True, c, d, prof["z_near"])
                far_lo = cut
            graded_hi = _graded_master(1.0 / 40.0, False, True, prof["near_gl"])
            if np.isfinite(b):
                cut = np.maximum(whi - near, far_lo)
                inner += add_segment(cut, whi, graded_hi, True, c, d, prof["z_near"])
                far_hi = cut
            # away from the kink the noise average shifts ln Z by O(delta/vp)
            far_z = delta > 2e-7 * d * d * vp
            inner += add_segment(far_lo, far_hi, _master_grid(), far_z, c, d,
                                 prof["z_wide"])
        return float(np.dot(vweights, inner))

    # -- stability of the q = 0 fixed point ---------------------------------------

    def _stability_num_den(self, y, rho):
        """A(y) = E[(x^2/rho - 1) P_out(y|x)], B(y) = E[P_out(y|x)], x ~ N(0, rho)."""
        logw, _, m2x = self._piece_stats(y, 0.0, rho)
        w = np.exp(logw)
        num = np.sum(w * (m2x / rho - 1.0), axis=0)
        den = np.sum(w, axis=0)
        return num, den

    def stability_integral(self, rho: float) -> float:
        if not self.is_even:
            raise ValueError("stability integral requires an even channel")
        if self.is_discrete:
            total = 0.0
            for lab in self.labels:
                num, den = self._stability_num_den(np.asarray(lab), rho)
                total += float(num) ** 2 / float(den)
            return total

        lo_phi, hi_phi = self._phi_range(rho)
        pad = 10.0 * math.sqrt(self.delta) + 1e-6
        def integrand(y):
            num, den = self._stability_num_den(np.asarray(y), rho)
            if den < 1e-300:
                return 0.0
            return float(num) ** 2 / float(den)
        return integrate_1d(integrand, lo_phi - pad, hi_phi + pad, tol=1e-9)

    def _phi_range(self, rho):
        xs = [-_GAUSS_RANGE * math.sqrt(rho), _GAUSS_RANGE * math.sqrt(rho)]
        xs += [k for k in self._x_kinks()]
        vals = self.phi(np.asarray(xs))
        return float(np.min(vals)), float(np.max(vals))


@dataclass(frozen=True)
class LinearAWGN(_PiecewiseChannel):
    """y = z + sqrt(delta) * noise."""

    delta: float = 0.0
    epsilon: float = 0.0
    is_even = False

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def pieces(self):
        return ((-_INF, _INF, 0.0, 1.0),)

    # Closed forms: evidence is a Gaussian convolution.
    def psi_pout(self, q, rho):
        if not 0.0 <= q <= rho:
            raise ValueError(f"need 0 <= q <= rho, got q={q}, rho={rho}")
        s2 = self.delta + rho - q
        if s2 <= 0:
            raise ValueError("noiseless linear channel has no density at q = rho")
        return -0.5 * math.log(2.0 * math.pi * math.e * s2)

    def psi_pout_prime(self, q, rho):
        if not 0.0 <= q < rho:
            raise ValueError(f"need 0 <= q < rho, got q={q}, rho={rho}")
        return 0.5 / (self.delta + rho - q)


@dataclass(frozen=True)
class Sign(_PiecewiseChannel):
    """y = sign(z) (+ noise if delta > 0); sign(0) = +1."""

    delta: float = 0.0
    epsilon: float = 0.0
    labels = (-1.0, 1.0)
    is_even = False

    def __post_init__(self):
        if self.delta < 0 or self.epsilon < 0:
            raise ValueError("delta and epsilon must be nonnegative")

    def pieces(self):
        t = -self.epsilon
        return ((-_INF, t, -1.0, 0.0), (t, _INF, 1.0, 0.0))


@dataclass(frozen=True)
class Abs(_PiecewiseChannel):
    """y = |z| (+ noise); epsilon flips the sign at -epsilon instead of 0."""

    delta: float = 0.0
    epsilon: float = 0.0
    is_even = True

    def __post_init__(self):
        if self.delta < 0 or self.epsilon < 0:
            raise ValueError("delta and epsilon must be nonnegative")

    def pieces(self):
        t = -self.epsilon
        return ((-_INF, t, 0.0, -1.0), (t, _INF, 0.0, 1.0))


@dataclass(frozen=True)
class ReLU(_PiecewiseChannel):
    """y = max(0, z) + sqrt(delta) * noise; needs delta > 0 (mixed law at 0)."""

    delta: float = 1e-8
    epsilon: float = 0.0
    is_even = False

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("relu channel requires delta > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def pieces(self):
        t = -self.epsilon
        return ((-_INF, t, 0.0, 0.0), (t, _INF, 0.0, 1.0))


@dataclass(frozen=True)
class SymmetricDoor(_PiecewiseChannel):
    """y = sign(|z| - K); ties at |z| = K map to +1."""

    K: float = 0.67449
    delta: float = 0.0
    epsilon: float = 0.0
    labels = (-1.0, 1.0)
    is_even = True

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("K must be positive")
        if self.delta < 0 or self.epsilon < 0:
            raise ValueError("delta and epsilon must be nonnegative")

    def pieces(self):
        return ((-_INF, -self.K, 1.0, 0.0),
                (-self.K, self.K + self.epsilon, -1.0, 0.0),
                (self.K + self.epsilon, _INF, 1.0, 0.0))

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(np.abs(z) - self.K >= 0, 1.0, -1.0)
        if self.epsilon > 0:
            out = np.where((z >= self.K) & (z < self.K + self.epsilon), -1.0, out)
        return out


@dataclass(frozen=True)
class Sigmoid(Channel):
    """Random binary labels: P(y = +1 | z) = 1 / (1 + exp(-slope * z))."""

    slope: float = 1.0
    epsilon: float = 0.0
    labels = (-1.0, 1.0)
    is_even = False
    delta = 0.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("slope must be positive")

    @property
    def is_discrete(self):
        return True

    def with_delta(self, delta):
        raise ValueError("sigmoid channel has no noise parameter")

    def with_epsilon(self, epsilon):
        return self  # no decision threshold to shift

    def sample_label(self, z, seed: int):
        rng = np.random.default_rng(seed)
        z = np.asarray(z, dtype=float)
        u = rng.random(z.shape)
        y = np.where(u < expit(self.slope * z), 1.0, -1.0)
        return float(y) if y.ndim == 0 else y

    def density(self, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.where(np.abs(y) == 1.0, expit(self.slope * y * z), 0.0)
        return float(out) if out.ndim == 0 else out

    def mean_label(self, z):
        return np.tanh(0.5 * self.slope * np.asarray(z, dtype=float))

    def phi_sq_mean(self, z):
        return np.ones_like(np.asarray(z, dtype=float))

    def mean_label_gauss(self, mu, var):
        mu = np.asarray(mu, dtype=float)
        if var == 0.0:
            out = self.mean_label(mu)
            return float(out) if np.ndim(out) == 0 else out
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        zs = mu[..., None] + math.sqrt(var) * gh.nodes
        out = np.tanh(0.5 * self.slope * zs) @ gh.weights
        return float(out) if np.ndim(out) == 0 else out

    def _log_pmf_grid(self, y, omega, v):
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        zs = np.asarray(omega, float)[..., None] + math.sqrt(v) * gh.nodes
        return log_expit(self.slope * np.asarray(y, float)[..., None] * zs), gh

    def log_zout(self, y, omega, v):
        if v < 0:
            raise ValueError(f"V must be nonnegative, got {v}")
        y = np.asarray(y, dtype=float)
        omega = np.asarray(omega, dtype=float)
        if v == 0.0:
            with np.errstate(divide="ignore"):
                out = np.log(self.density(y, omega))
            return float(out) if np.ndim(out) == 0 else out
        y, omega = np.broadcast_arrays(y, omega)
        logp, gh = self._log_pmf_grid(y, omega, v)
        out = logsumexp(logp + np.log(gh.weights), axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def _gout_raw(self, y, omega, v):
        y, omega = np.broadcast_arrays(np.asarray(y, float), np.asarray(omega, float))
        logp, gh = self._log_pmf_grid(y, omega, v)
        logw = logp + np.log(gh.weights)
        logz = logsumexp(logw, axis=-1)
        post = np.exp(logw - logz[..., None])
        return post @ gh.nodes

    def gout(self, y, omega, v) -> OutputDenoiser:
        if v <= 0:
            raise ValueError(f"V must be positive, got {v}")
        y2, om2 = np.broadcast_arrays(np.asarray(y, float), np.asarray(omega, float))
        logp, gh = self._log_pmf_grid(y2, om2, v)
        logw = logp + np.log(gh.weights)
        logz = logsumexp(logw, axis=-1)
        if not np.all(np.isfinite(np.asarray(logz))):
            raise GoutUnderflowError(f"y={y!r}, omega={omega!r}, V={v!r}")
        post = np.exp(logw - logz[..., None])
        g = post @ gh.nodes
        var_w = np.maximum(post @ (gh.nodes ** 2) - g * g, 0.0)
        z = np.exp(logz)
        if np.ndim(g) == 0:
            return OutputDenoiser(float(g), float(z), float(logz), float(var_w))
        return OutputDenoiser(g, z, logz, var_w)

    def posterior_phi_mean(self, y, omega, v):
        raise ValueError("sigmoid channel has delta = 0; denoising is undefined")

    def _expect_given_v(self, q, rho, func):
        vp = rho - q
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        omega = math.sqrt(max(q, 0.0)) * gh.nodes
        vals = np.zeros_like(omega)
        for lab in self.labels:
            w = np.exp(self.log_zout(lab, omega, vp))
            vals += w * func(lab, omega, vp)
        return float(np.dot(gh.weights, vals))

    def stability_integral(self, rho):
        raise ValueError("stability integral requires an even channel")


# -- functional wrappers matching the operation names ---------------------------

def sample_label(channel: Channel, z, seed: int):
    return channel.sample_label(z, seed)


def density(channel: Channel, y, z):
    return channel.density(y, z)


def zout(channel: Channel, y, omega, v):
    return channel.zout(y, omega, v)


def gout(channel: Channel, y, omega, v) -> OutputDenoiser:
    return channel.gout(y, omega, v)


def psi_pout(channel: Channel, q: float, rho: float) -> float:
    return channel.psi_pout(q, rho)


def psi_pout_prime(channel: Channel, q: float, rho: float) -> float:
    return channel.psi_pout_prime(q, rho)


def stability_integral(channel: Channel, rho: float) -> float:
    return channel.stability_integral(rho)
