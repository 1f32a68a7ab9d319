"""Output channels P_out(y|z) built from an activation, optional label
randomness, and Gaussian noise of variance delta.

The piecewise-linear channels (linear, sign, abs, relu, symmetric door) admit
exact Gaussian closed forms for the evidence

    Z_out(y, omega, V) = E_{w ~ N(0,1)}[ P_out(y | omega + sqrt(V) w) ]

and for the posterior moments of the hidden pre-activation, via truncated
normal integrals per linear piece.  Everything runs in log space, and the
moments are those of the standardized w = (x - omega) / sqrt(V), so deep
tails (door/sign at large |omega|/sqrt(V)) stay finite and do not cancel.

A channel family supplies one evidence kernel, ``_w_stats(y, omega, V,
level)``: log Z_out, alone or with the posterior mean and variance of w;
``Channel`` builds ``log_zout``, ``gout`` and the psi_pout integrands on it.
Every field is finite and nonnegative, the ``_positive`` ones above 0, and
the ones a family ignores (``_unused``) 0.

``psi_pout(q, rho)`` and ``psi_pout_prime(q, rho)`` take a scalar q (and
return a float) or an array of q.  Every channel builds the E_V rules of a
block of q values in one ``gauss_panels`` pass; at each V node the law of y
is a weighted node set: the labels of a discrete channel weighted by
Z_out, or per-piece y rows of a continuous one (``_y_rows``).

A channel whose law is unchanged under z -> -z, with the label kept (abs,
the symmetric door) or flipped (sign, linear, sigmoid), has ``_mirror`` +1
or -1; every integrand over V is then even, and its E_V rules are folded
onto V >= 0 with doubled weights, which halves the V nodes.  A nonzero
epsilon breaks the symmetry, and ReLU never has it.  ``is_even`` is
``_mirror == 1``.

Conventions:
* ``gout`` is the posterior mean of the standardized hidden Gaussian w.
* the asymmetry hook ``epsilon`` shifts one decision threshold and is used
  only by the GAMP assumed channel; data generation keeps epsilon = 0.
"""
from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .numerics import (_LOG_SQRT_2PI, DEFAULT_GH_ORDER, GAUSS_RANGE,
                       PANEL_CHUNK, PANEL_ORDER, _like,
                       _leggauss_unit as _gl_unit,
                       _erfcx_flat, expit, gauss_hermite, gauss_panels,
                       log_expit, logsumexp)

_INF = math.inf

# q values per pass of _expect_given_v: the E_V nodes of a pass, times the
# y nodes at each, bound its arrays, so peak memory stays flat.  A discrete
# channel's y law is its label axis, a few values per node; a continuous
# channel's is its y rows (_V_PASS nodes at a time), and with 16 q per pass
# they raised the peak RSS of a fast Abs(0) table build by 1.3 MB
_LABEL_Q_BLOCK = 16
_Q_BLOCK = 4
# E_V nodes per y-row build of a continuous channel, and y nodes per pass
# of its evidence kernel, for the same reason
_V_PASS = 256
_Y_PASS = 8192
# y-row features beyond this many deviations, where the Gaussian weight is
# below 1e-14, get no panels
_FEATURE_RANGE = 8.0
# entries per panel rule of Sigmoid._step_rules, for the same reason
_MU_BLOCK = 256
# elements per pass of the truncated-normal kernel: temporaries stay small
# enough for the allocator to reuse them instead of mapping fresh pages
_ELEM_BLOCK = 8192
# Var[W | W > x] = y (1 - 6 y + 50 y^2 - ...), y = 1 / x^2, for x >= 20;
# the ten terms kept err by at most 3e-15 relative there (at x = 20)
_TAIL_SERIES_X = 20.0
_TAIL_VAR_SERIES = (-10944711398.0, 505785122.0, -25625910.0, 1435330.0,
                    -89782.0, 6354.0, -518.0, 50.0, -6.0, 1.0)
# panel edges, in l u, of the moments of a tail interval whose far end
# carries mass
_FAR_PANEL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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


def _norm_logpdf(x):
    return -0.5 * np.square(x) - _LOG_SQRT_2PI


# levels of the evidence kernels (_trunc_moments, _piece_stats and _w_stats):
# the log mass only, or it with the mean and the variance; the level is the
# number of arrays returned
_MASS, _VAR = 1, 3


def _trunc_moments(alpha, beta, level):
    """(logP,) at level _MASS, or (logP, E[W], Var[W]) at level _VAR, for
    the standard normal truncated to (alpha, beta).  The log mass of
    either level is the same float; _MASS skips the work of the moments.

    An interval inside the left tail is mirrored right of zero.  In the
    right tail, Q(x) = erfcx(x / sqrt 2) exp(-x^2 / 2) / 2 gives the log mass
    and the ratios phi / P without cancellation however far out the interval
    lies, so the mean stays accurate; beyond about 1e154 standard deviations
    the mass is 0 and its log -inf.  An interval (l, h) across zero has mass
    1 - Q(h) - Q(-l); one erfcx pass per block serves both cases.  Both moments are 0 where the mass is 0.
    Where 1 + l ra - h rb - m^2 would cancel (a tail interval starting 20 or
    more deviations out), the variance is the tail series 1/x^2 - 6/x^4 +
    ... if the far end carries no mass, and otherwise both moments come
    from those of W - l (``_far_interval_moments``).
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    left = beta <= 0.0
    lo, hi = np.where(left, -beta, alpha), np.where(left, -alpha, beta)
    out = (np.full(lo.shape, -np.inf),) + tuple(np.zeros(lo.shape)
                                               for _ in range(level - 1))
    # flat views, in slices of _ELEM_BLOCK elements; each case gathers its
    # elements by index and scatters back
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    out_f = [x.reshape(-1) for x in out]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, lo_f.size, _ELEM_BLOCK):
            blk = slice(start, start + _ELEM_BLOCK)
            _trunc_block(lo_f[blk], hi_f[blk], [x[blk] for x in out_f])
    if level == _VAR:
        np.negative(out[1], out=out[1], where=left)
    return out


def _trunc_block(lo, hi, out):
    """Fill out, (logp,) or (logp, mean, var) (preset to -inf, 0, 0), for
    1-D bounds that are already mirrored right of zero where the interval
    lies in the left tail; empty intervals keep the preset values."""
    tail = ((lo >= 0.0) & (hi > lo)).nonzero()[0]
    mid = ((lo < 0.0) & (hi > 0.0)).nonzero()[0]
    t, n = tail.size, tail.size + mid.size
    if not n:
        return
    i = tail if t == n else mid if not t else np.concatenate((tail, mid))
    l, h = lo[i], hi[i]
    # one erfcx pass: Q at both ends of a tail interval, and at h and -l of
    # one that straddles zero (|l| is l in the tail, -l across zero)
    e = _erfcx_flat(np.abs(np.concatenate((l, h))) / _SQRT2)
    # the moments need the ratios phi / P at both ends
    moments = len(out) == _VAR
    parts = []
    if t:
        parts.append(_tail_ratios(l[:t], h[:t], e[:t], e[n:n + t], moments))
    if t < n:
        parts.append(_straddle_ratios(l[t:], h[t:], e[t:n], e[n + t:], moments))
    lp, *ratios = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    out[0][i] = lp
    if not ratios:
        return
    ra, rb = ratios
    m = np.minimum(np.maximum(ra - rb, l), h)
    # E[W^2] = 1 + l ra - h rb; an infinite end has ratio 0
    far = np.where(rb > 0.0, h * rb, 0.0)
    v = 1.0 + np.where(ra > 0.0, l * ra, 0.0) - far - m * m
    if t and np.any(l[:t] >= _TAIL_SERIES_X):
        # E[W^2] - m^2 loses about eps l^4 relative: far out, where the
        # far end carries no mass, take the tail series of the variance,
        # and where it does, the moments of u = W - l
        far_out = l >= _TAIL_SERIES_X
        series = far_out & (far * l * l < 1e-17)
        y = 1.0 / np.square(l[series])
        v[series] = y * np.polyval(_TAIL_VAR_SERIES, y)
        narrow = far_out & ~series
        if narrow.any():
            m[narrow], v[narrow] = _far_interval_moments(l[narrow], h[narrow])
    ok = lp > -np.inf
    out[1][i] = np.where(ok, m, 0.0)
    # a truncated standard normal has variance in [0, 1]; far out,
    # where the terms cancel or overflow, that bound is all that is kept
    out[2][i] = np.where(ok & (v >= 0.0), np.minimum(v, 1.0), 0.0)


def _far_interval_moments(l, h):
    """(E[W], Var[W]) for W ~ N(0, 1) truncated to (l, h), l >= 20, from
    the moments of u = W - l, whose density exp(-l u - u^2 / 2) is a
    truncated exponential bent by the curvature term: Gauss-Legendre
    panels of order PANEL_ORDER in l u, at 0, 1, 2, 4, ..., 64 (the mass
    beyond is below e^-64), clipped to u < h - l."""
    x, w = _gl_unit(PANEL_ORDER)
    edges = np.minimum(_FAR_PANEL_EDGES / l[:, None], (h - l)[:, None])
    width = np.diff(edges)[:, :, None]
    u = (edges[:, :-1, None] + width * x).reshape(l.size, -1)
    p = (width * w).reshape(l.size, -1) * np.exp(-l[:, None] * u - 0.5 * u * u)
    p /= p.sum(axis=1, keepdims=True)
    mu = np.sum(p * u, axis=1)
    dev = u - mu[:, None]
    return l + mu, np.sum(p * dev * dev, axis=1)


def _tail_ratios(l, h, el, eh, ratios):
    """(log P, phi(l) / P, phi(h) / P) for 0 <= l < h, from el and eh, the
    erfcx of l / sqrt 2 and h / sqrt 2; (log P,) without ratios."""
    # log phi(h) / phi(l), and r = Q(h) / Q(l), the share of the tail
    # beyond the far end; P = Q(l) (1 - r), scaled by el
    log_g = -0.5 * (h - l) * (h + l)
    den = el * -np.expm1(np.log(eh / el) + log_g)
    lp = np.log(0.5 * den) - 0.5 * l * l
    if not ratios:
        return (lp,)
    ra = _SQRT_2_OVER_PI / den
    return lp, ra, ra * np.exp(log_g)


def _straddle_ratios(l, h, el, eh, ratios):
    """(log P, phi(l) / P, phi(h) / P) for l < 0 < h, from el and eh, the
    erfcx of -l / sqrt 2 and h / sqrt 2; (log P,) without ratios."""
    # P = 1 - Q(h) - Q(-l) is not small; Q(x) = erfcx(x / sqrt 2) g(x) / 2
    # with g(x) = exp(-x^2 / 2) = sqrt(2 pi) phi(x)
    gl, gh = np.exp(-0.5 * l * l), np.exp(-0.5 * h * h)
    p = 1.0 - 0.5 * (el * gl + eh * gh)
    if not ratios:
        return (np.log(p),)
    return np.log(p), gl / (_SQRT_2PI * p), gh / (_SQRT_2PI * p)


def _log_gauss_prob(alpha, beta):
    """log P(alpha < W < beta), W ~ N(0,1), stable in both tails."""
    return _trunc_moments(alpha, beta, _MASS)[0]


# Quadrature profiles: "exact" drives analysis-grade evaluations; "fast" is
# used when tabulating psi' for state-evolution sweeps (interpolation error
# dominates there anyway).  v_chunk and v_gl are the chunk width and order of
# the E_V panels of a channel with thresholds; the fast pair keeps psi' of
# sign, abs and the door within 5e-9 relative of the exact profile at every
# table node.  y_chunk and y_gl are those of the y rows of a continuous
# channel; the exact pair is within about 1e-13 of adaptive integrals.
_PROFILES = {
    "exact": dict(v_chunk=PANEL_CHUNK, v_gl=PANEL_ORDER, y_chunk=2.0, y_gl=16),
    "fast": dict(v_chunk=4.0, v_gl=10, y_chunk=3.5, y_gl=13),
}
_profile = "exact"


@contextmanager
def quad_profile(name: str):
    """Context manager switching the active quadrature profile."""
    global _profile
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r}")
    saved, _profile = _profile, name
    try:
        yield
    finally:
        _profile = saved


def _prof():
    return _PROFILES[_profile]


def _check_q(q, rho, closed: bool) -> np.ndarray:
    """q as an array; every element in [0, rho] (closed) or [0, rho)."""
    qa = np.asarray(q, dtype=float)
    if not np.all((qa >= 0.0) & ((qa <= rho) if closed else (qa < rho))):
        raise ValueError(f"need 0 <= q {'<=' if closed else '<'} rho, "
                         f"got q={q}, rho={rho}")
    return qa


class Channel:
    """Base class; see module docstring for the shared surface."""

    labels: tuple[float, ...] = ()
    # psi_pout' is a closed form: state evolution calls it directly and
    # builds no fast table for it
    closed_form_prime: bool = False
    # the law of y | c z, for every c > 0, is that of y | z up to a
    # relabelling of y that does not depend on z, so that
    # psi_pout'(q; rho) = psi_pout'(q / rho; 1) / rho
    scale_free: bool = False
    # the law under z -> -z: +1 when P(y | -z) = P(y | z), -1 when
    # P(-y | -z) = P(y | z), None otherwise
    _mirror: int | None = None
    # fields that must be above 0, and fields the family ignores, which
    # must be 0; every other field is finite and nonnegative
    _positive: tuple[str, ...] = ()
    _unused: tuple[str, ...] = ()

    def __post_init__(self):
        for f in dataclasses.fields(self):
            x = getattr(self, f.name)
            if f.name in self._unused:
                ok, need = x == 0.0, "0 (the channel ignores it)"
            elif f.name in self._positive:
                ok, need = 0.0 < x < _INF, "finite and positive"
            else:
                ok, need = 0.0 <= x < _INF, "finite and nonnegative"
            if not ok:
                raise ValueError(f"{type(self).__name__}: {f.name} must be "
                                 f"{need}, got {x}")

    @property
    def is_even(self) -> bool:
        """P(y | -z) = P(y | z): the q = 0 fixed point exists and its
        stability integral applies."""
        return self._mirror == 1

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

    def _w_stats(self, y, omega, v, level):
        """(log Z_out,) at level _MASS, or (log Z_out, E[w | y], Var[w | y])
        at level _VAR (as in ``_trunc_moments``), for the standardized w of
        z = omega + sqrt(V) w; y, omega and V broadcast together, and an
        array V must be positive.  Zero evidence gives log Z_out = -inf."""
        raise NotImplementedError

    def log_zout(self, y, omega, v):
        if np.any(np.asarray(v) < 0):
            raise ValueError(f"V must be nonnegative, got {v}")
        if np.all(np.asarray(v) == 0.0):
            with np.errstate(divide="ignore"):
                out = np.log(self.density(y, omega))
        else:
            out, = self._w_stats(y, omega, v, _MASS)
        return float(out) if np.ndim(out) == 0 else out

    def zout(self, y, omega, v):
        out = np.exp(self.log_zout(y, omega, v))
        return float(out) if np.ndim(out) == 0 else out

    def gout(self, y, omega, v) -> OutputDenoiser:
        if np.any(np.asarray(v) <= 0):
            raise ValueError(f"V must be positive, got {v}")
        logz, g, var_w = self._w_stats(y, omega, v, _VAR)
        if not np.all(np.isfinite(logz)):
            raise GoutUnderflowError(f"y={y!r}, omega={omega!r}, V={v!r}")
        return OutputDenoiser(*(_like(g, x) for x in (g, np.exp(logz), logz, var_w)))

    def posterior_phi_mean(self, y, omega, v):
        """Posterior mean of phi(omega + sqrt(v) w, a) given the observation
        y; a channel without a noiseless activation phi has none."""
        raise ValueError(f"{type(self).__name__} has no activation phi; "
                         "denoising is undefined")

    # -- free entropy of the non-linear scalar channel -------------------------

    def _v_rules(self, q, rho):
        """Quadratures for E_V of each q of a 1-D array, flat as (nodes,
        weights, row): panels refined near the decision-threshold images
        k / sqrt(q), built in one pass with the profile's chunk width and
        order, or Gauss-Hermite for a channel without thresholds.  Each
        image is a feature of width sqrt((rho - q + delta) / q).  Where noise
        blurs a jump of phi, a second one of width sqrt((rho - q) / q)
        resolves the band in which omega leaves the side of z uncertain:
        near q = rho it is far narrower than the first, and psi' grows like
        1 / sqrt(rho - q) from it.

        A mirror-symmetric channel (``_mirror`` not None) makes every
        integrand over V even, so its rows are folded onto V >= 0: panel
        rows get a plain break point at V = 0, and each row keeps its nodes
        >= 0 with the weights of the nodes > 0 doubled (the Gauss-Hermite
        rule is exactly symmetric and has a node at 0)."""
        kinks = np.array(self._x_kinks())
        fold = self._mirror is not None
        if kinks.size:
            pos = q > 0.0
            qs = np.where(pos, q, 1.0)[:, None]
            # q = 0 rows get no features (NaN)
            feats = np.where(pos[:, None], kinks / np.sqrt(qs), np.nan)
            spread = (rho - q)[:, None]
            widths = np.broadcast_to(np.sqrt((spread + self.delta) / qs), feats.shape)
            if self._noisy_jumps:
                widths = np.hstack([widths, np.broadcast_to(np.sqrt(spread / qs),
                                                            feats.shape)])
                feats = np.hstack([feats, feats])
            if fold:
                # a feature of zero width is a plain break point
                zero = np.zeros((q.size, 1))
                feats = np.hstack([feats, zero])
                widths = np.hstack([widths, zero])
            p = _prof()
            rule = gauss_panels(feats, widths, chunk=p["v_chunk"], order=p["v_gl"])
            nodes, weights, row = rule.nodes, rule.weights, rule.row
        else:
            gh = gauss_hermite(DEFAULT_GH_ORDER)
            nodes, weights = np.tile(gh.nodes, q.size), np.tile(gh.weights, q.size)
            row = np.repeat(np.arange(q.size), gh.nodes.size)
        if fold:
            half = nodes >= 0.0
            nodes, weights, row = nodes[half], weights[half], row[half]
            weights[nodes > 0.0] *= 2.0
        return nodes, weights, row

    def _v_grid(self, q, rho):
        """E_V quadrature (nodes, weights) at one q."""
        nodes, weights, _ = self._v_rules(np.array([float(q)]), rho)
        return nodes, weights

    def _x_kinks(self):
        return ()

    # Gaussian noise on an activation that jumps at its kinks
    _noisy_jumps = False

    def _expect_given_v(self, q, rho, func):
        """E over (V, Y~) of an integrand on the generative law, for a scalar
        q (a float) or each q of an array (same shape).

        func(y, omega, rho - q) returns (log Z_out, integrand) at the y nodes
        of ``_y_rows``: a discrete channel weights each label by Z_out, a
        continuous one carries the weight of each node in its rows.
        """
        qa = np.asarray(q, dtype=float)
        qf = qa.reshape(-1)
        out = np.empty(qf.size)
        inside = np.flatnonzero(qf < rho)
        block = _LABEL_Q_BLOCK if self.is_discrete else _Q_BLOCK
        for start in range(0, inside.size, block):
            idx = inside[start:start + block]
            out[idx] = self._expect_rows(qf[idx], rho, func)
        at_rho = qf >= rho
        if np.any(at_rho):
            out[at_rho] = self._expect_rows(np.array([rho]), rho, func)[0]
        return _like(qa, out.reshape(qa.shape))

    def _expect_rows(self, q, rho, func):
        """_expect_given_v for a 1-D block of q, all below rho or the single
        q = rho: the nodes of every E_V row, then at each node the law of y
        given (omega, rho - q) as weighted nodes (``_y_rows``), summed per
        node and then per row."""
        nodes, weights, row = self._v_rules(q, rho)
        omega = np.sqrt(q)[row] * nodes
        vp = (rho - q)[row]
        vals = np.zeros(omega.size)
        for y, at, wy in self._y_rows(omega, vp):
            logz, val = func(y, omega[at], vp[at])
            with np.errstate(invalid="ignore"):
                if wy is None:
                    w = np.exp(logz)
                    part = np.where(w > 0.0, w * val, 0.0)
                else:
                    # a row's node where the evidence vanishes (an end of a
                    # noiseless piece's support) has no mass
                    part = np.where(logz > -np.inf, wy * val, 0.0)
            vals += np.bincount(np.broadcast_to(at, part.shape).ravel(),
                                weights=part.ravel(), minlength=omega.size)
        return np.bincount(row, weights=weights * vals, minlength=q.size)

    def _y_rows(self, omega, vp):
        """The law of y at each E_V node, in passes of (y, node, weight):
        here the labels on a leading axis, over all nodes at once, with
        weight None for the evidence Z_out that func returns."""
        yield np.array(self.labels)[:, None], np.arange(omega.size), None

    def psi_pout(self, q, rho: float):
        """E ln Z_out over the scalar channel at overlap q; literal constants
        kept.  q is a scalar (returns a float) or an array (same shape)."""
        def log_z(y, om, vp):
            logz = self.log_zout(y, om, vp)
            return logz, logz

        return self._expect_given_v(_check_q(q, rho, closed=True), rho, log_z)

    def psi_pout_prime(self, q, rho: float):
        """Psi'(q) = E[gout^2] / (2 (rho - q)), for a scalar or an array of
        q; rejects q = rho."""
        qa = _check_q(q, rho, closed=False)

        def g_sq(y, om, vp):
            logz, g = self._log_zout_gout(y, om, vp)
            return logz, g * g

        return _like(qa, self._expect_given_v(qa, rho, g_sq) / (2.0 * (rho - qa)))

    def _log_zout_gout(self, y, omega, v):
        """(log Z_out, gout) from one kernel pass, without the checks of
        gout; zero evidence gives (-inf, 0)."""
        logz, g, _ = self._w_stats(y, omega, v, _VAR)
        return logz, g

    def stability_integral(self, rho: float) -> float:
        raise ValueError("stability integral requires an even channel")


class _PiecewiseChannel(Channel):
    """Deterministic piecewise-linear activation plus optional Gaussian noise."""

    def pieces(self):
        """Tuple of (a, b, c, d): phi(x) = c + d x on (a, b)."""
        raise NotImplementedError

    @property
    def is_discrete(self) -> bool:
        return self.delta == 0.0 and all(p[3] == 0.0 for p in self.pieces())

    @property
    def _mirror(self):
        # phi(-x) is c - d x on (-b, -a); the noise is symmetric
        pieces = set(self.pieces())
        mirrored = {(-b, -a, c, -d) for a, b, c, d in pieces}
        if mirrored == pieces:
            return 1
        if {(a, b, -c, -d) for a, b, c, d in mirrored} == pieces:
            return -1
        return None

    @property
    def scale_free(self) -> bool:
        # every threshold at 0; then flat pieces give y(c z) = y(z) whatever
        # the noise, and, without noise, pieces through the origin give
        # y(c z) = c y(z)
        pieces = self.pieces()
        if any(math.isfinite(e) and e != 0.0 for p in pieces for e in p[:2]):
            return False
        return (all(p[3] == 0.0 for p in pieces)
                or (self.delta == 0.0 and all(p[2] == 0.0 for p in pieces)))

    @property
    def _noisy_jumps(self):
        return self.delta > 0.0 and all(p[3] == 0.0 for p in self.pieces())

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
            logp, m1, _ = _trunc_moments((a - mu) / s, (b - mu) / s, _VAR)
            total = total + np.exp(logp) * (c + d * (mu + s * m1))
        return float(total) if total.ndim == 0 else total

    def second_moment_phi(self, rho):
        # exact piecewise-Gaussian moments of phi(x)^2, x ~ N(0, rho)
        s = math.sqrt(rho)
        total = 0.0
        for a, b, c, d in self.pieces():
            logp, m1, var = _trunc_moments(a / s, b / s, _VAR)
            p = float(np.exp(logp))
            ex = s * float(m1)
            ex2 = rho * float(var + m1 * m1)
            total += p * (c * c) + 2.0 * c * d * p * ex + d * d * p * ex2
        return total

    # -- evidence core ---------------------------------------------------------

    def _piece_stats(self, y, omega, v, level):
        """Per piece, on a leading piece axis: log weight, and at level
        _VAR (as in ``_trunc_moments``) the conditional mean and variance of
        the standardized hidden Gaussian w = (x - omega) / sqrt(V).  y,
        omega and V broadcast together; an array V must be positive."""
        y, omega, _ = np.broadcast_arrays(np.asarray(y, float),
                                          np.asarray(omega, float), np.asarray(v, float))
        sqv = np.sqrt(v)
        delta = self.delta
        pieces = self.pieces()
        # each piece writes its row of these
        stats = tuple(np.empty((len(pieces),) + y.shape) for _ in range(level))
        # the pieces that truncate the Gaussian in w, for one _trunc_moments
        # pass: (row, its elements, lower and upper bound, log prefactor,
        # mean shift and variance factor)
        trunc = []
        # log densities of far-off labels overflow to -inf, which is exact
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, (a, b, c, d) in enumerate(pieces):
                if d == 0.0 and delta == 0.0:
                    # noiseless: only the observations y = c come from here
                    emits = y == c
                    if np.all(emits):
                        emits = ...
                    else:
                        for x, fill in zip(stats, (-np.inf, 0.0, 0.0)):
                            x[k] = fill
                        if not np.any(emits):
                            continue
                    om = omega[emits]
                    s = np.broadcast_to(sqv, y.shape)[emits]
                    trunc.append((k, emits, (a - om) / s, (b - om) / s, None, None))
                elif d == 0.0:
                    sd = math.sqrt(delta)
                    logpref = _norm_logpdf((y - c) / sd) - math.log(sd)
                    trunc.append((k, ..., (a - omega) / sqv, (b - omega) / sqv,
                                  logpref, None))
                else:
                    # the piece's Gaussian factor in x has mean m and
                    # variance V delta / sig2; in w it is centred at shift
                    sig2 = delta + d * d * v
                    resid = y - c - d * omega
                    logpref = _norm_logpdf(resid / np.sqrt(sig2)) - 0.5 * np.log(sig2)
                    m = omega + d * (v / sig2) * resid
                    shift = d * (sqv / sig2) * resid if level == _VAR else None
                    if delta == 0.0:
                        row = (np.where((a < m) & (m < b), logpref, -np.inf), shift, 0.0)
                        for x, fill in zip(stats, row):
                            x[k] = fill
                    else:
                        s = np.sqrt(v * delta / sig2)
                        trunc.append((k, ..., (a - m) / s, (b - m) / s, logpref,
                                      (shift, delta / sig2)))
            if not trunc:
                return stats
            moments = _trunc_moments(np.concatenate([t[2].ravel() for t in trunc]),
                                     np.concatenate([t[3].ravel() for t in trunc]),
                                     level)
            start = 0
            for k, sel, lo, _, logpref, affine in trunc:
                lp, *mom = (x[start:start + lo.size].reshape(lo.shape) for x in moments)
                start += lo.size
                if affine is not None and mom:
                    # the mean shifts and scales, the variance scales
                    shift, f = affine
                    mom = [shift + np.sqrt(f) * mom[0], f * mom[1]]
                for x, val in zip(stats, [lp if logpref is None else logpref + lp] + mom):
                    x[k, sel] = val
        return stats

    def _w_stats(self, y, omega, v, level):
        if level == _MASS:
            logw, = self._piece_stats(y, omega, v, _MASS)
            return (logsumexp(logw),)
        logz, post, mean, var = self._posterior_w_stats(y, omega, v)
        # within-piece plus between-piece spread; (post * dev) * dev stays
        # finite for the far-off means of pieces without posterior weight,
        # and may overflow on rows without evidence, which gout rejects
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.sum(post * mean, axis=0)
            dev = mean - g
            return logz, g, np.sum(post * var + post * dev * dev, axis=0)

    def _posterior_w_stats(self, y, omega, v):
        """(log Z, per-piece posterior weights, per-piece mean and variance
        of w); rows with zero evidence get zero weights."""
        logw, mean, var = self._piece_stats(y, omega, v, _VAR)
        logz = logsumexp(logw)
        ok = np.isfinite(logz)
        with np.errstate(invalid="ignore"):
            post = np.exp(logw - np.where(ok, logz, 0.0))
        post = np.where(ok, post, 0.0)
        return logz, post, mean, var

    def _log_zout_gout(self, y, omega, v):
        # the mean alone: psi_pout' does not pay for the spread
        logz, post, mean, _ = self._posterior_w_stats(y, omega, v)
        return logz, np.sum(post * mean, axis=0)

    def posterior_phi_mean(self, y, omega, v):
        if np.any(np.asarray(v) <= 0):
            raise ValueError(f"V must be positive, got {v}")
        _, post, mean, _ = self._posterior_w_stats(y, omega, v)
        piece_axis = (-1,) + (1,) * (post.ndim - 1)
        cs = np.array([p[2] for p in self.pieces()]).reshape(piece_axis)
        ds = np.array([p[3] for p in self.pieces()]).reshape(piece_axis)
        out = np.sum(post * (cs + ds * (omega + np.sqrt(v) * mean)), axis=0)
        return float(out) if np.ndim(out) == 0 else out

    # -- generative expectations ------------------------------------------------

    def _y_rows(self, omega, vp):
        """The law of y given (omega, V') at each E_V node: a discrete
        channel's labels, or a row per piece k of y = c + d omega + s_k x,
        x ~ N(0, 1), s_k^2 = delta + d^2 V', weighted by P_k(y), the chance
        that z lies in the piece: its mass for a constant piece, 1 on the
        support of a noiseless linear one (where its row stops), an erf
        step at each end of a noisy linear one.  Rows of _V_PASS nodes come
        from one gauss_panels call (the profile's y_chunk and y_gl), their
        nodes _Y_PASS at a time.  A row is refined at the steps (without
        noise: the images phi(e) of the support ends) and where two pieces'
        terms of Z_out, each taken as P_k N(y; c + d omega, s_k^2), balance
        (a noisy channel's balance point wider than half a node spacing
        gets only break points two widths either side).  At q = rho, y =
        phi(omega) + noise; a noiseless channel's evidence then raises."""
        if self.is_discrete:
            yield from super()._y_rows(omega, vp)
            return
        for start in range(0, omega.size, _V_PASS):
            at = np.arange(start, min(start + _V_PASS, omega.size))
            y, node, wy = self._piece_rows(omega[at], vp[at], at)
            for part in range(0, y.size, _Y_PASS):
                cut = slice(part, part + _Y_PASS)
                yield y[cut], node[cut], wy[cut]

    def _piece_rows(self, omega, vp, at):
        """(y, node, weight) of the rows of the nodes ``at``; see _y_rows."""
        p = _prof()
        chunk, order = p["y_chunk"], p["y_gl"]
        delta = self.delta
        n = omega.size
        if not vp[0]:
            if delta == 0.0:
                return self.phi(omega), at, np.ones(n)
            rule = gauss_panels(np.full((n, 1), np.nan), np.zeros((n, 1)),
                                chunk=chunk, order=order)
            y = self.phi(omega)[rule.row] + math.sqrt(delta) * rule.nodes
            return y, at[rule.row], rule.weights
        a, b, c, d = (np.array(col)[:, None] for col in zip(*self.pieces()))
        linear = d[:, 0] != 0.0
        sqv = np.sqrt(vp)
        mu = c + d * omega
        s = np.sqrt(delta + d * d * vp)
        # the mass of each constant piece (a linear one's enters by its row)
        logp = np.zeros(mu.shape)
        const = ~linear
        if const.any():
            logp[const] = _log_gauss_prob((a[const] - omega) / sqv,
                                          (b[const] - omega) / sqv)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # features in y, one (pieces, n) block each: the steps, or
            # without noise the images phi(e) of the ends of the supports,
            # where the other pieces' terms of Z_out start ...
            locs, widths = [], []
            for e in (a, b):
                end = np.isfinite(e[:, 0]) & linear
                if delta > 0.0:
                    locs.append((mu + (e - omega) * (s * s) / (d * vp))[end])
                    widths.append((s * np.sqrt(delta / vp) / np.abs(d))[end])
                else:
                    locs.append(np.broadcast_to(c + d * e, mu.shape)[end])
                    widths.append(np.zeros(locs[-1].shape))
            steps = sum(len(x) for x in locs)
            # ... and the balance points of pieces j < k, the roots of
            # qa y^2 + qb y + qc
            j, k = np.triu_indices(len(d), 1)
            g = logp - np.log(s) - 0.5 * np.square(mu / s)
            qa = 0.5 / s[k] ** 2 - 0.5 / s[j] ** 2
            qb = mu[j] / s[j] ** 2 - mu[k] / s[k] ** 2
            qc = g[j] - g[k]
            root = np.sqrt(qb * qb - 4.0 * qa * qc)
            flat = qa == 0.0
            for sign in (1.0, -1.0):
                y0 = np.where(flat, -qc / qb, (-qb + sign * root) / (2.0 * qa))
                locs.append(np.where(flat & (sign < 0.0), np.nan, y0))
                widths.append(1.0 / np.abs(2.0 * qa * y0 + qb))
            # in the x units of every row: (pieces, n, features)
            fx = (np.concatenate(locs).T - mu[:, :, None]) / s[:, :, None]
            fw = np.concatenate(widths).T / s[:, :, None]
            keep = (np.abs(fx) < _FEATURE_RANGE) & (fw < 0.25 * chunk)
            # a balance point of a noisy channel wider than half a node
            # spacing needs only break points two widths either side of it
            wide = (keep & (np.arange(fx.shape[2]) >= steps) & (delta > 0.0)
                    & (fw >= 0.5 * chunk / order))
            full = keep & ~wide
            fx = np.concatenate([np.where(full, fx, np.nan),
                                 np.where(wide, fx - 2.0 * fw, np.nan),
                                 np.where(wide, fx + 2.0 * fw, np.nan)], axis=2)
            fw = np.concatenate([np.where(full, fw, 0.0), np.zeros_like(fw),
                                 np.zeros_like(fw)], axis=2)
            lo = np.full(mu.shape, -GAUSS_RANGE)
            hi = np.full(mu.shape, GAUSS_RANGE)
            if delta == 0.0:
                ends = np.sign(d) * np.stack([a - omega, b - omega]) / sqv
                lo = np.where(linear[:, None], np.clip(ends.min(axis=0), lo, hi), lo)
                hi = np.where(linear[:, None], np.clip(ends.max(axis=0), lo, hi), hi)
            # a constant piece without mass has no row
            hi = np.where(logp > -np.inf, hi, lo)
        shape = (mu.size, fx.shape[2])
        rule = gauss_panels(fx.reshape(shape), fw.reshape(shape), chunk=chunk,
                            order=order, bounds=(lo.ravel(), hi.ravel()))
        # the values of each node's row, gathered by its row
        r, x = rule.row, rule.nodes
        y = mu.ravel()[r] + s.ravel()[r] * x
        wy = rule.weights if linear.all() else rule.weights * np.exp(logp).ravel()[r]
        if delta > 0.0 and linear.any():
            # the step of P_k: on the piece's line, z given y has mean m
            # and deviation t
            i = np.flatnonzero(linear.repeat(n)[r])
            ri = r[i]
            m = np.tile(omega, len(d))[ri] + (d * vp / s).ravel()[ri] * x[i]
            t = (np.sqrt(vp * delta) / s).ravel()[ri]
            a_i, b_i = (np.broadcast_to(e, mu.shape).ravel()[ri] for e in (a, b))
            wy[i] *= np.exp(_log_gauss_prob((a_i - m) / t, (b_i - m) / t))
        return y, np.tile(at, len(d))[r], wy

    # -- stability of the q = 0 fixed point ---------------------------------------

    def _stability_num_den(self, y, rho):
        """A(y) = E[(x^2/rho - 1) P_out(y|x)], B(y) = E[P_out(y|x)], x ~ N(0, rho)."""
        logw, mean, var = self._piece_stats(y, 0.0, rho, _VAR)
        w = np.exp(logw)
        # x / sqrt(rho) is the standardized w at omega = 0
        num = np.sum(w * (var + mean * mean - 1.0), axis=0)
        den = np.sum(w, axis=0)
        return num, den

    def stability_integral(self, rho: float) -> float:
        """E over y of (A(y) / B(y))^2 under the law B of y at omega = 0,
        V' = rho: the labels of a discrete channel, weighted by B, or the
        y rows of a continuous one (``_y_rows``)."""
        if not self.is_even:
            raise ValueError("stability integral requires an even channel")
        total = 0.0
        for y, _, wy in self._y_rows(np.zeros(1), np.full(1, float(rho))):
            num, den = self._stability_num_den(y, rho)
            with np.errstate(divide="ignore", invalid="ignore"):
                if wy is None:
                    terms = num * num / den
                else:
                    terms = np.where(den > 1e-300, wy * np.square(num / den), 0.0)
            total += float(np.sum(terms))
        return total


@dataclass(frozen=True)
class LinearAWGN(_PiecewiseChannel):
    """y = z + sqrt(delta) * noise."""

    delta: float = 0.0
    epsilon: float = 0.0
    # the spline misses TABLE_REL_BOUND here: by 7.9e-6 at delta = 0.01
    closed_form_prime = True
    _unused = ("epsilon",)

    def pieces(self):
        return ((-_INF, _INF, 0.0, 1.0),)

    # Closed forms: evidence is a Gaussian convolution.
    def psi_pout(self, q, rho):
        qa = _check_q(q, rho, closed=True)
        s2 = self.delta + rho - qa
        if np.any(s2 <= 0):
            raise ValueError("noiseless linear channel has no density at q = rho")
        return _like(qa, -0.5 * np.log(2.0 * math.pi * math.e * s2))

    def psi_pout_prime(self, q, rho):
        qa = _check_q(q, rho, closed=False)
        return _like(qa, 0.5 / (self.delta + rho - qa))


@dataclass(frozen=True)
class Sign(_PiecewiseChannel):
    """y = sign(z) (+ noise if delta > 0); sign(0) = +1."""

    delta: float = 0.0
    epsilon: float = 0.0
    labels = (-1.0, 1.0)

    def pieces(self):
        t = -self.epsilon
        return ((-_INF, t, -1.0, 0.0), (t, _INF, 1.0, 0.0))


@dataclass(frozen=True)
class Abs(_PiecewiseChannel):
    """y = |z| (+ noise); epsilon flips the sign at -epsilon instead of 0."""

    delta: float = 0.0
    epsilon: float = 0.0

    def pieces(self):
        t = -self.epsilon
        return ((-_INF, t, 0.0, -1.0), (t, _INF, 0.0, 1.0))


@dataclass(frozen=True)
class ReLU(_PiecewiseChannel):
    """y = max(0, z) + sqrt(delta) * noise; needs delta > 0 (mixed law at 0)."""

    delta: float = 1e-8
    epsilon: float = 0.0
    _positive = ("delta",)

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
    _positive = ("K",)

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
    is_discrete = True
    delta = 0.0
    _mirror = -1    # P(-y | -z) = expit(slope y z) = P(y | z)
    _positive = ("slope",)
    # no decision threshold; the field stays so that instance files written
    # with "epsilon": 0.0 load
    _unused = ("epsilon",)

    def with_delta(self, delta):
        raise ValueError("sigmoid channel has no noise parameter")

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
            return _like(mu, self.mean_label(mu))
        s = math.sqrt(var)
        flat = mu.reshape(-1)
        # a NaN var gets no rules, and stays NaN
        out = np.full(flat.size, np.nan)
        for idx, rule in self._step_rules(flat, np.full(flat.size, s)):
            vals = self.mean_label(flat[idx][rule.row] + s * rule.nodes)
            out[idx] = np.bincount(rule.row, weights=rule.weights * vals,
                                   minlength=idx.size)
        return _like(mu, out.reshape(mu.shape))

    def _step_rules(self, omega, s):
        """(entries, rule) per block of _MU_BLOCK entries, over the entries
        with s > 0: one panel row each around the step of z = omega + s w,
        at w = -omega / s and 1 / (slope s) wide, which at steep slopes is
        narrower than the Hermite node spacing."""
        for start in range(0, omega.size, _MU_BLOCK):
            idx = start + np.flatnonzero(s[start:start + _MU_BLOCK] > 0.0)
            if idx.size:
                yield idx, gauss_panels((-omega[idx] / s[idx])[:, None],
                                        (1.0 / (self.slope * s[idx]))[:, None])

    def _w_stats(self, y, omega, v, level):
        """Each entry integrates on the rules of ``_step_rules``; an entry
        with V = 0 takes the label probability at omega."""
        y, omega, v = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                            for a in (y, omega, v)))
        shape = y.shape
        y, omega, s = y.ravel(), omega.ravel(), np.sqrt(v).ravel()
        logz = log_expit(self.slope * y * omega)
        mean = np.zeros(y.size)
        var = np.zeros(y.size)
        for idx, rule in self._step_rules(omega, s):
            om, sv = omega[idx], s[idx]
            r, w = rule.row, rule.nodes
            logw = (log_expit(self.slope * y[idx][r] * (om[r] + sv[r] * w))
                    + np.log(rule.weights))
            # each entry's nodes are contiguous in the flat rule
            top = np.maximum.reduceat(logw, np.flatnonzero(np.diff(r, prepend=-1)))
            p = np.exp(logw - top[r])
            tot = np.bincount(r, weights=p, minlength=idx.size)
            logz[idx] = top + np.log(tot)
            if level == _VAR:
                m1 = np.bincount(r, weights=p * w, minlength=idx.size) / tot
                m2 = np.bincount(r, weights=p * w * w, minlength=idx.size) / tot
                mean[idx] = m1
                var[idx] = np.maximum(m2 - m1 * m1, 0.0)
        return tuple(x.reshape(shape) for x in (logz, mean, var)[:level])
