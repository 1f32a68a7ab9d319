"""Quadrature, interpolation, root finding, fixed-point iteration options,
and the special functions erfcx, expit and log_expit.

Gaussian expectations E[f(Z)], Z ~ N(0,1), without a closed form take the
composite Gauss-Legendre panels of :func:`gauss_panels`, refined around
the integrand's features; the probabilists' Gauss-Hermite rule of
:func:`gauss_hermite` serves only the E_V rules of channels without
thresholds (linear, sigmoid) and ``Channel.second_moment_phi``.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._erfcx_table import COEFFS as _ERFCX_COEFFS
from ._erfcx_table import SCALE as _ERFCX_SCALE

DEFAULT_GH_ORDER = 99


class BracketError(ValueError):
    """Root bracket has no sign change."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for expectations under the standard Gaussian.

    A rule built for many rows at once (``gauss_panels`` with 2-D features)
    carries the row of each node in ``row``; sum per row with
    ``np.bincount(rule.row, weights=...)``, not with ``expect``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    row: np.ndarray | None = None

    def expect(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


@lru_cache(maxsize=64)
def gauss_hermite(order: int) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule: E[f(Z)] ~ sum(w_i * f(z_i)), Z ~ N(0,1).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    x, w = hermgauss(int(order))
    return QuadratureRule(nodes=np.sqrt(2.0) * x, weights=w / np.sqrt(np.pi))


_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _like(x, out):
    """float for a scalar input x, else the array out."""
    return float(out) if np.ndim(x) == 0 else out


# row j holds the u**j coefficient of every bin, contiguous
_ERFCX_ROWS = tuple(np.ascontiguousarray(np.array(
    [line.split() for line in _ERFCX_COEFFS.strip().splitlines()],
    dtype=float).T))


def erfcx(x):
    """Scaled complementary error function erfc(x) exp(x^2), for x >= 0.

    A degree-5 polynomial in each unit bin of s = SCALE / (4 + x), which
    is proportional to y = 4 / (4 + x), the variable of S. G. Johnson's
    Faddeeva package; ``tools/erfcx_table.py`` writes the coefficients.
    Within 2e-15 relative of the exact value; erfcx(inf) = 0 and NaN stays
    NaN.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("erfcx is tabulated for x >= 0 only")
    return _like(x, _erfcx_flat(xa.reshape(-1)).reshape(xa.shape))


def _erfcx_flat(x):
    """erfcx of a 1-D float array with no negative element."""
    s = _ERFCX_SCALE / (x + 4.0)
    # fmax sends NaN to bin 0, so the cast never sees a NaN (it would warn)
    k = np.fmax(s, 0.0).astype(np.intp)
    s -= k
    out = _ERFCX_ROWS[-1][k]
    for row in _ERFCX_ROWS[-2::-1]:
        out *= s
        out += row[k]
    return out


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), without overflow."""
    e = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + e)
    return np.where(x >= 0.0, r, e * r)


def log_expit(x):
    """log(1 / (1 + exp(-x))), stable at both ends."""
    return -np.logaddexp(0.0, -x)


def logsumexp(x, axis: int = 0):
    """log(sum(exp(x), axis)), max-shifted; all -inf slices stay -inf."""
    m = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(np.sum(np.exp(x - shift), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


@lru_cache(maxsize=64)
def _leggauss_unit(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# panel break points sit at feature + k * width for these k
_FEATURE_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])


# the exact panel rule: Gaussian mass beyond 9 sigma is ~1e-19, so windows
# stop there; each segment is cut into Gauss-Legendre chunks of width 0.6
# and order 16
GAUSS_RANGE = 9.0
PANEL_CHUNK = 0.6
PANEL_ORDER = 16


def gauss_panels(features=(), widths=(), chunk: float = PANEL_CHUNK,
                 order: int = PANEL_ORDER, bounds=None) -> QuadratureRule:
    """Composite Gauss-Legendre rule for E[f(Z)], Z ~ N(0,1), with panels
    refined around each feature +- a few widths.

    Unlike Gauss-Hermite, this resolves integrand structure much narrower
    than the node spacing of any practical Hermite order.

    ``features`` and ``widths`` of shape (F,) give one rule.  Shape
    (rows, F) gives one rule per row in a single pass, flat, with the row
    of each node in ``row``; NaN marks a missing feature, and a feature of
    zero width is a plain break point.  Each row's nodes and weights are
    bit-identical to the rule built for that row alone.

    The rule covers (-GAUSS_RANGE, GAUSS_RANGE), or, with ``bounds`` = (lo,
    hi) of one value per row, (lo, hi) for each row: it then integrates
    f(Z) times the indicator of that interval, and a row with lo = hi gets
    no nodes.
    """
    f = np.asarray(features, dtype=float)
    many = f.ndim == 2
    if not many:
        f = f.reshape(1, f.size)
    s = np.asarray(widths, dtype=float).reshape(f.shape)
    rows = len(f)
    if bounds is None:
        hi = np.full((rows, 1), GAUSS_RANGE)
        lo = -hi
    else:
        lo, hi = (np.asarray(e, dtype=float).reshape(rows, 1) for e in bounds)
    # break points: the ends and every feature + k * width inside
    p = (f[:, :, None] + _FEATURE_OFFSETS * s[:, :, None]).reshape(rows, -1)
    p[~((p > lo) & (p < hi))] = np.nan
    pts = np.sort(np.concatenate([lo, p, hi], axis=1), axis=1)  # NaN last
    keep = ~np.isnan(pts)
    keep[:, 1:] &= pts[:, 1:] != pts[:, :-1]
    pt_row = np.nonzero(keep)[0]
    pts = pts[keep]
    # segments between consecutive break points of a row, each cut into
    # n equal chunks exactly as np.linspace(lo, hi, n + 1) cuts it
    seg = pt_row[1:] == pt_row[:-1]
    lo, hi, seg_row = pts[:-1][seg], pts[1:][seg], pt_row[:-1][seg]
    n = np.maximum(1, np.ceil((hi - lo) / chunk).astype(int))
    step = np.repeat((hi - lo) / n, n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    start = np.repeat(lo, n)
    a = j * step + start
    b = np.where(j + 1 < np.repeat(n, n), (j + 1) * step + start, np.repeat(hi, n))
    x, w = _leggauss_unit(order)
    width = (b - a)[:, None]
    nodes = (a[:, None] + width * x[None, :]).ravel()
    weights = (width * w[None, :]).ravel()
    weights = weights * np.exp(-0.5 * nodes * nodes - _LOG_SQRT_2PI)
    row = np.repeat(seg_row, n * order) if many else None
    return QuadratureRule(nodes=nodes, weights=weights, row=row)


def cubic_spline(x, y) -> Callable[[float], float]:
    """Not-a-knot cubic spline through the points (x, y), x increasing, as a
    function of one Python float; outside [x[0], x[-1]] the end cubics
    extrapolate.

    The node slopes come from one dense solve of the tridiagonal system
    (with the not-a-knot end rows, the boundary condition scipy's
    ``CubicSpline`` uses by default).  Piece k keeps its cubic in powers of
    dv = v - x[k] as lists of Python floats, so a call is one bisect and a
    few float operations.  The powers are summed in ascending order, as
    scipy's ``PPoly`` sums them: the value then equals ``CubicSpline``'s to
    the last bit at most points, where Horner's order misses it by an ulp
    at about a third of them.  The state-evolution tables call this
    evaluator inside their own transforms and clamps.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 4 or y.shape != x.shape:
        raise ValueError(f"need matching 1-D x and y of at least 4 points, "
                         f"got shapes {x.shape} and {y.shape}")
    h = np.diff(x)
    if not np.all(h > 0.0):
        raise ValueError("x must be strictly increasing")
    slope = np.diff(y) / h
    # row i: continuity of the second derivative at x[i]
    a = np.zeros((n, n))
    b = np.empty(n)
    i = np.arange(1, n - 1)
    a[i, i - 1] = h[1:]
    a[i, i] = 2.0 * (h[:-1] + h[1:])
    a[i, i + 1] = h[:-1]
    b[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[-2]
    d = x[2] - x[0]
    a[0, :2] = h[1], d
    b[0] = ((h[0] + 2.0 * d) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    a[-1, -2:] = d, h[-2]
    b[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d + h[-1]) * h[-2] * slope[-1]) / d
    s = np.linalg.solve(a, b)
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    xs, c0, c1 = x.tolist(), y[:-1].tolist(), s[:-1].tolist()
    c2, c3 = ((slope - s[:-1]) / h - t).tolist(), (t / h).tolist()
    k_hi = n - 1

    def spline(v: float) -> float:
        # bisect_right clamped to [1, n - 1]: the end pieces extrapolate
        k = bisect_right(xs, v, 1, k_hi) - 1
        dv = v - xs[k]
        return c0[k] + c1[k] * dv + c2[k] * (dv * dv) + c3[k] * (dv * dv * dv)

    return spline


# the most bisections between the smallest normal and the largest double
_ROOT_MAXITER = 2046
_TINY = np.finfo(float).tiny


def find_root(f: Callable[[np.ndarray], np.ndarray], a, b, targets,
              xatol: float, xrtol: float, f_ends=None) -> np.ndarray:
    """Roots x in [a, b] of f(x) = targets, elementwise, by Chandrupatla's
    bracketing method (Chandrupatla 1997, Adv. Eng. Softw. 28, 145).

    a and b are one bracket for every target, or one bracket per element
    (arrays broadcast against targets).  f maps an array of x to f
    elementwise.  It is called once on the bracket ends, every a then
    every b, unless the caller passes their f values as the pair f_ends =
    (fa, fb) (shaped as a and b broadcast), then once per step on the
    elements still open.  An element closes when its bracket is narrower
    than xatol + xrtol |x|, or when f - target vanishes (to the smallest
    normal double); its root is the bracket end with the smaller
    |f - target|.  Each element's iterates depend on its own bracket and
    target only, so a batch returns the roots of the separate calls.
    Elements still open after _ROOT_MAXITER steps, or where f is not
    finite, come back NaN.
    Raises BracketError when f - target takes the same sign at both ends
    of some element's bracket.
    """
    a, b = (np.ravel(v).astype(float) for v in np.broadcast_arrays(a, b))
    if f_ends is None:
        fa, fb = np.split(f(np.concatenate([a, b])), 2)
    else:
        fa, fb = map(np.ravel, f_ends)
    y, x1, f1, x2, f2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(
        np.ravel(targets), a, fa, b, fb))
    f1, f2 = f1 - y, f2 - y
    idx = np.arange(y.size)
    out = np.full(y.size, np.nan)
    for step in range(_ROOT_MAXITER + 1):
        near = np.abs(f1) < np.abs(f2)
        xmin = np.where(near, x1, x2)
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * xrtol + xatol
        zero = np.abs(np.where(near, f1, f2)) <= _TINY
        if step == 0:
            unbracketed = np.flatnonzero(~zero & (np.sign(f1) == np.sign(f2)))
            if unbracketed.size:
                k = unbracketed[0]
                raise BracketError(f"f - target has no sign change on "
                                   f"[{x1[k]}, {x2[k]}]")
        bad = ~(np.isfinite(f1) & np.isfinite(f2))
        done = (zero | (dx < tol)) & ~bad
        out[idx[done]] = xmin[done]
        keep = ~(done | bad)
        if step == _ROOT_MAXITER or not keep.any():
            break
        x1, f1, x2, f2, idx, y = (v[keep] for v in (x1, f1, x2, f2, idx, y))
        if step == 0:
            t = 0.5
        else:
            x3, f3 = x3[keep], f3[keep]
            # inverse quadratic interpolation where the three points allow
            # it (Chandrupatla's test), bisection elsewhere
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                al = (x3 - x1) / (x2 - x1)
                iqi = ((1.0 - np.sqrt(1.0 - xi)) < phi) & (phi < np.sqrt(xi))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - al * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol[keep] / dx[keep]
            t = np.clip(t, tl, 1.0 - tl)
        x = x1 + t * (x2 - x1)
        fx = f(x) - y
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    return out


@dataclass(frozen=True)
class FixedPointOptions:
    """Damping, tolerance, and iteration cap for fixed-point schemes."""

    damping: float = 0.0
    tol: float = 1e-10
    max_iter: int = 5000

    def __post_init__(self):
        # damping 1 never moves the iterate, which would read as convergence
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
