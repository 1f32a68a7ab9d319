"""Quadrature, root finding, and damped fixed-point iteration.

Every Gaussian expectation in this package goes through the probabilists'
Gauss-Hermite rule of :func:`gauss_hermite`: nodes and weights for
E[f(Z)] with Z ~ N(0,1), weights forming a probability vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

DEFAULT_GH_ORDER = 99


class NonFiniteIntegrandError(ValueError):
    """Integrand returned NaN or inf; carries the offending abscissa."""

    def __init__(self, x, value):
        super().__init__(f"integrand returned {value!r} at x={x!r}")
        self.x = x
        self.value = value


class BracketError(ValueError):
    """Root bracket has no sign change."""


class FixedPointDivergenceError(RuntimeError):
    """Fixed-point iterate left the finite floats; carries the trajectory prefix."""

    def __init__(self, trajectory):
        super().__init__(
            f"fixed-point iteration diverged after {len(trajectory)} steps"
        )
        self.trajectory = list(trajectory)


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
def _gh_cached(order: int):
    x, w = hermgauss(order)
    nodes = np.sqrt(2.0) * x
    weights = w / np.sqrt(np.pi)
    return nodes, weights


def gauss_hermite(order: int) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule: E[f(Z)] ~ sum(w_i * f(z_i)), Z ~ N(0,1).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nodes, weights = _gh_cached(int(order))
    return QuadratureRule(nodes=nodes, weights=weights)


_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _like(x, out):
    """float for a scalar input x, else the array out."""
    return float(out) if np.ndim(x) == 0 else out


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


def _gl_on_edges(edges, order: int):
    """Composite Gauss-Legendre nodes/weights, one panel between each pair of
    consecutive edges."""
    x, w = _leggauss_unit(order)
    e = np.asarray(edges)
    lo = e[:-1][:, None]
    width = np.diff(e)[:, None]
    return (lo + width * x[None, :]).ravel(), (width * w[None, :]).ravel()


# panel break points sit at feature + k * width for these k
_FEATURE_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])


def gauss_panels(features=(), widths=(), half_range: float = 9.0,
                 chunk: float = 0.6, order: int = 16) -> QuadratureRule:
    """Composite Gauss-Legendre rule for E[f(Z)], Z ~ N(0,1), with panels
    refined around each feature +- a few widths.

    Unlike Gauss-Hermite, this resolves integrand structure much narrower
    than the node spacing of any practical Hermite order.

    ``features`` and ``widths`` of shape (F,) give one rule.  Shape
    (rows, F) gives one rule per row in a single pass, flat, with the row
    of each node in ``row``; NaN marks a missing feature.  Each row's nodes
    and weights are bit-identical to the rule built for that row alone.
    """
    f = np.asarray(features, dtype=float)
    many = f.ndim == 2
    if not many:
        f = f.reshape(1, f.size)
    s = np.asarray(widths, dtype=float).reshape(f.shape)
    rows = len(f)
    # break points: +-half_range and every feature + k * width inside
    p = (f[:, :, None] + _FEATURE_OFFSETS * s[:, :, None]).reshape(rows, -1)
    p[~((p > -half_range) & (p < half_range))] = np.nan
    ends = np.full((rows, 1), half_range)
    pts = np.sort(np.concatenate([-ends, p, ends], axis=1), axis=1)  # NaN last
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


def integrate_1d(f: Callable[[float], float], lo: float, hi: float,
                 tol: float = 1e-9) -> float:
    """Adaptive Simpson integration of f over [lo, hi] to absolute tolerance tol."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def ev(x):
        v = float(f(x))
        if not np.isfinite(v):
            raise NonFiniteIntegrandError(x, v)
        return v

    width_floor = 1e-13 * (abs(hi - lo) + abs(lo) + abs(hi))
    mid = 0.5 * (lo + hi)
    fl, fm, fh = ev(lo), ev(mid), ev(hi)
    whole = (hi - lo) / 6.0 * (fl + 4.0 * fm + fh)
    stack = [(lo, hi, fl, fm, fh, whole, tol)]
    total = 0.0
    while stack:
        a, b, fa, fab, fb, s, eps = stack.pop()
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = ev(lm), ev(rm)
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fab)
        sr = (b - m) / 6.0 * (fab + 4.0 * frm + fb)
        err = sl + sr - s
        if abs(err) <= 15.0 * eps or (b - a) <= width_floor:
            total += sl + sr + err / 15.0
        else:
            half = 0.5 * eps
            stack.append((a, m, fa, flm, fab, sl, half))
            stack.append((m, b, fab, frm, fb, sr, half))
    return total


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-12) -> float:
    """Bisection root of f on [lo, hi]; requires f(lo) * f(hi) <= 0."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at float resolution
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FixedPointOptions:
    """Damping, tolerance, and iteration cap for fixed-point schemes."""

    damping: float = 0.0
    tol: float = 1e-10
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class FixedPointResult(NamedTuple):
    x: float
    iterations: int
    converged: bool


def damped_fixed_point(F: Callable[[float], float], x0: float,
                       opts: FixedPointOptions | None = None) -> FixedPointResult:
    """Iterate x <- (1 - damping) * F(x) + damping * x until |step| < tol."""
    if opts is None:
        opts = FixedPointOptions()
    x = float(x0)
    trajectory = [x]
    for t in range(1, opts.max_iter + 1):
        fx = float(F(x))
        x_new = (1.0 - opts.damping) * fx + opts.damping * x
        if not np.isfinite(x_new):
            raise FixedPointDivergenceError(trajectory)
        trajectory.append(x_new)
        if abs(x_new - x) < opts.tol:
            return FixedPointResult(x_new, t, True)
        x = x_new
    return FixedPointResult(x, opts.max_iter, False)
