"""Adaptive Simpson integration, the reference the tests compare
Gauss-Hermite and panel quadratures against."""
from __future__ import annotations

from typing import Callable

import numpy as np


class NonFiniteIntegrandError(ValueError):
    """Integrand returned NaN or inf; carries the offending abscissa."""

    def __init__(self, x, value):
        super().__init__(f"integrand returned {value!r} at x={x!r}")
        self.x = x
        self.value = value


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
