"""Write ``src/glmphase/_erfcx_table.py``, the coefficients of
``glmphase.numerics.erfcx``.

    python tools/erfcx_table.py

The kernel evaluates erfcx(x) = erfc(x) exp(x^2), x >= 0, as a polynomial
in s = 4 NBINS / (4 + x) = NBINS y, where y = 4 / (4 + x) is the variable of
S. G. Johnson's Faddeeva package (http://ab-initio.mit.edu/Faddeeva).  s
runs from 0 at x = inf to NBINS at x = 0.  Bin k holds the polynomial in
u = s - k on [0, 1]: it interpolates erfcx at the DEGREE + 1 Chebyshev
points of that interval, evaluated with mpmath at DPS decimal digits, and
its monomial coefficients are rounded to the nearest double only at the
end.  Bin 0 interpolates erfcx / u with one degree less and has no
constant term, so erfcx(inf) is exactly 0 and large x keep their relative
accuracy.  Bin NBINS reaches a little below x = 0, so that s = NBINS
(x = 0) needs no clamp.

The output is a plain module that holds the coefficients as text, one
bin per line, each number the shortest decimal that rounds back to its
double; rerunning this script reproduces it bit for bit.
"""
from __future__ import annotations

from pathlib import Path

import mpmath

NBINS = 648
DEGREE = 5
DPS = 50
TABLE = Path(__file__).resolve().parents[1] / "src" / "glmphase" / "_erfcx_table.py"


def bin_coefficients(k: int) -> tuple[float, ...]:
    """Coefficients of u^0 .. u^DEGREE of bin k, rounded to doubles."""
    with mpmath.workdps(DPS):
        # bin 0 fits erfcx / u, a polynomial of one degree less
        lead = 1 if k == 0 else 0
        n = DEGREE + 1 - lead
        us = [(1 - mpmath.cos(mpmath.pi * (2 * j + 1) / (2 * n))) / 2
              for j in range(n)]
        xs = [4 * NBINS / (k + u) - 4 for u in us]
        f = mpmath.matrix([mpmath.erfc(x) * mpmath.exp(x * x) / u ** lead
                           for x, u in zip(xs, us)])
        vander = mpmath.matrix([[u ** p for p in range(n)] for u in us])
        return (0.0,) * lead + tuple(float(c) for c in mpmath.lu_solve(vander, f))


def render() -> str:
    rows = "\n".join(" ".join(repr(c) for c in bin_coefficients(k))
                     for k in range(NBINS + 1))
    return f'''"""Coefficients of numerics.erfcx, written by tools/erfcx_table.py
(mpmath, {DPS} digits).

Line k of COEFFS is bin k: the coefficients of u**0 .. u**{DEGREE}, u = s - k,
where s = SCALE / (4 + x).  The bins cover 0 <= x <= inf.  The numbers
are text, parsed once at import: as {(NBINS + 1) * (DEGREE + 1)} float literals they would take
about ten times longer to compile.
"""

SCALE = {float(4 * NBINS)!r}

COEFFS = """
{rows}
"""
'''


if __name__ == "__main__":
    TABLE.write_text(render())
    print(f"wrote {TABLE}")
