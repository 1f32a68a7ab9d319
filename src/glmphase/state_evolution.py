"""State-evolution recursion, attractor enumeration, and the phase-transition
finders alpha_IT, alpha_AMP, alpha_c.

The recursion alternates

    r_t = 2 alpha psi_pout'(q_t; rho),    q_{t+1} = 2 psi_p0'(r_t),

optionally damped on q.  Fixed points are the critical points of the replica
potential; the transition finders bisect on branch indicators:

* alpha_AMP: smallest alpha where the uninformative initialization reaches
  the recovery fixed point;
* alpha_IT: where the recovery/informative branch overtakes the best
  non-informative branch in free entropy.  When the recovery branch's free
  entropy diverges in the clamp depth (continuous prior or continuous
  noiseless channel), branches are compared through the divergence slope
  d f / d ln(1/depth), whose sign settles the deep-clamp limit.
* alpha_c = 1 / stability_integral for even channels.

``fast=True`` evaluates both scalar derivatives through cubic-spline tables
(built once per (prior) and (channel, rho), each from one array call of
psi'), which is what makes near-spinodal runs with ~1e5 iterations
affordable.  A finder that needs an SE limit raises SENonConvergenceError
when the run stops at its iteration cap instead of reading the last iterate
as the limit.  ``gamma_branches`` evaluates its residual grid in one call.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from . import replica
from .channels import Channel, LinearAWGN, quad_profile
from .numerics import BracketError, FixedPointOptions
from .priors import Prior, R_CAP
from .replica import RECOVERY_FRAC

# recovery declared at q > rho (1 - RECOVERY_FRAC); uninformative /
# informative initializations sit a factor 100 inside that threshold
UNINFORMATIVE_FRAC = 1e-6
INFORMATIVE_FRAC = 1e-6
# hard ceiling keeping psi_pout' evaluations inside their domain
_Q_GUARD = 1e-14

DEFAULT_SE_OPTS = FixedPointOptions(damping=0.0, tol=1e-10, max_iter=5000)
SPINODAL_SE_OPTS = FixedPointOptions(damping=0.0, tol=1e-10, max_iter=200_000)


class SENonConvergenceError(RuntimeError):
    """A state-evolution run whose limit decides a threshold hit its
    iteration cap; carries alpha and the iteration count."""

    def __init__(self, alpha: float, iterations: int, init_kind: str):
        super().__init__(
            f"state evolution from the {init_kind} initialization did not "
            f"converge in {iterations} iterations at alpha={alpha!r}; "
            "raise FixedPointOptions.max_iter"
        )
        self.alpha = alpha
        self.iterations = iterations


@dataclass(frozen=True)
class SETrajectory:
    q_seq: np.ndarray
    r_seq: np.ndarray
    converged: bool
    q_limit: float
    init_kind: str


@dataclass(frozen=True)
class TransitionReport:
    param: float
    alpha_it: float | None
    alpha_amp: float | None
    alpha_c: float | None
    bracket_width: float
    error: str | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fast scalar-function tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _prior_table(prior: Prior) -> Callable[[float], float]:
    """Cubic spline of 2 psi_p0'(r) in t = ln(1 + r)."""
    ts = np.linspace(0.0, math.log1p(R_CAP), 241)
    vals = 2.0 * prior.psi_p0_prime(np.expm1(ts))
    spline = CubicSpline(ts, vals)
    t_max = ts[-1]

    def f(r: float) -> float:
        return float(spline(min(math.log1p(max(r, 0.0)), t_max)))

    return f


@lru_cache(maxsize=32)
def _channel_table(channel: Channel, rho: float) -> Callable[[float], float]:
    """Cubic spline of ln psi_pout'(q) in u = logit(q / rho)."""
    qt = 1.0 / (1.0 + np.exp(-np.linspace(math.log(1e-9), math.log(1e13), 321)))
    # abscissae are the logits of the q actually evaluated: near q = rho the
    # rounding of qt moves them by up to 1e-3 from the uniform grid
    us = np.log(qt / (1.0 - qt))
    with quad_profile("fast"):
        vals = channel.psi_pout_prime(qt * rho, rho)
    vals = np.maximum(vals, 1e-300)
    spline = CubicSpline(us, np.log(vals))
    u_min, u_max = us[0], us[-1]
    v_min = vals[0]

    def f(q: float) -> float:
        qt = min(max(q / rho, 0.0), 1.0 - 1e-14)
        if qt <= 0.0:
            return 0.0
        u = math.log(qt / (1.0 - qt))
        if u < u_min:
            # even channels have psi' ~ kappa q near zero; extend linearly
            return v_min * (qt / (1e-9 / (1.0 + 1e-9)))
        return float(math.exp(spline(min(u, u_max))))

    return f


def _se_functions(prior: Prior, channel: Channel, rho: float, fast: bool):
    if not fast or isinstance(channel, LinearAWGN):
        return (lambda r: 2.0 * prior.psi_p0_prime(r),
                lambda q: channel.psi_pout_prime(q, rho))
    return _prior_table(prior), _channel_table(channel, rho)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def _classify_init(q0: float, rho: float) -> str:
    if q0 <= 1e-5 * rho:
        return "uninformative"
    if q0 >= rho * (1.0 - 1e-5):
        return "informative"
    return f"custom({q0:g})"


def se_run(prior: Prior, channel: Channel, alpha: float, q0: float,
           opts: FixedPointOptions | None = None, fast: bool = False) -> SETrajectory:
    """Iterate the two-line recursion from q0, recording the trajectory."""
    rho = prior.second_moment
    if not 0.0 <= q0 <= rho:
        raise ValueError(f"q0 must lie in [0, rho], got {q0}")
    if opts is None:
        opts = DEFAULT_SE_OPTS
    psi0p, psioutp = _se_functions(prior, channel, rho, fast)
    q_cap = rho * (1.0 - _Q_GUARD)

    q = min(float(q0), q_cap)
    q_seq, r_seq = [q], []
    converged = False
    for _ in range(opts.max_iter):
        r = min(2.0 * alpha * psioutp(min(q, q_cap)), R_CAP)
        q_new = (1.0 - opts.damping) * psi0p(r) + opts.damping * q
        q_new = min(q_new, q_cap)
        r_seq.append(r)
        q_seq.append(q_new)
        if abs(q_new - q) < opts.tol:
            q = q_new
            converged = True
            break
        q = q_new
    return SETrajectory(
        q_seq=np.asarray(q_seq), r_seq=np.asarray(r_seq),
        converged=converged, q_limit=q, init_kind=_classify_init(q0, rho),
    )


def gamma_branches(prior: Prior, channel: Channel, alpha: float,
                   opts: FixedPointOptions | None = None,
                   fast: bool = False) -> list[float]:
    """Candidate fixed points: SE limits from both canonical initializations
    plus grid-detected crossings of the one-step map."""
    rho = prior.second_moment
    if opts is None:
        opts = DEFAULT_SE_OPTS
    psi0p, psioutp = _se_functions(prior, channel, rho, fast)
    q_cap = rho * (1.0 - _Q_GUARD)

    def step(q):
        r = np.minimum(2.0 * alpha * psioutp(np.minimum(q, q_cap)), R_CAP)
        return psi0p(r)

    qs = [se_run(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts, fast).q_limit,
          se_run(prior, channel, alpha, rho * (1.0 - INFORMATIVE_FRAC), opts, fast).q_limit]
    if channel.is_even and abs(prior.mean) == 0.0:
        qs.append(0.0)  # exact symmetric fixed point

    # residual sign changes on a mixed log/linear grid
    grid = np.unique(np.concatenate([
        np.geomspace(1e-8, 0.5, 17) * rho,
        np.linspace(0.02, 1.0 - 1e-6, 25) * rho,
        (1.0 - np.geomspace(1e-6, 0.3, 9)) * rho,
    ]))
    # the exact functions take the whole grid at once; the tables one q
    steps = np.array([step(q) for q in grid]) if fast else step(grid)
    res = steps - grid
    for i in range(len(grid) - 1):
        if res[i] == 0.0:
            qs.append(float(grid[i]))
        elif res[i] * res[i + 1] < 0.0:
            from .numerics import bisect
            qs.append(bisect(lambda q: step(q) - q, float(grid[i]),
                             float(grid[i + 1]), tol=1e-12 * rho))

    if channel.is_even and abs(prior.mean) == 0.0:
        # snap numerically-vanishing limits onto the exact symmetric point
        qs = [0.0 if q < 1e-8 * rho else q for q in qs]

    # dedupe
    out: list[float] = []
    for q in sorted(qs):
        if not out or abs(q - out[-1]) > 1e-6 * rho:
            out.append(q)
        elif q > out[-1]:
            out[-1] = q
    return out


# ---------------------------------------------------------------------------
# transition finders
# ---------------------------------------------------------------------------

def _se_limit(prior: Prior, channel: Channel, alpha: float, q0: float,
              opts: FixedPointOptions) -> float:
    """Limit of a fast SE run from q0; a run stopped by the iteration cap
    raises instead of being read as a limit."""
    traj = se_run(prior, channel, alpha, q0, opts, fast=True)
    if not traj.converged:
        raise SENonConvergenceError(alpha, len(traj.r_seq), traj.init_kind)
    return traj.q_limit


def _bisect_bool(pred, lo: float, hi: float, tol: float) -> float:
    """Bisect a monotone boolean predicate: False at lo, True at hi."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def find_alpha_amp(prior: Prior, channel: Channel, alpha_lo: float,
                   alpha_hi: float, tol: float = 1e-3,
                   opts: FixedPointOptions | None = None) -> float:
    """Spinodal of the uninformative initialization; bisects the recovery flag."""
    rho = prior.second_moment
    if opts is None:
        opts = SPINODAL_SE_OPTS

    def recovered(alpha: float) -> bool:
        q_limit = _se_limit(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts)
        return q_limit > rho * (1.0 - RECOVERY_FRAC)

    if not recovered(alpha_hi):
        raise BracketError(f"no recovery at alpha_hi={alpha_hi}")
    if recovered(alpha_lo):
        raise BracketError(f"recovery already at alpha_lo={alpha_lo}")
    return _bisect_bool(recovered, alpha_lo, alpha_hi, tol)


@lru_cache(maxsize=64)
def _recovery_capable(channel: Channel, rho: float) -> bool:
    """Does psi_pout' blow up toward q = rho (exact-recovery fixed point)?"""
    return channel.psi_pout_prime(rho * (1.0 - 1e-6), rho) > 1e3


def _recovery_slope(prior: Prior, channel: Channel, alpha: float) -> float:
    """d f_recovery / d ln(1/depth), Aitken-extrapolated to depth -> 0.

    The sign decides whether the exact-recovery branch dominates in the
    noiseless limit; the finite-depth slope carries a geometrically decaying
    correction measured over successive depth decades.
    """
    rho = prior.second_moment
    d_min = max(1e-7, 100.0 * channel.delta / rho)
    depths = [1000.0 * d_min, 100.0 * d_min, 10.0 * d_min, d_min]
    fs = [replica.recovery_f(prior, channel, alpha, depth=d) for d in depths]
    slopes = [(fs[i + 1] - fs[i]) / math.log(10.0) for i in range(3)]
    d10, d21 = slopes[1] - slopes[0], slopes[2] - slopes[1]
    if abs(d10) > 1e-12 and 0.0 < d21 / d10 < 0.9:
        ratio = d21 / d10
        return slopes[2] + d21 * ratio / (1.0 - ratio)
    return slopes[2]


def _informative_state(prior: Prior, channel: Channel, alpha: float,
                       opts: FixedPointOptions):
    """(wins, merged): does the informative branch exist and globally win."""
    rho = prior.second_moment
    q_inf = _se_limit(prior, channel, alpha, rho * (1.0 - INFORMATIVE_FRAC),
                      opts)
    q_un = _se_limit(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts)
    merged = abs(q_inf - q_un) < 1e-4 * rho
    if merged and q_inf > rho * (1.0 - RECOVERY_FRAC):
        return True, False  # both initializations recover: trivially optimal
    sentinel_finite = prior.is_discrete and channel.is_discrete

    if sentinel_finite:
        if merged:
            return False, True
        f_un = replica.f_hat(prior, channel, alpha,
                             min(q_un, rho * (1.0 - 1e-10)))[0]
        if q_inf <= rho * (1.0 - RECOVERY_FRAC):
            f_inf = replica.f_hat(prior, channel, alpha, q_inf)[0]
            return f_inf >= f_un, False
        f_inf = replica.recovery_f(prior, channel, alpha, depth=1e-10)
        return f_inf >= f_un, False

    # Divergent sentinel.  The recovery branch is compared through its
    # depth-slope; SE reachability of the branch is not required (at tiny
    # delta > 0 the branch endpoint is shifted by O(1/ln(1/delta)) and the
    # slope criterion extrapolates the noiseless limit).
    if not _recovery_capable(channel, rho):
        if merged:
            return False, True
        f_un = replica.f_hat(prior, channel, alpha,
                             min(q_un, rho * (1.0 - 1e-10)))[0]
        f_inf = replica.f_hat(prior, channel, alpha, q_inf)[0]
        return f_inf >= f_un, False
    return _recovery_slope(prior, channel, alpha) > 0.0, merged


def find_alpha_it(prior: Prior, channel: Channel, alpha_lo: float,
                  alpha_hi: float, tol: float = 1e-3,
                  opts: FixedPointOptions | None = None) -> float | None:
    """First-order transition where the informative branch becomes the global
    optimizer; None when the branches merge (no transition)."""
    if opts is None:
        opts = SPINODAL_SE_OPTS
    wins_hi, merged_hi = _informative_state(prior, channel, alpha_hi, opts)
    if merged_hi:
        return None
    if not wins_hi:
        raise BracketError(f"informative branch not optimal at alpha_hi={alpha_hi}")
    wins_lo, _ = _informative_state(prior, channel, alpha_lo, opts)
    if wins_lo:
        raise BracketError(f"informative branch already optimal at alpha_lo={alpha_lo}")

    def pred(alpha: float) -> bool:
        wins, _ = _informative_state(prior, channel, alpha, opts)
        return wins

    return _bisect_bool(pred, alpha_lo, alpha_hi, tol)


def find_alpha_c(channel: Channel, rho: float) -> float:
    """Stability edge of the trivial fixed point: 1 / stability_integral."""
    integral = channel.stability_integral(rho)
    if integral <= 1e-12:
        raise ValueError(
            f"stability integral {integral!r} is not positive; "
            "channel carries no second-moment information at q = 0"
        )
    return 1.0 / integral


def phase_sweep(make_prior: Callable[[float], Prior],
                make_channel: Callable[[float], Channel],
                params, alpha_lo: float, alpha_hi: float,
                tol: float = 1e-3, workers: int = 1) -> list[TransitionReport]:
    """One TransitionReport per secondary-parameter value; row errors are
    recorded in-row and the sweep continues."""
    params = list(params)
    if not params:
        raise ValueError("empty parameter grid")

    def row(param: float) -> TransitionReport:
        try:
            prior = make_prior(param)
            channel = make_channel(param)
            rho = prior.second_moment
            alpha_c = None
            if channel.is_even:
                alpha_c = find_alpha_c(channel, rho)
            alpha_amp = find_alpha_amp(prior, channel, alpha_lo, alpha_hi, tol)
            alpha_it = find_alpha_it(prior, channel, alpha_lo, alpha_hi, tol)
            return TransitionReport(param=param, alpha_it=alpha_it,
                                    alpha_amp=alpha_amp, alpha_c=alpha_c,
                                    bracket_width=tol,
                                    metadata={"alpha_lo": alpha_lo,
                                              "alpha_hi": alpha_hi})
        except Exception as exc:  # per-row isolation
            return TransitionReport(param=param, alpha_it=None, alpha_amp=None,
                                    alpha_c=None, bracket_width=tol,
                                    error=f"{type(exc).__name__}: {exc}")

    if workers <= 1:
        return [row(p) for p in params]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row, params))
