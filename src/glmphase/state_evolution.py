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
  entropy diverges in the clamp depth (prior and channel not both discrete)
  and psi_pout' blows up toward q = rho, the sign of the divergence slope
  d f / d ln(1/depth) decides, and only alpha_hi runs SE, to tell a merged
  row (no transition).  Otherwise every alpha compares the free entropy
  of its two SE limits.  A limit (q, r) is a stationary point of f_rs, so
  short of recovery and off the snapped q = 0 the inner inf over r is at
  the run's own r: f_rs is read there, with psi_pout from ``replica``'s
  point cache and no root solve (``_limit_f``).  A snapped or recovered
  limit takes ``f_hat`` at q; under a discrete prior and channel a
  recovered one is taken at the clamp q = rho (1 - SENTINEL_DEPTH).
* alpha_c = 1 / stability_integral for even channels.

``fast=True`` evaluates both scalar derivatives through cubic-spline tables
(``numerics.cubic_spline``, not-a-knot, on Python floats; built once per
(prior) and (channel, rho), each from one array call of psi'), which is
what makes near-spinodal runs with ~1e5 iterations affordable.  Each
table transforms and clamps its argument and calls the evaluator that
``cubic_spline`` returns, and one step (``_se_step``) serves both modes,
calling either the two tables or the exact derivatives.  The tables serve
the phase finders (``find_alpha_amp``, ``find_alpha_it``) only:
``gamma_branches`` and ``replica.solve`` run the exact recursion, and the
CLI ``errors`` task reads its SE limit from ``solve``, so it builds no
table.  Their node sets are module constants:

* PRIOR_TABLE_NODES, in t = ln(1 + r): steps of h = ln(1 + R_CAP) / 240,
  except near r = 0, where 2 psi_p0' bends fastest relative to its value:
  there the first step is h / 32 and each next one 1.25 times longer,
  until they reach h at t = 0.33 (253 nodes);
* CHANNEL_TABLE_LOGITS, in u = ln(q / (rho - q)): the 321-node uniform grid on
  [ln 1e-9, ln 1e13] (spacing 0.158) up to u = 10, and above that only
  every 8th of its nodes, counted down from the top one (211 nodes).  Rows
  that close to q = rho cost the most kernel points, and ln psi_pout' is
  nearly linear in u there.  Below the lowest node the table is linear in
  q from psi_pout'(0), taken in the same array call.

The channel table takes its values from the ``fast`` quadrature profile of
``channels``: E_V panels of chunk width 4.0 and order 10 wherever the
channel has thresholds, and coarser y rows for a continuous channel.  For sign, abs and
the symmetric door its nodes are within 1e-7 relative of the exact profile,
and the spline within 5e-6 halfway between them.

A scale-free channel (``Channel.scale_free``: sign with any noise, and
noiseless abs, both with epsilon = 0) has
psi_pout'(q; rho) = psi_pout'(q / rho; 1) / rho, and u is the same at q
and q / rho, so its table at rho is its rho = 1 table with the values and
psi'(0) divided by rho and the lowest node q multiplied by rho; it builds
its rho = 1 values once.  Every other channel builds its table at each
rho.  ``_se_tables`` ships the values of four tables, the rho = 1 ones of
``Sign()``, ``Abs()`` and ``SymmetricDoor()`` and the prior table of
``RademacherPrior()`` (perceptron and door), written by
``tools/se_tables.py`` from the one array call of their build; one lookup
(``_shipped``) serves the channel and the prior tables.  A channel table
built at node rho 1 (a scale-free channel at any rho, any channel at
rho = 1) reads shipped values where there are some, so the door's serve
it at rho = 1 only.

A finder that needs an SE limit raises SENonConvergenceError
when the run stops at its iteration cap instead of reading the last iterate
as the limit.  ``gamma_branches`` evaluates its residual grid in one call
and solves every residual sign change of the grid in one batched
Chandrupatla call (``numerics.find_root``, one bracket per crossing, to
1e-12 rho), one array call of the residual per step; the bracket ends'
residuals come from the grid call.

For an even channel under a centred prior, q = 0 is an exact fixed point,
which a run from near 0 only approaches: it stops at about 1e-10 to 5e-9
rho.  One rule, ``_symmetric_snap``, reads a q below SNAP_FRAC * rho =
1e-8 rho there as 0.  It applies to every SE limit the finders read
(``_se_limit``) and to every branch of ``gamma_branches``, and nowhere
else: ``se_run``, and the SE generalization error that ``replica.solve``
takes from its run, keep the limit as the run left it.  At a snapped q_un
the alpha_IT comparison takes r = 0 without a root solve, and later
bisection steps read f_hat's terms there from ``replica``'s point caches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import replica
from .channels import Channel, quad_profile
from .numerics import BracketError, FixedPointOptions, cubic_spline, find_root
from .priors import Prior, R_CAP
from .replica import RECOVERY_FRAC

# recovery declared at q > rho (1 - RECOVERY_FRAC); uninformative /
# informative initializations sit a factor 100 inside that threshold
UNINFORMATIVE_FRAC = 1e-6
INFORMATIVE_FRAC = 1e-6
# hard ceiling keeping psi_pout' evaluations inside their domain
_Q_GUARD = 1e-14
# a fixed point below SNAP_FRAC * rho is the exact symmetric one, q = 0,
# where that exists (_symmetric_snap)
SNAP_FRAC = 1e-8
# clamp depth of a recovered limit in the alpha_IT comparison under a
# discrete prior and channel
SENTINEL_DEPTH = 1e-10

DEFAULT_SE_OPTS = FixedPointOptions(damping=0.0, tol=1e-10, max_iter=5000)
# alpha width at which the threshold bisections stop
BISECT_TOL = 1e-3
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

    def limit(self, alpha: float) -> float:
        """q_limit of a converged run; a run stopped by its iteration cap
        raises SENonConvergenceError instead of being read as a limit."""
        if not self.converged:
            raise SENonConvergenceError(alpha, len(self.r_seq), self.init_kind)
        return self.q_limit


@dataclass(frozen=True)
class TransitionReport:
    param: float
    alpha_it: float | None
    alpha_amp: float | None
    alpha_c: float | None
    error: str | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fast scalar-function tables
# ---------------------------------------------------------------------------

def _prior_nodes() -> np.ndarray:
    """PRIOR_TABLE_NODES; see the module docstring."""
    t_max = math.log1p(R_CAP)
    h = t_max / 240
    ts, step = [0.0], h / 32
    while step < h:
        ts.append(ts[-1] + step)
        step *= 1.25
    n = math.ceil((t_max - ts[-1]) / h)
    return np.concatenate([ts[:-1], np.linspace(ts[-1], t_max, n + 1)])


# a uniform grid down to r = 0 made the spline 4.7e-4 low for Rademacher at
# its first midpoint; 253 nodes
PRIOR_TABLE_NODES = _prior_nodes()


def _channel_logits() -> np.ndarray:
    """CHANNEL_TABLE_LOGITS; see the module docstring."""
    u = np.linspace(math.log(1e-9), math.log(1e13), 321)
    return u[(u <= 10.0) | ((u.size - 1 - np.arange(u.size)) % 8 == 0)]


# the 126 uniform nodes above u = 10 (q / rho > 0.99995) took half of a
# table build and carried almost no interpolation error; 211 nodes
CHANNEL_TABLE_LOGITS = _channel_logits()


# the table nodes in q at rho = 1; at rho they are rho times these, to the bit
_UNIT_NODES = 1.0 / (1.0 + np.exp(-CHANNEL_TABLE_LOGITS))


@lru_cache(maxsize=16)
def _shipped(obj, build, *args) -> np.ndarray:
    """build(obj, *args), or the values ``_se_tables`` (imported on first
    lookup) ships under obj's module and repr, so only for the shipped class."""
    from ._se_tables import VALUES
    text = VALUES.get(f"{type(obj).__module__}.{obj!r}")
    return build(obj, *args) if text is None else np.array(text.split(), dtype=float)


def _prior_values(prior: Prior) -> np.ndarray:
    """2 psi_p0' at PRIOR_TABLE_NODES, from one array call."""
    return 2.0 * prior.psi_p0_prime(np.expm1(PRIOR_TABLE_NODES))


@lru_cache(maxsize=32)
def _prior_table(prior: Prior) -> Callable[[float], float]:
    """2 psi_p0'(r) from a cubic spline in t = ln(1 + r) on
    PRIOR_TABLE_NODES, with r clamped to 0 and t to the top node."""
    spline = cubic_spline(PRIOR_TABLE_NODES, _shipped(prior, _prior_values))
    t_max = float(PRIOR_TABLE_NODES[-1])
    log1p = math.log1p

    def table(r: float) -> float:
        if 0.0 > r:
            r = 0.0
        t = log1p(r)
        if t_max < t:
            t = t_max
        return spline(t)

    return table


def _table_values(channel: Channel, rho: float) -> np.ndarray:
    """Fast-profile psi_pout' at the channel-table nodes, then at q = 0, from
    one array call.  psi'(0) comes last: the node values keep the q blocks
    of the call without it, on which a continuous channel's last bit
    depends.  ``tools/se_tables.py`` takes the shipped rho = 1 values
    from this call too."""
    with quad_profile("fast"):
        return channel.psi_pout_prime(np.append(_UNIT_NODES * rho, 0.0), rho)


@lru_cache(maxsize=32)
def _channel_table(channel: Channel, rho: float) -> Callable[[float], float]:
    """psi_pout'(q; rho) from a cubic spline of its log in
    u = ln(q / (rho - q)), on the nodes CHANNEL_TABLE_LOGITS: uniform
    (spacing 0.158) up to u = 10, 8 times sparser above, from one array call
    of fast-profile psi_pout'.  q is clamped below rho and u to the top
    node; below the lowest node (q_min, v_min) the table is linear in q
    from psi'(0) = v_zero.

    A scale-free channel's table is its rho = 1 table, with the values
    divided by rho: psi'(q; rho) = psi'(q / rho; 1) / rho, and u is the
    same at q and q / rho.  Values at node rho 1 are the shipped ones
    where ``_se_tables`` has them (``_shipped``)."""
    node_rho = 1.0 if channel.scale_free else rho
    if node_rho == 1.0:
        vals = _shipped(channel, _table_values, 1.0) / rho
    else:
        vals = _table_values(channel, rho)
    vals, v_zero = vals[:-1], float(vals[-1])
    bad = np.flatnonzero(~np.isfinite(vals) | (vals <= 0.0))
    if bad.size:
        raise ValueError(
            f"{channel!r} at rho={rho!r}: psi_pout'(q="
            f"{float(_UNIT_NODES[bad[0]] * rho)!r}) = {float(vals[bad[0]])!r}; "
            "the channel table needs a positive finite value at every node")
    # abscissae and lookup both take the logit of q itself: rho - q is exact
    # for q >= rho / 2, where 1 - q / rho rounds away up to 1e-3 of it near
    # q = rho unless rho is a power of two
    qs = _UNIT_NODES * node_rho
    us = np.log(qs / (node_rho - qs))
    spline = cubic_spline(us, np.log(vals))
    u_min, u_max = float(us[0]), float(us[-1])
    q_cap, q_min = rho * (1.0 - _Q_GUARD), float(_UNIT_NODES[0] * rho)
    v_min = float(vals[0])
    log, exp = math.log, math.exp

    def table(q: float) -> float:
        if q_cap < q:
            q = q_cap
        if q <= 0.0:
            return v_zero
        u = log(q / (rho - q))
        if u < u_min:
            # psi'(0) is 0 for an even channel, whose psi' grows like
            # kappa q there
            return v_zero + (v_min - v_zero) * (q / q_min)
        if u_max < u:
            u = u_max
        return exp(spline(u))

    return table


def _se_functions(prior: Prior, channel: Channel, rho: float):
    """2 psi_p0' and psi_pout', exact, on floats or arrays."""
    return (lambda r: 2.0 * prior.psi_p0_prime(r),
            lambda q: channel.psi_pout_prime(q, rho))


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def _classify_init(q0: float, rho: float) -> str:
    if q0 <= 1e-5 * rho:
        return "uninformative"
    if q0 >= rho * (1.0 - 1e-5):
        return "informative"
    return f"custom({q0:g})"


def _se_step(prior: Prior, channel: Channel, alpha: float, damping: float,
             fast: bool) -> Callable[[float], tuple[float, float]]:
    """One step of the recursion, q -> (r, q_new), with r and q_new clamped
    and q_new damped; q itself is at most the cap (``se_run``).  ``fast``
    reads both derivatives from their tables, unless psi_pout' is a closed
    form."""
    rho = prior.second_moment
    if fast and not channel.closed_form_prime:
        psi0p, psioutp = _prior_table(prior), _channel_table(channel, rho)
    else:
        psi0p, psioutp = _se_functions(prior, channel, rho)
    q_cap = rho * (1.0 - _Q_GUARD)
    two_alpha, keep = 2.0 * alpha, 1.0 - damping

    # here and in the tables "if b < a: a = b" is min(a, b), and
    # "if b > a: a = b" max(a, b), NaN included: a builtin call costs about
    # a third of a table step
    def step(q: float) -> tuple[float, float]:
        r = two_alpha * psioutp(q)
        if R_CAP < r:
            r = R_CAP
        q_new = keep * psi0p(r) + damping * q
        if q_cap < q_new:
            q_new = q_cap
        return r, q_new

    return step


def se_run(prior: Prior, channel: Channel, alpha: float, q0: float,
           opts: FixedPointOptions | None = None, fast: bool = False) -> SETrajectory:
    """Iterate the two-line recursion from q0, recording the trajectory."""
    rho = prior.second_moment
    if not 0.0 <= q0 <= rho:
        raise ValueError(f"q0 must lie in [0, rho], got {q0}")
    if opts is None:
        opts = DEFAULT_SE_OPTS
    step = _se_step(prior, channel, alpha, opts.damping, fast)
    tol = opts.tol

    q = min(float(q0), rho * (1.0 - _Q_GUARD))
    q_seq, r_seq = [q], []
    converged = False
    for _ in range(opts.max_iter):
        r, q_new = step(q)
        r_seq.append(r)
        q_seq.append(q_new)
        if abs(q_new - q) < tol:
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
                   uninformative: SETrajectory | None = None) -> list[float]:
    """Candidate fixed points: SE limits from both canonical initializations
    (of the runs that converged) plus grid-detected crossings of the
    one-step map.

    ``uninformative`` is the exact run from UNINFORMATIVE_FRAC * rho under
    ``opts`` when the caller has made it (``replica.solve`` does, and keeps
    it); otherwise it is run here."""
    rho = prior.second_moment
    if opts is None:
        opts = DEFAULT_SE_OPTS
    if uninformative is None:
        uninformative = se_run(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts)
    psi0p, psioutp = _se_functions(prior, channel, rho)
    q_cap = rho * (1.0 - _Q_GUARD)

    def residual(q):
        r = np.minimum(2.0 * alpha * psioutp(np.minimum(q, q_cap)), R_CAP)
        return psi0p(r) - q

    informative = se_run(prior, channel, alpha, rho * (1.0 - INFORMATIVE_FRAC), opts)
    # a run stopped at its iteration cap offers no fixed point; the grid
    # crossings below still bracket the ones it was heading for
    qs = [run.q_limit for run in (uninformative, informative) if run.converged]
    if _symmetric_point(prior, channel):
        qs.append(0.0)

    # residual sign changes on a mixed log/linear grid, all solved at once;
    # sorted(set()) rather than np.unique, which imports numpy.ma (20 ms)
    grid = np.array(sorted(set(np.concatenate([
        np.geomspace(1e-8, 0.5, 17) * rho,
        np.linspace(0.02, 1.0 - 1e-6, 25) * rho,
        (1.0 - np.geomspace(1e-6, 0.3, 9)) * rho,
    ]).tolist())))
    res = residual(grid)
    qs.extend(grid[:-1][res[:-1] == 0.0].tolist())
    cross = np.flatnonzero(res[:-1] * res[1:] < 0.0)
    if cross.size:
        qs.extend(find_root(residual, grid[cross], grid[cross + 1], 0.0,
                            xatol=1e-12 * rho, xrtol=0.0,
                            f_ends=(res[cross], res[cross + 1])).tolist())
    qs = [_symmetric_snap(prior, channel, q) for q in qs]

    # dedupe
    out: list[float] = []
    for q in sorted(qs):
        if not out or abs(q - out[-1]) > 1e-6 * rho:
            out.append(q)
        elif q > out[-1]:
            out[-1] = q
    return out


def _symmetric_point(prior: Prior, channel: Channel) -> bool:
    """q = 0 is an exact fixed point: an even channel under a centred prior."""
    return channel.is_even and prior.mean == 0.0


def _symmetric_snap(prior: Prior, channel: Channel, q: float) -> float:
    """q read as a fixed point: 0 below SNAP_FRAC * rho where q = 0 is an
    exact fixed point (``_symmetric_point``), q itself otherwise."""
    if q < SNAP_FRAC * prior.second_moment and _symmetric_point(prior, channel):
        return 0.0
    return q


# ---------------------------------------------------------------------------
# transition finders
# ---------------------------------------------------------------------------

def _se_limit(prior: Prior, channel: Channel, alpha: float, q0: float,
              opts: FixedPointOptions) -> tuple[float, float]:
    """(q, r) at the limit of a fast SE run from q0: q snapped onto the
    symmetric fixed point (``_symmetric_snap``), and the run's last r; a
    run stopped by the iteration cap raises instead of being read as a
    limit."""
    run = se_run(prior, channel, alpha, q0, opts, fast=True)
    q = _symmetric_snap(prior, channel, run.limit(alpha))
    return q, float(run.r_seq[-1])


def _check_tol(tol: float) -> None:
    """A bisection width is finite and positive: a NaN one ends at once."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection tol must be finite and positive, got {tol!r}")


def _bisect_bool(pred, lo: float, hi: float, tol: float) -> float:
    """Bisect a monotone boolean predicate: False at lo, True at hi.  It
    stops at width tol, or where lo and hi are adjacent floats."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def find_alpha_amp(prior: Prior, channel: Channel, alpha_lo: float,
                   alpha_hi: float, tol: float = BISECT_TOL,
                   opts: FixedPointOptions | None = None) -> float:
    """Spinodal of the uninformative initialization; bisects the recovery flag."""
    _check_tol(tol)
    rho = prior.second_moment
    if opts is None:
        opts = SPINODAL_SE_OPTS

    def recovered(alpha: float) -> bool:
        q_limit = _se_limit(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts)[0]
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
    fs = replica.recovery_f(prior, channel, alpha,
                            d_min * np.array([1000.0, 100.0, 10.0, 1.0])).tolist()
    slopes = [(fs[i + 1] - fs[i]) / math.log(10.0) for i in range(3)]
    d10, d21 = slopes[1] - slopes[0], slopes[2] - slopes[1]
    if abs(d10) > 1e-12 and 0.0 < d21 / d10 < 0.9:
        ratio = d21 / d10
        return slopes[2] + d21 * ratio / (1.0 - ratio)
    return slopes[2]


def _limit_f(prior: Prior, channel: Channel, alpha: float, q: float,
             r: float) -> float:
    """inf_r f_rs(q, r) at an SE limit (q, r).  A limit is a stationary
    point of f_rs, so short of recovery and off the snapped q = 0 its inner
    inf is at the run's own r: f_rs there, with psi_pout from ``replica``'s
    point cache, needs no root solve.  A snapped or recovered limit is
    ``f_hat`` at q: at q = 0 its terms are cached, and near q = rho the
    run's r is far above the inner-inf one."""
    rho = prior.second_moment
    if q == 0.0 or q > rho * (1.0 - RECOVERY_FRAC):
        return replica.f_hat(prior, channel, alpha, q)[0]
    psi_out = replica._exact_psi_pout(channel, q, rho)
    return replica._f_rs_terms(prior.psi_p0(r), psi_out, alpha, q, r)


def _informative_wins(prior: Prior, channel: Channel, alpha: float,
                      opts: FixedPointOptions, slope: bool) -> bool | None:
    """Does the informative branch globally win; None when both
    initializations merge short of recovery.  With ``slope`` the recovery
    branch need not be SE-reachable: at tiny delta > 0 its endpoint shifts
    by O(1/ln(1/delta)), and the slope extrapolates the noiseless limit."""
    rho = prior.second_moment
    q_inf, r_inf = _se_limit(prior, channel, alpha,
                             rho * (1.0 - INFORMATIVE_FRAC), opts)
    q_un, r_un = _se_limit(prior, channel, alpha, UNINFORMATIVE_FRAC * rho, opts)
    recovered = q_inf > rho * (1.0 - RECOVERY_FRAC)
    if abs(q_inf - q_un) < 1e-4 * rho:
        return True if recovered else None
    if slope:
        return _recovery_slope(prior, channel, alpha) > 0.0
    f_un = _limit_f(prior, channel, alpha, q_un, r_un)
    if recovered and prior.is_discrete and channel.is_discrete:
        f_inf = replica.recovery_f(prior, channel, alpha, depth=SENTINEL_DEPTH)
    else:
        f_inf = _limit_f(prior, channel, alpha, q_inf, r_inf)
    return f_inf >= f_un


def find_alpha_it(prior: Prior, channel: Channel, alpha_lo: float,
                  alpha_hi: float, tol: float = BISECT_TOL,
                  opts: FixedPointOptions | None = None) -> float | None:
    """First-order transition where the informative branch becomes the global
    optimizer; None when the branches merge (no transition)."""
    _check_tol(tol)
    if opts is None:
        opts = SPINODAL_SE_OPTS
    # the comparison, chosen once; see the module docstring
    slope = (not (prior.is_discrete and channel.is_discrete)
             and _recovery_capable(channel, prior.second_moment))
    wins_hi = _informative_wins(prior, channel, alpha_hi, opts, slope)
    if wins_hi is None:
        return None
    if not wins_hi:
        raise BracketError(f"informative branch not optimal at alpha_hi={alpha_hi}")

    def wins(alpha: float) -> bool:
        if slope:
            return _recovery_slope(prior, channel, alpha) > 0.0
        return bool(_informative_wins(prior, channel, alpha, opts, False))

    if wins(alpha_lo):
        raise BracketError(f"informative branch already optimal at alpha_lo={alpha_lo}")
    return _bisect_bool(wins, alpha_lo, alpha_hi, tol)


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
                tol: float = BISECT_TOL) -> list[TransitionReport]:
    """One TransitionReport per secondary-parameter value; row errors are
    recorded in-row and the sweep continues."""
    params = list(params)
    if not params:
        raise ValueError("empty parameter grid")
    _check_tol(tol)

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
                                    metadata={"alpha_lo": alpha_lo,
                                              "alpha_hi": alpha_hi})
        except Exception as exc:  # per-row isolation
            return TransitionReport(param=param, alpha_it=None, alpha_amp=None,
                                    alpha_c=None, error=f"{type(exc).__name__}: {exc}")

    return [row(p) for p in params]
