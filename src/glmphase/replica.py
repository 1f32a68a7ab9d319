"""Replica-symmetric potential, its sup-inf optimization over the
fixed-point set, and the derived asymptotic errors.

The potential is

    f_rs(q, r) = psi_p0(r) + alpha * psi_pout(q; rho) - r q / 2

with optimizers characterized equivalently as the best state-evolution fixed
point or as the direct sup over q of the inner inf over r (the inner inf is
attained where 2 psi_p0'(r) = q, by convexity of psi_p0).  ``solve`` runs
both routes and insists they agree; a value that is not finite on
either route fails that check too.  Route B walks the curve of inner-inf points, which r
parametrizes explicitly: at t = ln(1 + r) the point is
(q, r) = (2 psi_p0'(r), r), so its grid costs one prior pass
(``Prior.psi_p0_and_prime``, which gives psi_p0' and psi_p0 from the same
panel rules) and one psi_pout array call and no root solve, and its
refinement runs in t, by Brent's method seeded with the grid points around
the best one, one prior pass and one psi_pout call per step.  It stays
independent of the state-evolution spline tables, so it remains a
cross-check of Route A.

The exact-recovery branch (q = rho, r = +inf) is represented by a sentinel;
its free-entropy value is the limit inf_r f_rs(rho, r), approximated at
q = rho (1 - 1e-6).  For setups where that limit diverges (continuous prior
or continuous noiseless channel) the transition finders in
``state_evolution`` compare branches through the divergence slope instead.
``f_hat`` reads its two alpha-independent terms from exact point caches:
(r, psi_p0(r)) at the inner-inf r per (prior, q), and psi_pout under the
exact profile, whichever is active, per (channel, q, rho).  It takes an
array of q too, whose uncached q share one root solve.  At an SE limit
short of recovery the finders need no ``f_hat``: the limit (q, r) is a
stationary point of f_rs, so its inner inf is at the run's own r, and
``state_evolution`` reads f_rs there with psi_pout from the same cache.
``recovery_f`` is ``f_hat`` at the clamp, so its root is solved once per
(prior, depth) and serves both routes of ``solve``: Route A's recovery
point is ``recovery_f`` at EVAL_DEPTH, and Route B's t range ends at its r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .channels import Channel, quad_profile
from .numerics import find_root, gauss_panels
from .priors import Prior, R_CAP

if TYPE_CHECKING:
    from .state_evolution import SETrajectory

# q above rho * (1 - RECOVERY_FRAC) counts as the exact-recovery branch
RECOVERY_FRAC = 1e-4
# depth at which the recovery branch's free entropy is evaluated
EVAL_DEPTH = 1e-6
# points of Route B's grid, placed near uniform in q (_direct_sup_inf)
GRID_SIZE = 201
# two optimizers are "the same" when |dq| < UNIQUE_FRAC * rho
UNIQUE_FRAC = 1e-4
_TIE_TOL = 1e-6
# the two routes must agree to ROUTE_TOL in free entropy
ROUTE_TOL = 1e-5
# mu values per panel rule of _mean_label_rows (about 500 nodes each): the
# node arrays stay within the peak memory of the other steps of solve
_MU_ROWS = 64


class RouteDisagreementError(RuntimeError):
    """The Gamma-based and direct sup-inf routes disagree beyond tolerance."""

    def __init__(self, f_gamma, f_direct, tol):
        super().__init__(
            f"replica routes disagree: gamma={f_gamma!r}, direct={f_direct!r}, "
            f"tol={tol!r}; increase quadrature order or inspect for a missed branch"
        )
        self.f_gamma = f_gamma
        self.f_direct = f_direct


@dataclass(frozen=True)
class ReplicaPoint:
    q: float
    r: float
    f_value: float


@dataclass(frozen=True)
class ReplicaSolution:
    q_star: float
    r_star: float
    free_entropy: float
    gamma_set: tuple[ReplicaPoint, ...]
    unique: bool
    mmse: float
    matrix_mmse: float
    gen_error: float
    f_gamma: float      # Route A: the best state-evolution fixed point
    f_direct: float     # Route B: the sup along the inner-inf curve
    # Route A's exact SE run from the uninformative start: its q_limit, and
    # whether it converged, give the SE generalization error
    se_uninformative: SETrajectory = field(repr=False, compare=False)


def f_rs(prior: Prior, channel: Channel, alpha: float, q: float, r: float) -> float:
    """psi_p0(r) + alpha * psi_pout(q; rho) - r q / 2."""
    rho = prior.second_moment
    if not 0.0 <= q <= rho:
        raise ValueError(f"need 0 <= q <= rho, got q={q}")
    if not r >= 0:
        raise ValueError(f"need r >= 0, got r={r}")
    return _f_rs_terms(prior.psi_p0(r), channel.psi_pout(q, rho), alpha, q, r)


def _f_rs_terms(psi_in, psi_out, alpha: float, q, r):
    """f_rs from psi_in = psi_p0(r) and psi_out = psi_pout(q; rho); every
    caller sums in this order, elementwise for arrays."""
    return psi_in + alpha * psi_out - 0.5 * r * q


def _psi_pout_at_rho(channel: Channel, rho: float) -> float:
    """psi_pout(rho); falls back to the evaluation depth when the literal
    value diverges (noiseless continuous channels)."""
    try:
        return channel.psi_pout(rho, rho)
    except ValueError:
        return channel.psi_pout(rho * (1.0 - EVAL_DEPTH), rho)


def i_rs(prior: Prior, channel: Channel, alpha: float, q: float, r: float) -> float:
    """Mutual-information potential; equals alpha * psi_pout(rho) - f_rs."""
    return alpha * _psi_pout_at_rho(channel, prior.second_moment) \
        - f_rs(prior, channel, alpha, q, r)


def inner_inf_r(prior: Prior, q):
    """argmin over r of f_rs(q, .): solves 2 psi_p0'(r) = q (psi' monotone).

    q may be an array: all roots come from one batched bracketing solve
    (Chandrupatla's method, ``numerics.find_root``), with psi_p0' evaluated
    on the array of active iterates at each step.  Where no q exceeds
    2 psi_p0'(0) = mean^2, every r is 0 and psi_p0' is taken at no r > 0;
    r is capped at R_CAP.  A negative or NaN q raises.
    """
    q_arr = np.asarray(q, dtype=float)
    qf = q_arr.reshape(-1)
    if not np.all(qf >= 0.0):
        raise ValueError(f"inner_inf_r needs q >= 0 and not NaN, got q={q}")
    r = np.zeros(qf.size)
    above = qf > 2.0 * prior.psi_p0_prime(0.0)
    if above.any():
        r[above] = R_CAP
        todo = np.flatnonzero(above & (qf < 2.0 * prior.psi_p0_prime(R_CAP)))
        if todo.size:
            # root in u = ln(1 + r): relative precision across 8 decades of r
            u = find_root(lambda t: 2.0 * prior.psi_p0_prime(np.expm1(t)),
                          0.0, math.log1p(R_CAP), qf[todo], xatol=1e-13,
                          xrtol=1e-14)
            failed = np.isnan(u)
            if failed.any():
                raise ValueError(f"no root of 2 psi_p0'(r) = q for q = "
                                 f"{qf[todo][failed]}")
            r[todo] = np.expm1(u)
    return float(r[0]) if q_arr.ndim == 0 else r.reshape(q_arr.shape)


def f_hat(prior: Prior, channel: Channel, alpha: float, q):
    """(inf_r f_rs(q, r), argmin r): the float of ``f_rs`` at ``inner_inf_r``
    under the exact profile, from the point caches; psi_pout rejects a q
    outside [0, rho] before a root is solved.

    q may be an array: f and r come back as arrays of its shape, each
    element the float of the scalar call.  psi_pout is one cached call per
    q (a continuous channel's last bits depend on which q share its pass),
    and the q the prior's point cache lacks share one root solve
    (``_inner_points``)."""
    rho = prior.second_moment
    q_arr = np.asarray(q, dtype=float)
    qs = q_arr.reshape(-1).tolist()
    psi_out = np.array([_exact_psi_pout(channel, x, rho) for x in qs])
    r, psi_in = _inner_points(prior, qs)
    f = _f_rs_terms(psi_in, psi_out, alpha, q_arr.reshape(-1), r)
    if q_arr.ndim == 0:
        return float(f[0]), float(r[0])
    return f.reshape(q_arr.shape), r.reshape(q_arr.shape)


# (prior, q) -> (r, psi_p0(r)) at the inner-inf r of q, shared by every
# channel and alpha; the oldest entries go beyond _POINTS_MAX
_INNER_POINTS: dict = {}
_POINTS_MAX = 256


def _inner_points(prior: Prior, qs: list) -> tuple[np.ndarray, np.ndarray]:
    """(r, psi_p0(r)) at the inner-inf r of each q of qs, from the point
    cache; the q it lacks share one batched ``inner_inf_r`` call and one
    psi_p0 array call, whose floats are those of separate calls."""
    missing = [q for q in dict.fromkeys(qs) if (prior, q) not in _INNER_POINTS]
    if missing:
        r = inner_inf_r(prior, np.array(missing))
        _INNER_POINTS.update(zip(((prior, q) for q in missing),
                                 zip(r.tolist(), prior.psi_p0(r).tolist())))
    out = np.array([_INNER_POINTS[prior, q] for q in qs]).reshape(-1, 2)
    while len(_INNER_POINTS) > _POINTS_MAX:
        del _INNER_POINTS[next(iter(_INNER_POINTS))]
    return out[:, 0], out[:, 1]


@lru_cache(maxsize=256)
def _exact_psi_pout(channel: Channel, q: float, rho: float) -> float:
    """psi_pout(q; rho) under the exact profile, per (channel, q, rho)."""
    with quad_profile("exact"):
        return channel.psi_pout(q, rho)


def recovery_f(prior: Prior, channel: Channel, alpha: float,
               depth=EVAL_DEPTH):
    """Free entropy of the exact-recovery branch at clamp q = rho (1 - depth).

    f_rs(rho, r) decreases in r, so lim_{r->inf} f_rs(rho, r) = inf_r, which
    this approximates from inside the domain: it is ``f_hat`` at the clamp.
    depth may be an array, as q of ``f_hat``.
    """
    return f_hat(prior, channel, alpha,
                 prior.second_moment * (1.0 - np.asarray(depth, dtype=float)))[0]


def solve(prior: Prior, channel: Channel, alpha: float,
          grid_size: int = GRID_SIZE) -> ReplicaSolution:
    """Optimize the potential by both routes; see module docstring."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if grid_size < 3:
        # Route B seeds its refinement with three grid points
        raise ValueError(f"grid_size must be at least 3, got {grid_size}")
    from . import state_evolution as se

    rho = prior.second_moment

    # Route A: state-evolution fixed points plus grid-detected crossings.
    opts = se.DEFAULT_SE_OPTS
    uninformative = se.se_run(prior, channel, alpha, se.UNINFORMATIVE_FRAC * rho,
                              opts)
    branch_qs = se.gamma_branches(prior, channel, alpha, opts, uninformative)
    points = []
    for q in branch_qs:
        if q > rho * (1.0 - RECOVERY_FRAC):
            # the exact-recovery branch, at the clamp Route B ends on
            q, r = rho, math.inf
            f = recovery_f(prior, channel, alpha, EVAL_DEPTH)
        else:
            r = min(2.0 * alpha * channel.psi_pout_prime(q, rho), R_CAP)
            f = f_rs(prior, channel, alpha, q, r)
        points.append(ReplicaPoint(q=q, r=r, f_value=f))
    f_gamma = max(p.f_value for p in points)

    f_direct = _direct_sup_inf(prior, channel, alpha, grid_size)

    # a NaN on either route fails the check: abs(x - nan) > tol is False
    if not (math.isfinite(f_gamma) and math.isfinite(f_direct)) \
            or abs(f_gamma - f_direct) > ROUTE_TOL:
        raise RouteDisagreementError(f_gamma, f_direct, ROUTE_TOL)

    # winner: max f, ties toward larger q
    best = max(points, key=lambda p: (p.f_value, p.q))
    near = [p for p in points
            if p.f_value >= best.f_value - _TIE_TOL * max(1.0, abs(best.f_value))]
    unique = all(abs(p.q - best.q) < UNIQUE_FRAC * rho for p in near)

    q_star = best.q
    return ReplicaSolution(
        q_star=q_star,
        r_star=best.r,
        free_entropy=best.f_value,
        gamma_set=tuple(sorted(points, key=lambda p: p.q)),
        unique=unique,
        mmse=rho - q_star,
        matrix_mmse=rho ** 2 - q_star ** 2,
        gen_error=generalization_error(channel, rho, q_star),
        f_gamma=f_gamma,
        f_direct=f_direct,
        se_uninformative=uninformative,
    )


def _direct_sup_inf(prior: Prior, channel: Channel, alpha: float,
                    grid_size: int) -> float:
    """Route B: sup of f_rs along the curve of inner-inf points.

    r = expm1(t) and q = min(2 psi_p0'(r), q_hi) is an exact inner-inf point
    for every t >= 0, so the sup over q needs no root solve.  The t = 0 end
    is q = mean^2; below it the inner inf is r = 0, where f increases in q.
    The top of the t range is the clamp root that Route A's recovery point
    uses (``_inner_points`` at q_hi).  The grid is placed near uniform in q by
    inverting a coarse q(t), then refined by Brent's method in t, seeded
    with the grid points around the best one, until the bracket is 1e-9
    max(rho, 1) wide in q.  A NaN anywhere on the grid, or an infinite
    best grid value, is returned as the value.
    """
    rho = prior.second_moment
    q_hi = rho * (1.0 - EVAL_DEPTH)

    def point(t):
        """(q, f) at t, from one prior pass."""
        r = np.expm1(t)
        psi_in, prime = prior.psi_p0_and_prime(r)
        q = np.minimum(2.0 * prime, q_hi)
        return q, _f_rs_terms(psi_in, channel.psi_pout(q, rho), alpha, q, r)

    r_hi = float(_inner_points(prior, [q_hi])[0][0])
    t_coarse = np.linspace(0.0, math.log1p(r_hi), 65)
    q_coarse = np.minimum(2.0 * prior.psi_p0_prime(np.expm1(t_coarse)), q_hi)
    ts = np.interp(np.linspace(q_coarse[0], q_coarse[-1], grid_size),
                   q_coarse, t_coarse)
    qs, fs = point(ts)
    k = int(np.argmax(fs))  # the first NaN, if there is one
    if not math.isfinite(fs[k]):
        return float(fs[k])
    lo, hi = max(k - 1, 0), min(k + 1, grid_size - 1)
    # dq/dt inside the bracket stays below twice its steepest grid slope
    slope = np.max(np.diff(qs[lo:hi + 1]) / np.diff(ts[lo:hi + 1]))
    tol = 0.5 * 1e-9 * max(rho, 1.0) / max(slope, 1e-300)
    # the two other points of the three grid points around k (the last
    # three at an end of the grid), the better one first
    mid = min(max(k, 1), grid_size - 2)
    w, v = sorted({mid - 1, mid, mid + 1} - {k}, key=lambda i: -fs[i])
    return _brent_max(lambda t: float(point(t)[1]), ts[lo], ts[hi],
                      (ts[k], fs[k]), (ts[w], fs[w]), (ts[v], fs[v]), tol)


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def _brent_max(f, a, b, x, w, v, tol):
    """max of f on [a, b] by Brent's method (Brent 1973, Algorithms for
    Minimization without Derivatives, ch. 5), turned to a maximum.

    x, w and v are (t, f(t)) pairs already known, best first.  Each step
    fits a parabola through the three best points and goes to its vertex
    when that lies inside the bracket and the step is shorter than half
    the step before last; otherwise it takes a golden-section step into
    the longer side of the bracket.  One rule is added: when the vertex
    lies on the shorter side of the best point, a probe 3 tol / 8 from
    the best point closes the longer side instead, unless the last point
    taken became the best one (so probes cannot walk).  It closes an end
    maximum in one step, and an interior one once the parabola has found
    it, where golden-section steps took up to 17 more.  It stops when the
    bracket is at most tol wide, with no point taken nearer than tol / 4
    to the best one, and returns the best value.
    """
    (x, fx), (w, fw), (v, fv) = x, w, v
    tol1 = 0.25 * tol
    # the step before last, which a parabolic step must halve: the seed
    # points lie about one grid step apart
    d = e = b - a
    u = None
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            return float(fx)
        step = "golden"
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # the vertex is x + p / q
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                step = "parabolic"
            elif q > 0.0 and p * (m - x) <= 0.0 and u != x:
                step = "probe"
            e = d
        if step == "parabolic":
            d = p / q
            if x + d - a < 2.0 * tol1 or b - x - d < 2.0 * tol1:
                d = math.copysign(tol1, m - x)
        elif step == "probe":
            d = math.copysign(1.5 * tol1, m - x)
        else:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


# ---------------------------------------------------------------------------
# generalization error
# ---------------------------------------------------------------------------

def _mean_label_rows(channel: Channel, mu: np.ndarray, var: float) -> np.ndarray:
    """E_{W,A}[phi(mu_i + sqrt(var) W, A)] by pointwise-activation quadrature,
    independent of the closed truncated-moment route: a panel row per mu,
    with a break point at each kink image (k - mu_i) / sqrt(var), _MU_ROWS
    rows per rule."""
    if var == 0.0:
        return channel.mean_label(mu)
    sq = math.sqrt(var)
    out = np.empty(mu.size)
    for start in range(0, mu.size, _MU_ROWS):
        m = mu[start:start + _MU_ROWS]
        images = (np.array(channel._x_kinks()) - m[:, None]) / sq
        rule = gauss_panels(images, np.zeros_like(images))
        vals = channel.mean_label(m[rule.row] + sq * rule.nodes)
        out[start:start + m.size] = np.bincount(rule.row, weights=rule.weights * vals,
                                                minlength=m.size)
    return out


def _generic_gen_error(channel: Channel, rho: float, q: float) -> float:
    """Quadrature evaluation of E[phi^2] - E_V[ E_{W,A}[phi]^2 ] + delta."""
    vp = rho - q
    e2_nodes, e2_weights = channel._v_grid(rho, rho)
    e_phi_sq = float(np.dot(e2_weights,
                            channel.phi_sq_mean(math.sqrt(rho) * e2_nodes)))
    vnodes, vweights = channel._v_grid(q, rho)
    inner = _mean_label_rows(channel, math.sqrt(q) * vnodes, vp)
    return e_phi_sq - float(np.dot(vweights, inner * inner)) + channel.delta


def generalization_error(channel: Channel, rho: float, q: float) -> float:
    """Bayes generalization error at overlap q,

        E[phi^2] - E_V[(E_w phi(sqrt(q) V + sqrt(rho - q) w))^2] + delta,

    with the inner mean from ``mean_label_gauss``; cross-checked against the
    pointwise-activation quadrature of ``_generic_gen_error`` to 1e-6."""
    if not 0.0 <= q <= rho:
        raise ValueError(f"need 0 <= q <= rho, got q={q}")
    v, w = channel._v_grid(q, rho)
    inner = channel.mean_label_gauss(math.sqrt(q) * v, rho - q)
    closed = channel.second_moment_phi(rho) - float(np.dot(w, inner * inner)) \
        + channel.delta
    generic = _generic_gen_error(channel, rho, q)
    if abs(closed - generic) > 1e-6:
        raise RuntimeError(
            f"generalization-error routes disagree for {type(channel).__name__} "
            f"at q={q}: closed={closed!r}, generic={generic!r}"
        )
    return closed


def denoising_error(channel: Channel, rho: float, q: float, delta: float) -> float:
    """MMSE on the noiseless activation phi given the observations, at
    observation noise delta > 0."""
    if delta <= 0:
        raise ValueError("denoising error requires delta > 0")
    if not 0.0 <= q <= rho:
        raise ValueError(f"need 0 <= q <= rho, got q={q}")
    ch = channel.with_delta(delta)
    e_phi_sq = ch.second_moment_phi(rho)
    if q == rho:
        return 0.0  # the bracket collapses onto the (deterministic) truth
    post_sq = ch._expect_given_v(
        q, rho, lambda y, om, vp: (ch.log_zout(y, om, vp),
                                   ch.posterior_phi_mean(y, om, vp) ** 2))
    return e_phi_sq - post_sq
