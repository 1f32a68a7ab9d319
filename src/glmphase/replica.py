"""Replica-symmetric potential, its sup-inf optimization over the
fixed-point set, and the derived asymptotic errors.

The potential is

    f_rs(q, r) = psi_p0(r) + alpha * psi_pout(q; rho) - r q / 2

with optimizers characterized equivalently as the best state-evolution fixed
point or as the direct sup over q of the inner inf over r (the inner inf is
attained where 2 psi_p0'(r) = q, by convexity of psi_p0).  ``solve`` runs
both routes and insists they agree.  Route B solves the roots of its whole q
grid in one batched bracketing solve, takes psi_p0 and psi_pout of the grid
in one call each, and stays independent of the state-evolution spline
tables, so it remains a cross-check of Route A.

The exact-recovery branch (q = rho, r = +inf) is represented by a sentinel;
its free-entropy value is the limit inf_r f_rs(rho, r), approximated at
q = rho (1 - 1e-6).  For setups where that limit diverges (continuous prior
or continuous noiseless channel) the transition finders in
``state_evolution`` compare branches through the divergence slope instead.
The alpha-independent terms of that branch (the inner-inf r and the
exact-profile psi_pout) are cached per (prior, channel, depth); the cache
is exact, not an approximation: ``recovery_f`` returns the same float as
``f_hat`` at the clamp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf

from .channels import (Channel, LinearAWGN, Sign, Abs, ReLU, SymmetricDoor, Sigmoid,
                       quad_profile)
from .numerics import DEFAULT_GH_ORDER, gauss_hermite
from .priors import Prior, R_CAP

# q above rho * (1 - RECOVERY_FRAC) counts as the exact-recovery branch
RECOVERY_FRAC = 1e-4
# depth at which the recovery branch's free entropy is evaluated
EVAL_DEPTH = 1e-6
# two optimizers are "the same" when |dq| < UNIQUE_FRAC * rho
UNIQUE_FRAC = 1e-4
_TIE_TOL = 1e-6


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
    i_value: float


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


def f_rs(prior: Prior, channel: Channel, alpha: float, q: float, r: float) -> float:
    """psi_p0(r) + alpha * psi_pout(q; rho) - r q / 2."""
    rho = prior.second_moment
    if not 0.0 <= q <= rho:
        raise ValueError(f"need 0 <= q <= rho, got q={q}")
    if r < 0:
        raise ValueError(f"need r >= 0, got r={r}")
    return _f_rs_terms(prior, channel.psi_pout(q, rho), alpha, q, r)


def _f_rs_terms(prior: Prior, psi_out: float, alpha: float, q: float,
                r: float) -> float:
    return prior.psi_p0(r) + alpha * psi_out - 0.5 * r * q


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


def inner_inf_r(prior: Prior, q, r_max: float = R_CAP, r_bracket=None):
    """argmin over r of f_rs(q, .): solves 2 psi_p0'(r) = q (psi' monotone).

    q may be an array: all roots come from one batched bracketing solve
    (Chandrupatla's method), with psi_p0' evaluated on the array of active
    iterates at each step.  ``r_bracket = (r_lo, r_hi)`` narrows the search
    to where the roots are known to lie; roots it does not bracket are
    solved again over [0, r_max].
    """
    from scipy.optimize.elementwise import find_root
    q_arr = np.asarray(q, dtype=float)
    qf = q_arr.reshape(-1)
    at_zero, at_max = 2.0 * prior.psi_p0_prime(np.array([0.0, r_max]))
    r = np.where(qf <= at_zero, 0.0, r_max)
    todo = np.flatnonzero((qf > at_zero) & (qf < at_max))
    brackets = [(0.0, r_max)] if r_bracket is None else [r_bracket, (0.0, r_max)]
    for r_lo, r_hi in brackets:
        if todo.size == 0:
            break
        # root in u = ln(1 + r): relative precision across 8 decades of r
        res = find_root(lambda t, qt: 2.0 * prior.psi_p0_prime(np.expm1(t)) - qt,
                        (math.log1p(r_lo), math.log1p(r_hi)), args=(qf[todo],),
                        tolerances=dict(xatol=1e-13, xrtol=1e-14))
        r[todo[res.success]] = np.expm1(res.x[res.success])
        todo = todo[~res.success]
    if todo.size:
        raise ValueError(f"no root of 2 psi_p0'(r) = q for q = {qf[todo]}")
    return float(r[0]) if q_arr.ndim == 0 else r.reshape(q_arr.shape)


def f_hat(prior: Prior, channel: Channel, alpha: float, q: float) -> tuple[float, float]:
    """(inf_r f_rs(q, r), argmin r)."""
    r = inner_inf_r(prior, q)
    return f_rs(prior, channel, alpha, q, r), r


def recovery_f(prior: Prior, channel: Channel, alpha: float,
               depth: float = EVAL_DEPTH) -> float:
    """Free entropy of the exact-recovery branch at clamp q = rho (1 - depth).

    f_rs(rho, r) decreases in r, so lim_{r->inf} f_rs(rho, r) = inf_r, which
    this approximates from inside the domain.
    """
    q, r, psi_out = _recovery_terms(prior, channel, depth)
    return _f_rs_terms(prior, psi_out, alpha, q, r)


@lru_cache(maxsize=256)
def _recovery_terms(prior: Prior, channel: Channel, depth: float):
    """(q, inner-inf r, psi_pout(q)) at the clamp q = rho (1 - depth); none
    depends on alpha.  psi_pout is always taken under the exact profile."""
    rho = prior.second_moment
    q = rho * (1.0 - depth)
    with quad_profile("exact"):
        psi_out = channel.psi_pout(q, rho)
    return q, inner_inf_r(prior, q), psi_out


def solve(prior: Prior, channel: Channel, alpha: float,
          grid_size: int = 201, route_tol: float = 1e-5) -> ReplicaSolution:
    """Optimize the potential by both routes; see module docstring."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    from . import state_evolution as se

    rho = prior.second_moment
    q_hi = rho * (1.0 - EVAL_DEPTH)
    psi_rho = _psi_pout_at_rho(channel, rho)

    # Route A: state-evolution fixed points plus grid-detected crossings.
    branch_qs = se.gamma_branches(prior, channel, alpha)
    points = []
    for q in branch_qs:
        is_recovery = q > rho * (1.0 - RECOVERY_FRAC)
        if is_recovery:
            q_eval = q_hi
            f, r = f_hat(prior, channel, alpha, q_eval)
            r_report = math.inf
        else:
            q_eval = q
            r = min(2.0 * alpha * channel.psi_pout_prime(q_eval, rho), R_CAP)
            f = f_rs(prior, channel, alpha, q_eval, r)
            r_report = r
        points.append(ReplicaPoint(q=rho if is_recovery else q, r=r_report,
                                   f_value=f, i_value=alpha * psi_rho - f))
    f_gamma = max(p.f_value for p in points)

    # Route B: direct sup over q of the inner inf, golden-section refined.
    # q -> r is monotone, so the roots at the neighbouring grid points
    # bracket every root the refinement needs.
    qs = np.linspace(0.0, q_hi, grid_size)
    rs = inner_inf_r(prior, qs)
    fs = prior.psi_p0(rs) + alpha * channel.psi_pout(qs, rho) - 0.5 * rs * qs
    k = int(np.argmax(fs))
    lo, hi = max(k - 1, 0), min(k + 1, grid_size - 1)

    def f_of(q):
        r = inner_inf_r(prior, q, r_bracket=(rs[lo], rs[hi]))
        return _f_rs_terms(prior, channel.psi_pout(q, rho), alpha, q, r)

    f_direct = max(fs[k], _golden_max(f_of, qs[lo], qs[hi], tol=1e-9 * max(rho, 1.0)))

    if not math.isfinite(f_gamma) or abs(f_gamma - f_direct) > route_tol:
        raise RouteDisagreementError(f_gamma, f_direct, route_tol)

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
    )


def _golden_max(f, lo, hi, tol):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return max(fc, fd)


# ---------------------------------------------------------------------------
# generalization error
# ---------------------------------------------------------------------------

def _abs_posterior_mean(x, y):
    """E|G| for G ~ N(x, y)."""
    x = np.asarray(x, dtype=float)
    if y == 0.0:
        return np.abs(x)
    return np.sqrt(2.0 * y / math.pi) * np.exp(-x * x / (2.0 * y)) \
        + x * erf(x / np.sqrt(2.0 * y))


def _closed_form_gen_error(channel: Channel, rho: float, q: float) -> float:
    """Registered noiseless closed forms; additive noise contributes + delta.

    ReLU tail: integrating the erf cross term by parts gives
    (rho - q)^{3/2} / sqrt(rho + q) * (1/(2 pi) + q/(rho pi)); the whole
    expression is cross-checked against the direct quadrature of the
    defining expectation at every call.
    """
    vp = rho - q
    v, w = channel._v_grid(q, rho)

    if isinstance(channel, LinearAWGN):
        return vp
    if isinstance(channel, Sign):
        if vp == 0.0:
            return 0.0
        t = erf(v * np.sqrt(q / (2.0 * vp)))
        return 1.0 - float(np.dot(w, t * t))
    if isinstance(channel, SymmetricDoor):
        if vp == 0.0:
            return 0.0
        k = channel.K
        s = np.sqrt(2.0 * vp)
        bracket = erf((k - np.sqrt(q) * v) / s) - erf(-(k + np.sqrt(q) * v) / s) - 1.0
        return 1.0 - float(np.dot(w, bracket * bracket))
    if isinstance(channel, ReLU):
        if vp == 0.0:
            return 0.0
        t = v * v * erf(v * np.sqrt(q / (2.0 * vp))) ** 2
        tail = vp ** 1.5 / math.sqrt(rho + q) \
            * (1.0 / (2.0 * math.pi) + q / (rho * math.pi))
        return rho / 2.0 - (q / 4.0) * (1.0 + float(np.dot(w, t))) - tail
    if isinstance(channel, Abs):
        b = _abs_posterior_mean(np.sqrt(q) * v, vp)
        return rho - float(np.dot(w, b * b))
    if isinstance(channel, Sigmoid):
        inner = _sigmoid_mean_plus(channel, np.sqrt(q) * v, vp)
        return 2.0 - 4.0 * float(np.dot(w, inner * inner))
    raise ValueError(f"no registered closed form for {type(channel).__name__}")


def _sigmoid_mean_plus(channel: Sigmoid, mu, var):
    """E_w[ f_lambda(mu + sqrt(var) w) ]: probability of label +1."""
    from scipy.special import expit
    mu = np.asarray(mu, dtype=float)
    if var == 0.0:
        return expit(channel.slope * mu)
    gh = gauss_hermite(DEFAULT_GH_ORDER)
    return expit(channel.slope * (mu[..., None] + math.sqrt(var) * gh.nodes)) @ gh.weights


def _mean_label_rows(channel: Channel, mu: np.ndarray, var: float) -> np.ndarray:
    """E_{W,A}[phi(mu_i + sqrt(var) W, A)] by pointwise-activation quadrature,
    independent of the closed truncated-moment route."""
    from .channels import _GAUSS_RANGE, _master_grid, _norm_logpdf
    if var == 0.0:
        return channel.mean_label(mu)
    sq = math.sqrt(var)
    ks = sorted(getattr(channel, "_x_kinks", lambda: ())())
    bounds = [np.full(mu.shape, -_GAUSS_RANGE)]
    for k in ks:
        bounds.append(np.clip((k - mu) / sq, -_GAUSS_RANGE, _GAUSS_RANGE))
    bounds.append(np.full(mu.shape, _GAUSS_RANGE))
    mt, mw = _master_grid()
    out = np.zeros_like(mu)
    for seg_lo, seg_hi in zip(bounds[:-1], bounds[1:]):
        width = np.maximum(seg_hi - seg_lo, 0.0)[:, None]
        wn = seg_lo[:, None] + width * mt[None, :]
        ww = width * mw[None, :] * np.exp(_norm_logpdf(wn))
        out += np.sum(ww * channel.mean_label(mu[:, None] + sq * wn), axis=1)
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
    """Bayes generalization error at overlap q; closed form cross-checked
    against the generic quadrature to 1e-6."""
    if not 0.0 <= q <= rho:
        raise ValueError(f"need 0 <= q <= rho, got q={q}")
    closed = _closed_form_gen_error(channel, rho, q) + channel.delta
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
