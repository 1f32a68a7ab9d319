"""Output channels P_out(y|z) built from an activation, optional label
randomness, and Gaussian noise of variance delta.

The piecewise-linear channels (linear, sign, abs, relu, symmetric door) admit
exact Gaussian closed forms for the evidence

    Z_out(y, omega, V) = E_{w ~ N(0,1)}[ P_out(y | omega + sqrt(V) w) ]

and for the posterior moments of the hidden pre-activation, via truncated
normal integrals per linear piece.  Everything runs in log space, and the
moments are those of the standardized w = (x - omega) / sqrt(V), so deep
tails (door/sign at large |omega|/sqrt(V)) stay finite and do not cancel.

``psi_pout(q, rho)`` and ``psi_pout_prime(q, rho)`` take a scalar q (and
return a float) or an array of q.  A discrete channel builds the E_V rules
of a block of q values in one ``gauss_panels`` pass and evaluates all their
nodes at once; a continuous one goes through the q values one at a time.

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
from scipy.special import erfcx, expit, log_expit, ndtr

from .numerics import (_LOG_SQRT_2PI, DEFAULT_GH_ORDER, _gl_on_edges, _like,
                       gauss_hermite, gauss_panels, integrate_1d, logsumexp)

_INF = math.inf

# Gaussian mass beyond 9 sigma is ~1e-19; quadrature windows stop there.
_GAUSS_RANGE = 9.0
# Per-segment Gauss-Legendre chunking for the panel integrals.
_CHUNK_WIDTH = 0.6
_GL_ORDER = 16
_LOG_TINY = math.log(1e-300)
# q values per vectorized pass of a discrete channel; bounds the node arrays,
# so peak memory stays flat
_Q_BLOCK = 4
# elements per pass of the truncated-normal kernel: temporaries stay small
# enough for the allocator to reuse them instead of mapping fresh pages
_ELEM_BLOCK = 8192
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

    @property
    def underflowed(self):
        return np.asarray(self.log_zout) < _LOG_TINY


def _norm_logpdf(x):
    return -0.5 * np.square(x) - _LOG_SQRT_2PI


def _trunc_moments(alpha, beta):
    """(logP, E[W], Var[W]) for the standard normal truncated to (alpha, beta).

    An interval inside the left tail is mirrored right of zero.  In the
    right tail, Q(x) = erfcx(x / sqrt 2) exp(-x^2 / 2) / 2 gives the log mass
    and the ratios phi / P without cancellation however far out the interval
    lies, so the mean stays accurate; beyond about 1e154 standard deviations
    the mass is 0 and its log -inf.  Both moments are 0 where the mass is 0.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    left = beta <= 0.0
    lo, hi = np.where(left, -beta, alpha), np.where(left, -alpha, beta)
    logp = np.full(lo.shape, -np.inf)
    mean, var = np.zeros(lo.shape), np.zeros(lo.shape)
    # flat views, in slices of _ELEM_BLOCK elements; each case gathers its
    # elements by index and scatters back
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    logp_f, mean_f, var_f = logp.reshape(-1), mean.reshape(-1), var.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, lo_f.size, _ELEM_BLOCK):
            blk = slice(start, start + _ELEM_BLOCK)
            _trunc_block(lo_f[blk], hi_f[blk], logp_f[blk], mean_f[blk], var_f[blk])
    np.negative(mean, out=mean, where=left)
    return logp, mean, var


def _trunc_block(lo, hi, logp, mean, var):
    """Fill logp, mean and var (preset to -inf, 0, 0) for 1-D bounds that
    are already mirrored right of zero where the interval lies in the left
    tail; empty intervals keep the preset values."""
    for tail, i in ((True, np.flatnonzero((lo >= 0.0) & (hi > lo))),
                    (False, np.flatnonzero((lo < 0.0) & (hi > 0.0)))):
        if not i.size:
            continue
        l, h = lo[i], hi[i]
        if tail:
            el, eh = erfcx(l / _SQRT2), erfcx(h / _SQRT2)
            # log phi(h) / phi(l), and r = Q(h) / Q(l), the share of the
            # tail beyond the far end; P = Q(l) (1 - r), scaled by el
            log_g = -0.5 * (h - l) * (h + l)
            den = el * -np.expm1(np.log(eh / el) + log_g)
            lp = np.log(0.5 * den) - 0.5 * l * l
            ra = _SQRT_2_OVER_PI / den            # phi(l) / P
            rb = ra * np.exp(log_g)                # phi(h) / P
        else:
            # straddles zero, so P is not small
            p = ndtr(h) - ndtr(l)
            lp = np.log(p)
            ra = np.exp(-0.5 * l * l) / (_SQRT_2PI * p)
            rb = np.exp(-0.5 * h * h) / (_SQRT_2PI * p)
        m = np.clip(ra - rb, l, h)
        # E[W^2] = 1 + l ra - h rb; an infinite end has ratio 0
        v = 1.0 + np.where(ra > 0.0, l * ra, 0.0) \
            - np.where(rb > 0.0, h * rb, 0.0) - m * m
        ok = lp > -np.inf
        logp[i] = lp
        mean[i] = np.where(ok, m, 0.0)
        # a truncated standard normal has variance in [0, 1]; far out,
        # where the terms cancel or overflow, that bound is all that is kept
        var[i] = np.where(ok & (v >= 0.0), np.minimum(v, 1.0), 0.0)


def _log_gauss_prob(alpha, beta):
    """log P(alpha < W < beta), W ~ N(0,1), stable in both tails."""
    return _trunc_moments(alpha, beta)[0]


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


def _check_q(q, rho, closed: bool) -> np.ndarray:
    """q as an array; every element in [0, rho] (closed) or [0, rho)."""
    qa = np.asarray(q, dtype=float)
    if not np.all((qa >= 0.0) & ((qa <= rho) if closed else (qa < rho))):
        raise ValueError(f"need 0 <= q {'<=' if closed else '<'} rho, "
                         f"got q={q}, rho={rho}")
    return qa


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

    def _v_rules(self, q, rho):
        """Quadratures for E_V of each q of a 1-D array, flat as (nodes,
        weights, row): panels refined near the decision-threshold images
        k / sqrt(q), built in one pass, or Gauss-Hermite where there are no
        thresholds or their images are wider than the profile's v_sigma."""
        gh = gauss_hermite(DEFAULT_GH_ORDER)
        kinks = np.array(self._x_kinks())
        panel = np.zeros(q.shape, dtype=bool)
        parts = []
        if kinks.size:
            pos = q > 0.0
            qs = np.where(pos, q, 1.0)
            sigma = np.sqrt((rho - q + self.delta) / qs)
            panel = ~pos | (sigma < _prof()["v_sigma"])
            if np.any(panel):
                # q = 0 rows get no features (NaN)
                feats = np.where(pos[panel, None],
                                 kinks / np.sqrt(qs[panel, None]), np.nan)
                widths = np.broadcast_to(sigma[panel, None], feats.shape)
                rule = gauss_panels(feats, widths, half_range=_GAUSS_RANGE,
                                    chunk=_CHUNK_WIDTH, order=_GL_ORDER)
                parts.append((rule.nodes, rule.weights,
                              np.flatnonzero(panel)[rule.row]))
        gh_rows = np.flatnonzero(~panel)
        if gh_rows.size:
            parts.append((np.tile(gh.nodes, gh_rows.size),
                          np.tile(gh.weights, gh_rows.size),
                          np.repeat(gh_rows, gh.nodes.size)))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _v_grid(self, q, rho):
        """E_V quadrature (nodes, weights) at one q."""
        nodes, weights, _ = self._v_rules(np.array([float(q)]), rho)
        return nodes, weights

    def _x_kinks(self):
        return ()

    def _expect_given_v(self, q, rho, func):
        """E over (V, Y~) of an integrand on the generative law, for a scalar
        q (a float) or each q of an array (same shape).

        func(y, omega, rho - q) returns (log Z_out, integrand): a discrete
        channel weights each label by Z_out, a continuous one draws y from
        the law itself and uses the integrand alone.
        """
        qa = np.asarray(q, dtype=float)
        qf = qa.reshape(-1)
        out = np.empty(qf.size)
        inside = np.flatnonzero(qf < rho)
        for start in range(0, inside.size, _Q_BLOCK):
            idx = inside[start:start + _Q_BLOCK]
            out[idx] = self._expect_rows(qf[idx], rho, func)
        at_rho = qf >= rho
        if np.any(at_rho):
            out[at_rho] = self._expect_rows(np.array([rho]), rho, func)[0]
        return _like(qa, out.reshape(qa.shape))

    def _expect_rows(self, q, rho, func):
        """_expect_given_v for a 1-D block of q, all below rho or the single
        q = rho.  A discrete channel evaluates every row's nodes in one pass
        and sums per row; a continuous one goes row by row."""
        nodes, weights, row = self._v_rules(q, rho)
        if not self.is_discrete:
            return np.array([self._expect_row(q[i], rho, nodes[row == i],
                                              weights[row == i], func)
                             for i in range(q.size)])
        omega = np.sqrt(q)[row] * nodes
        vp = (rho - q)[row] if q[0] < rho else 0.0
        vals = np.zeros_like(omega)
        for lab in self.labels:
            logz, val = func(lab, omega, vp)
            w = np.exp(logz)
            with np.errstate(invalid="ignore"):
                vals += np.where(w > 0.0, w * val, 0.0)
        return np.bincount(row, weights=weights * vals, minlength=q.size)

    def _expect_row(self, q, rho, vnodes, vweights, func):
        """_expect_given_v at one q of a continuous channel, on its V rule."""
        raise NotImplementedError

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
            logp, m1, var = _trunc_moments(a / s, b / s)
            p = float(np.exp(logp))
            ex = s * float(m1)
            ex2 = rho * float(var + m1 * m1)
            total += p * (c * c) + 2.0 * c * d * p * ex + d * d * p * ex2
        return total

    # -- evidence core ---------------------------------------------------------

    def _piece_stats(self, y, omega, v):
        """Per piece, stacked on a leading piece axis: log weight, and the
        conditional mean and variance of the standardized hidden Gaussian
        w = (x - omega) / sqrt(V).  y, omega and V broadcast together; an
        array V must be positive."""
        y, omega, _ = np.broadcast_arrays(np.asarray(y, float),
                                          np.asarray(omega, float), np.asarray(v, float))
        sqv = np.sqrt(v)
        delta = self.delta
        logws, means, variances = [], [], []
        # log densities of far-off labels overflow to -inf, which is exact
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for a, b, c, d in self.pieces():
                if d == 0.0 and delta == 0.0:
                    # noiseless: only the observations y = c come from here
                    emits = y == c
                    if np.all(emits):
                        logw, mean, var = _trunc_moments((a - omega) / sqv,
                                                         (b - omega) / sqv)
                    else:
                        logw = np.full(y.shape, -np.inf)
                        mean, var = np.zeros(y.shape), np.zeros(y.shape)
                        if np.any(emits):
                            om = omega[emits]
                            s = np.broadcast_to(sqv, y.shape)[emits]
                            logw[emits], mean[emits], var[emits] = \
                                _trunc_moments((a - om) / s, (b - om) / s)
                elif d == 0.0:
                    sd = math.sqrt(delta)
                    logpref = _norm_logpdf((y - c) / sd) - math.log(sd)
                    logp, mean, var = _trunc_moments((a - omega) / sqv,
                                                     (b - omega) / sqv)
                    logw = logpref + logp
                else:
                    # the piece's Gaussian factor in x has mean m and
                    # variance V delta / sig2; in w it is centred at shift
                    sig2 = delta + d * d * v
                    resid = y - c - d * omega
                    logpref = _norm_logpdf(resid / np.sqrt(sig2)) - 0.5 * np.log(sig2)
                    m = omega + d * (v / sig2) * resid
                    shift = d * (sqv / sig2) * resid
                    if delta == 0.0:
                        logw = np.where((a < m) & (m < b), logpref, -np.inf)
                        mean, var = shift, np.broadcast_to(0.0, shift.shape)
                    else:
                        s = np.sqrt(v * delta / sig2)
                        logp, m1, var1 = _trunc_moments((a - m) / s, (b - m) / s)
                        logw = logpref + logp
                        mean = shift + np.sqrt(delta / sig2) * m1
                        var = delta / sig2 * var1
                logws.append(logw)
                means.append(mean)
                variances.append(var)
        return np.stack(logws), np.stack(means), np.stack(variances)

    def log_zout(self, y, omega, v):
        if np.any(np.asarray(v) < 0):
            raise ValueError(f"V must be nonnegative, got {v}")
        if np.all(np.asarray(v) == 0.0):
            with np.errstate(divide="ignore"):
                out = np.log(self.density(y, omega))
            return float(out) if np.ndim(out) == 0 else out
        logw, _, _ = self._piece_stats(y, omega, v)
        out = logsumexp(logw)
        return float(out) if np.ndim(out) == 0 else out

    def _posterior_w_stats(self, y, omega, v):
        """(log Z, per-piece posterior weights, per-piece mean and variance
        of w); rows with zero evidence get zero weights."""
        logw, mean, var = self._piece_stats(y, omega, v)
        logz = logsumexp(logw)
        ok = np.isfinite(logz)
        with np.errstate(invalid="ignore"):
            post = np.exp(logw - np.where(ok, logz, 0.0))
        post = np.where(ok, post, 0.0)
        return logz, post, mean, var

    def _log_zout_gout(self, y, omega, v):
        logz, post, mean, _ = self._posterior_w_stats(y, omega, v)
        return logz, np.sum(post * mean, axis=0)

    def gout(self, y, omega, v) -> OutputDenoiser:
        if np.any(np.asarray(v) <= 0):
            raise ValueError(f"V must be positive, got {v}")
        logz, post, mean, var = self._posterior_w_stats(y, omega, v)
        if not np.all(np.isfinite(logz)):
            raise GoutUnderflowError(f"y={y!r}, omega={omega!r}, V={v!r}")
        g = np.sum(post * mean, axis=0)
        # within-piece plus between-piece spread; (post * dev) * dev stays
        # finite for the far-off means of pieces without posterior weight
        dev = mean - g
        var_w = np.sum(post * var + post * dev * dev, axis=0)
        z = np.exp(logz)
        if np.ndim(g) == 0:
            return OutputDenoiser(float(g), float(z), float(logz), float(var_w))
        return OutputDenoiser(g, z, logz, var_w)

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

    def _expect_row(self, q, rho, vnodes, vweights, integrand):
        vp = float(rho - q)
        omega = math.sqrt(q) * vnodes

        def func(y, om, v):
            return integrand(y, om, v)[1]

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
        logw, mean, var = self._piece_stats(y, 0.0, rho)
        w = np.exp(logw)
        # x / sqrt(rho) is the standardized w at omega = 0
        num = np.sum(w * (var + mean * mean - 1.0), axis=0)
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
        zs = np.asarray(omega, float)[..., None] + np.sqrt(v)[..., None] * gh.nodes
        return log_expit(self.slope * np.asarray(y, float)[..., None] * zs), gh

    def log_zout(self, y, omega, v):
        if np.any(np.asarray(v) < 0):
            raise ValueError(f"V must be nonnegative, got {v}")
        y = np.asarray(y, dtype=float)
        omega = np.asarray(omega, dtype=float)
        if np.all(np.asarray(v) == 0.0):
            with np.errstate(divide="ignore"):
                out = np.log(self.density(y, omega))
            return float(out) if np.ndim(out) == 0 else out
        y, omega = np.broadcast_arrays(y, omega)
        logp, gh = self._log_pmf_grid(y, omega, v)
        out = logsumexp(logp + np.log(gh.weights), axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def _posterior_grid(self, y, omega, v):
        """(log Z, posterior weights of the Gauss-Hermite nodes of w, rule)."""
        y, omega = np.broadcast_arrays(np.asarray(y, float), np.asarray(omega, float))
        logp, gh = self._log_pmf_grid(y, omega, v)
        logw = logp + np.log(gh.weights)
        logz = logsumexp(logw, axis=-1)
        return logz, np.exp(logw - logz[..., None]), gh

    def _log_zout_gout(self, y, omega, v):
        logz, post, gh = self._posterior_grid(y, omega, v)
        return logz, post @ gh.nodes

    def gout(self, y, omega, v) -> OutputDenoiser:
        if np.any(np.asarray(v) <= 0):
            raise ValueError(f"V must be positive, got {v}")
        logz, post, gh = self._posterior_grid(y, omega, v)
        if not np.all(np.isfinite(np.asarray(logz))):
            raise GoutUnderflowError(f"y={y!r}, omega={omega!r}, V={v!r}")
        g = post @ gh.nodes
        var_w = np.maximum(post @ (gh.nodes ** 2) - g * g, 0.0)
        z = np.exp(logz)
        if np.ndim(g) == 0:
            return OutputDenoiser(float(g), float(z), float(logz), float(var_w))
        return OutputDenoiser(g, z, logz, var_w)

    def posterior_phi_mean(self, y, omega, v):
        raise ValueError("sigmoid channel has delta = 0; denoising is undefined")

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
