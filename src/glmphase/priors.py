"""Signal priors: sampling, scalar posterior denoising, and the free entropy
of the additive Gaussian scalar channel Y0 = sqrt(r) * X0 + Z0.

Every prior exposes the same surface:

* ``sample(count, seed)``       -- iid draws, deterministic per seed
* ``denoise(R, lam)``           -- posterior mean/variance under
                                   P0(x) * exp(-lam * (R - x)^2 / 2)
* ``psi_p0(r)``                 -- scalar-channel free entropy
* ``psi_p0_prime(r)``           -- its derivative, E[g(Y0, r)^2] / 2

``psi_p0`` and ``psi_p0_prime`` take a scalar r (and return a float) or an
array of r, evaluated in one pass over blocks of r values; a scalar is an
array of one.  Discrete support is summed exactly; the expectation over Y0
uses panel quadrature refined where the posterior switches regime.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _like, gauss_panels, logsumexp

# The fixed-point set admits r = +infinity; psi' saturates far below this cap.
R_CAP = 1e8
# r values per vectorized pass; bounds the node arrays, so peak memory stays flat
_R_BLOCK = 4


@dataclass(frozen=True)
class DenoiserOutput:
    """Posterior mean and variance of the scalar Gaussian-channel denoiser."""

    mean: float | np.ndarray
    variance: float | np.ndarray


def _check_r(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"r must be nonnegative, got {r}")
    return np.minimum(r, R_CAP)


class Prior:
    """Base class; concrete priors implement the private hooks below."""

    is_discrete: bool = False

    @property
    def second_moment(self) -> float:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2

    # -- sampling ----------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self._sample(int(count), np.random.default_rng(seed))

    def _sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    # -- posterior under exp(theta * x - lam * x^2 / 2) dP0(x) --------------

    def posterior_mean_var(self, theta, lam):
        raise NotImplementedError

    def log_partition(self, y, r):
        """ln integral dP0(x) exp(sqrt(r) y x - r x^2 / 2), elementwise in
        (y, r)."""
        raise NotImplementedError

    def denoise(self, R, lam) -> DenoiserOutput:
        """Posterior mean/variance given pseudo-observation R at snr lam."""
        if np.any(np.asarray(lam) < 0):
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        mean, var = self.posterior_mean_var(np.asarray(R, dtype=float) * lam, lam)
        if np.ndim(R) == 0:
            return DenoiserOutput(float(mean), float(var))
        return DenoiserOutput(mean, var)

    # -- scalar-channel free entropy ----------------------------------------

    def _expect_y0(self, r: np.ndarray, g) -> np.ndarray:
        """E over Y0 = sqrt(r) X0 + Z0 of g(Y0, r), for each r > 0 of a 1-D
        array; g is evaluated once on the flat nodes of all rows."""
        raise NotImplementedError

    def _over_r(self, r, at_zero: float, g):
        """E[g(Y0, r)] for each r of a scalar or array, at_zero where r = 0."""
        r_in = r
        r = _check_r(r)
        out = np.full(r.shape, at_zero)
        flat, out_flat = r.reshape(-1), out.reshape(-1)
        todo = np.flatnonzero(flat != 0.0)
        for start in range(0, todo.size, _R_BLOCK):
            idx = todo[start:start + _R_BLOCK]
            out_flat[idx] = self._expect_y0(flat[idx], g)
        return _like(r_in, out)

    def psi_p0(self, r):
        return self._over_r(r, 0.0, self.log_partition)

    def psi_p0_prime(self, r):
        def g_sq(y, r):
            m, _ = self.posterior_mean_var(np.sqrt(r) * y, r)
            return m ** 2

        return 0.5 * self._over_r(r, self.mean ** 2, g_sq)


@dataclass(frozen=True)
class GaussianPrior(Prior):
    """Zero-mean Gaussian prior N(0, variance)."""

    prior_variance: float = 1.0

    def __post_init__(self):
        if self.prior_variance <= 0:
            raise ValueError("variance must be positive")

    @property
    def second_moment(self) -> float:
        return self.prior_variance

    @property
    def mean(self) -> float:
        return 0.0

    def _sample(self, count, rng):
        return np.sqrt(self.prior_variance) * rng.standard_normal(count)

    def posterior_mean_var(self, theta, lam):
        prec = 1.0 / self.prior_variance + lam
        return theta / prec, 1.0 / prec + np.zeros_like(np.asarray(theta, dtype=float))

    def log_partition(self, y, r):
        s2 = self.prior_variance
        return -0.5 * np.log1p(r * s2) + s2 * r * np.asarray(y) ** 2 / (2.0 * (1.0 + r * s2))

    def psi_p0(self, r):
        s2, rc = self.prior_variance, _check_r(r)
        return _like(r, 0.5 * (s2 * rc - np.log1p(rc * s2)))

    def psi_p0_prime(self, r):
        s2, rc = self.prior_variance, _check_r(r)
        return _like(r, 0.5 * s2 * s2 * rc / (1.0 + s2 * rc))


class _AtomicPrior(Prior):
    """Prior supported on finitely many atoms."""

    is_discrete = True

    @property
    def atoms(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def probs(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        return float(np.dot(self.probs, self.atoms ** 2))

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.atoms))

    def _sample(self, count, rng):
        return rng.choice(self.atoms, size=count, p=self.probs)

    def _atom_axis(self, x):
        """(atoms, log probs) on a leading axis against the array x, so sums
        over atoms run over contiguous rows."""
        shape = (-1,) + (1,) * np.ndim(x)
        return self.atoms.reshape(shape), np.log(self.probs).reshape(shape)

    def posterior_mean_var(self, theta, lam):
        theta = np.asarray(theta, dtype=float)
        a, logp = self._atom_axis(theta)
        logw = logp + a * theta - 0.5 * np.asarray(lam) * a ** 2
        w = np.exp(logw - logsumexp(logw))
        m = np.sum(w * a, axis=0)
        m2 = np.sum(w * a ** 2, axis=0)
        return m, np.maximum(m2 - m ** 2, 0.0)

    def log_partition(self, y, r):
        y = np.asarray(y, dtype=float)
        a, logp = self._atom_axis(y)
        return logsumexp(logp + np.sqrt(r) * (a * y) - 0.5 * np.asarray(r) * a ** 2)

    def _flip_points(self, r):
        """Y0 values, shape (len(r), pairs), where the posterior tips between
        pairs of atoms, and the 1/(sqrt(r) da) scale on which the integrands
        of psi and psi' vary there."""
        a, p = self.atoms, self.probs
        j, k = np.triu_indices(len(a), 1)
        da = a[k] - a[j]
        j, k, da = j[da != 0.0], k[da != 0.0], da[da != 0.0]
        sqr = np.sqrt(r)[:, None]
        y = 0.5 * sqr * (a[k] + a[j]) - np.log(p[k] / p[j]) / (sqr * da)
        return y, np.broadcast_to(1.0 / (sqr * np.abs(da)), y.shape)

    def _expect_y0(self, r, g):
        # one panel row per (r, atom): Y0 = sqrt(r) a + Z given the atom
        flips, widths = self._flip_points(r)
        shift = np.sqrt(r)[:, None] * self.atoms                 # (n, atoms)
        # Z-coordinates of the posterior flips for each atom's channel
        feats = flips[:, None, :] - shift[:, :, None]
        widths = np.broadcast_to(widths[:, None, :], feats.shape)
        rows = shift.size
        rule = gauss_panels(feats.reshape(rows, -1), widths.reshape(rows, -1))
        vals = g(shift.reshape(-1)[rule.row] + rule.nodes,
                 np.repeat(r, len(self.atoms))[rule.row])
        e = np.bincount(rule.row, weights=rule.weights * vals,
                        minlength=rows).reshape(shift.shape)
        # elementwise, so an r's value does not depend on the rest of its block
        total = 0.0
        for j, p in enumerate(self.probs):
            total = total + p * e[:, j]
        return total


@dataclass(frozen=True)
class RademacherPrior(_AtomicPrior):
    """X = +1 with probability p_plus, -1 otherwise."""

    p_plus: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p_plus < 1.0:
            raise ValueError("p_plus must lie in (0, 1)")

    @property
    def atoms(self):
        return np.array([1.0, -1.0])

    @property
    def probs(self):
        return np.array([self.p_plus, 1.0 - self.p_plus])


@dataclass(frozen=True)
class TwoPointPrior(_AtomicPrior):
    """General two-atom prior."""

    values: tuple[float, float]
    probabilities: tuple[float, float]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2,) or np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be two positive numbers summing to 1")
        if self.values[0] == self.values[1]:
            raise ValueError("atoms must be distinct")
        if np.dot(p, np.asarray(self.values, dtype=float) ** 2) <= 0:
            raise ValueError("second moment must be positive")

    @property
    def atoms(self):
        return np.asarray(self.values, dtype=float)

    @property
    def probs(self):
        return np.asarray(self.probabilities, dtype=float)


@dataclass(frozen=True)
class GaussBernoulliPrior(Prior):
    """Spike-and-slab: X = 0 w.p. 1 - sparsity, X ~ N(0,1) w.p. sparsity."""

    sparsity: float

    def __post_init__(self):
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")

    @property
    def second_moment(self) -> float:
        return self.sparsity

    @property
    def mean(self) -> float:
        return 0.0

    def _sample(self, count, rng):
        x = rng.standard_normal(count)
        mask = rng.random(count) < self.sparsity
        return np.where(mask, x, 0.0)

    def posterior_mean_var(self, theta, lam):
        theta = np.asarray(theta, dtype=float)
        rho = self.sparsity
        # Slab posterior is N(theta / (1 + lam), 1 / (1 + lam)).
        log_w_slab = np.log(rho) - 0.5 * np.log1p(lam) + theta ** 2 / (2.0 * (1.0 + lam))
        if rho < 1.0:
            log_w_spike = np.log(1.0 - rho) + np.zeros_like(theta)
            norm = np.logaddexp(log_w_spike, log_w_slab)
            p_slab = np.exp(log_w_slab - norm)
        else:
            p_slab = np.ones_like(theta)
        m_slab = theta / (1.0 + lam)
        v_slab = 1.0 / (1.0 + lam)
        m = p_slab * m_slab
        m2 = p_slab * (v_slab + m_slab ** 2)
        return m, np.maximum(m2 - m ** 2, 0.0)

    def log_partition(self, y, r):
        y = np.asarray(y, dtype=float)
        rho = self.sparsity
        log_slab = -0.5 * np.log1p(r) + r * y ** 2 / (2.0 * (1.0 + r))
        if rho == 1.0:
            return log_slab
        return np.logaddexp(np.log(1.0 - rho) + np.zeros_like(y),
                            np.log(rho) + log_slab)

    def _spike_slab_flip(self, r):
        """|Y0| where spike and slab posterior weights balance, and the width
        of the switch, for each r; NaN where they never balance."""
        rho = self.sparsity
        if rho >= 1.0:
            return np.full(r.shape, np.nan), np.full(r.shape, np.nan)
        c = np.log((1.0 - rho) / rho) + 0.5 * np.log1p(r)
        with np.errstate(invalid="ignore"):
            y = np.sqrt(2.0 * np.where(c > 0.0, c, np.nan) * (1.0 + r) / r)
        width = (1.0 + r) / (r * np.maximum(y, 1.0))
        return y, width

    def _expect_y0(self, r, g):
        # Conditionally on spike/slab, Y0 is exactly Gaussian; the integrands
        # switch regime where spike and slab weights balance.  One panel row
        # per (r, spike) and (r, slab), in Z-coordinates of that component.
        rho = self.sparsity
        y_star, width = self._spike_slab_flip(r)
        sd = np.stack([np.ones_like(r), np.sqrt(1.0 + r)], axis=1)   # (n, 2)
        feats = np.stack([-y_star[:, None] / sd, y_star[:, None] / sd], axis=2)
        widths = np.repeat((width[:, None] / sd)[:, :, None], 2, axis=2)
        rule = gauss_panels(feats.reshape(-1, 2), widths.reshape(-1, 2))
        vals = g(sd.reshape(-1)[rule.row] * rule.nodes, np.repeat(r, 2)[rule.row])
        e = np.bincount(rule.row, weights=rule.weights * vals,
                        minlength=sd.size).reshape(sd.shape)
        return (1.0 - rho) * e[:, 0] + rho * e[:, 1]


def sample(prior: Prior, count: int, seed: int) -> np.ndarray:
    return prior.sample(count, seed)


def denoise(prior: Prior, R, lam) -> DenoiserOutput:
    return prior.denoise(R, lam)


def psi_p0(prior: Prior, r: float) -> float:
    return prior.psi_p0(r)


def psi_p0_prime(prior: Prior, r: float) -> float:
    return prior.psi_p0_prime(r)
