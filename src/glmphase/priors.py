"""Signal priors: sampling, scalar posterior denoising, and the free entropy
of the additive Gaussian scalar channel Y0 = sqrt(r) * X0 + Z0.

Every prior exposes the same surface:

* ``sample(count, seed)``       -- iid draws, deterministic per seed
* ``denoise(R, lam)``           -- posterior mean/variance under
                                   P0(x) * exp(-lam * (R - x)^2 / 2)
* ``psi_p0(r)``                 -- scalar-channel free entropy
* ``psi_p0_prime(r)``           -- its derivative, E[g(Y0, r)^2] / 2
* ``psi_p0_and_prime(r)``       -- both, from one pass

``psi_p0``, ``psi_p0_prime`` and ``psi_p0_and_prime`` take a scalar r (and
return floats) or an array of r, evaluated in one pass over blocks of r
values; a scalar is an array of one.  ``GaussianPrior`` has closed forms.
Every other prior is a finite mixture, and its family supplies two hooks:
``_components(r)``, the Gaussian law of Y0 given each component and the Y0
values where the posterior switches regime, and
``_posterior_components(theta, lam)``, the weight, mean and variance of
each posterior component.  ``Prior`` sums over the components exactly and
takes the expectation over Y0 by panel quadrature refined at those values,
one rule per block for every integrand of the pass.  The integrand of
psi_p0' takes only the posterior mean; ``psi_p0_and_prime`` returns the
floats of the two separate calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

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
    """r as an array capped at R_CAP (inf too); a negative or NaN r raises."""
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ValueError(f"r must be nonnegative and not NaN, got {r}")
    return np.minimum(r, R_CAP)


class Prior:
    """Base class; each family supplies the hooks named in the module
    docstring, ``log_partition`` and ``_sample``."""

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

    def _posterior_components(self, theta, lam):
        """(weight, mean, variance) of each posterior component that carries
        a moment, on a leading component axis against theta."""
        raise NotImplementedError

    def posterior_mean_var(self, theta, lam):
        w, m, v = self._posterior_components(theta, lam)
        # summed in order from the first component, not from +0.0 as np.sum
        # does: a one-component mean is that component's, -0.0 included
        mean = reduce(add, w * m)
        return mean, np.maximum(reduce(add, w * (v + m ** 2)) - mean ** 2, 0.0)

    def _posterior_mean(self, theta, lam):
        """The mean of ``posterior_mean_var``, to the bit, without the
        variance."""
        w, m, _ = self._posterior_components(theta, lam)
        return reduce(add, w * m)

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

    def _components(self, r: np.ndarray):
        """(probs (K,), shift (n, K), sd (n, K), features (n, F), widths
        (n, F)) for each r of a 1-D array: Y0 = shift + sd Z given component
        k, and the integrands switch regime within a few widths of each
        feature, a Y0 value (NaN marks none)."""
        raise NotImplementedError

    def _expect_y0(self, r: np.ndarray, gs) -> np.ndarray:
        """E over Y0 = sqrt(r) X0 + Z0 of each g(Y0, r) of gs, for each r > 0
        of a 1-D array, shape (len(gs), len(r)); one panel rule serves every
        g, and each g is evaluated once on the flat nodes of all rows."""
        probs, shift, sd, feats, widths = self._components(r)
        # one panel row per (r, component), in that component's Z-coordinates
        feats = (feats[:, None, :] - shift[:, :, None]) / sd[:, :, None]
        widths = widths[:, None, :] / sd[:, :, None]
        rows = shift.size
        rule = gauss_panels(feats.reshape(rows, -1), widths.reshape(rows, -1))
        y = shift.reshape(-1)[rule.row] + sd.reshape(-1)[rule.row] * rule.nodes
        rr = np.repeat(r, len(probs))[rule.row]
        e = np.array([np.bincount(rule.row, weights=rule.weights * g(y, rr),
                                  minlength=rows) for g in gs])
        e = e.reshape((len(gs),) + shift.shape)
        # elementwise, so an r's value does not depend on the rest of its block
        total = 0.0
        for j, p in enumerate(probs):
            total = total + p * e[:, :, j]
        return total

    def _over_r(self, r, at_zero, gs):
        """(E[g(Y0, r)] for each g of gs) for each r of a scalar or array,
        at_zero[j] for gs[j] where r = 0."""
        r_in = r
        r = _check_r(r)
        flat = r.reshape(-1)
        out = np.empty((len(gs), flat.size))
        out[:] = np.asarray(at_zero, dtype=float)[:, None]
        todo = np.flatnonzero(flat != 0.0)
        for start in range(0, todo.size, _R_BLOCK):
            idx = todo[start:start + _R_BLOCK]
            out[:, idx] = self._expect_y0(flat[idx], gs)
        return tuple(_like(r_in, row.reshape(r.shape)) for row in out)

    def _g_sq(self, y, r):
        """The integrand of psi_p0': the squared posterior mean."""
        return self._posterior_mean(np.sqrt(r) * y, r) ** 2

    def psi_p0(self, r):
        return self._over_r(r, (0.0,), (self.log_partition,))[0]

    def psi_p0_prime(self, r):
        return 0.5 * self._over_r(r, (self.mean ** 2,), (self._g_sq,))[0]

    def psi_p0_and_prime(self, r):
        """(psi_p0(r), psi_p0'(r)), the floats of the two separate calls,
        from one pass over the panel rules."""
        psi, g_sq = self._over_r(r, (0.0, self.mean ** 2),
                                 (self.log_partition, self._g_sq))
        return psi, 0.5 * g_sq


@dataclass(frozen=True)
class GaussianPrior(Prior):
    """Zero-mean Gaussian prior N(0, variance)."""

    prior_variance: float = field(default=1.0, metadata={"spec_key": "variance"})

    def __post_init__(self):
        if not 0.0 < self.prior_variance < np.inf:
            raise ValueError(f"variance must be finite and positive, got "
                             f"{self.prior_variance}")

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

    def psi_p0_and_prime(self, r):
        return self.psi_p0(r), self.psi_p0_prime(r)


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

    def _posterior_components(self, theta, lam):
        theta = np.asarray(theta, dtype=float)
        a, logp = self._atom_axis(theta)
        logw = logp + a * theta - 0.5 * np.asarray(lam) * a ** 2
        return np.exp(logw - logsumexp(logw)), a, 0.0

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

    def _components(self, r):
        # Y0 = sqrt(r) a + Z given the atom a
        shift = np.sqrt(r)[:, None] * self.atoms
        return (self.probs, shift, np.ones_like(shift)) + self._flip_points(r)


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
        if p.shape != (2,) or not np.all(p > 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be two positive numbers summing to 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"atoms must be finite, got {self.values}")
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

    def _posterior_components(self, theta, lam):
        # The slab posterior is N(theta / (1 + lam), 1 / (1 + lam)); the
        # spike, at 0 with no spread, adds nothing to either moment.
        theta = np.asarray(theta, dtype=float)
        rho = self.sparsity
        log_w_slab = np.log(rho) - 0.5 * np.log1p(lam) + theta ** 2 / (2.0 * (1.0 + lam))
        if rho < 1.0:
            log_w_spike = np.log(1.0 - rho) + np.zeros_like(theta)
            norm = np.logaddexp(log_w_spike, log_w_slab)
            p_slab = np.exp(log_w_slab - norm)
        else:
            p_slab = np.ones_like(theta)
        return p_slab[None], (theta / (1.0 + lam))[None], 1.0 / (1.0 + lam)

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

    def _components(self, r):
        # Y0 is N(0, 1 + r s2) given the component, whose variance s2 is 0
        # for the spike and 1 for the slab; the integrands switch regime at
        # the Y0 = +-y where spike and slab weights balance
        y, width = self._spike_slab_flip(r)
        sd = np.sqrt(1.0 + r[:, None] * [0.0, 1.0])
        return (np.array([1.0 - self.sparsity, self.sparsity]), np.zeros_like(sd),
                sd, y[:, None] * [-1.0, 1.0], np.repeat(width[:, None], 2, axis=1))
