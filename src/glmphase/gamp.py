"""Teacher-student instance generation and the GAMP message-passing solver.

The iteration follows the standard seven-line schedule

    V      = mean(v)
    omega  = Phi x_hat / sqrt(n) - V g
    g_mu   = (E[z | y_mu, omega_mu, V] - omega_mu) / V
    lam    = alpha * mean(g^2)
    R      = x_hat + Phi^T g / (sqrt(n) lam)
    x_hat  = posterior mean of the prior at (R, lam)
    v      = posterior variance of the prior at (R, lam)

where the output step is the ratio form of the channel denoiser,
g = gout / sqrt(V) in terms of the standardized posterior mean ``gout``
exposed by the channels module.  With that normalization lam tracks the
state-evolution parameter r and the iteration reproduces

    q_{t+1} = 2 psi_p0'(r_t),   r_t = 2 alpha psi_pout'(q_t)

coordinate-wise in the large-n limit.

The assumed channel used inside the solver may carry a small threshold
asymmetry ``epsilon`` (symmetric channels keep GAMP off the symmetric
manifold); the data are always generated at epsilon = 0.
"""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from .channels import Abs, Channel, GoutUnderflowError, LinearAWGN, ReLU, \
    Sigmoid, Sign, SymmetricDoor
from .numerics import FixedPointOptions
from .priors import GaussBernoulliPrior, GaussianPrior, Prior, \
    RademacherPrior, TwoPointPrior

_V_FLOOR = 1e-12
# a run whose V is at the floor stops once its step is within this many
# posterior standard deviations, sqrt(mean v); see _gamp_iterate
_FLOOR_SPREADS = 10.0
_JITTER_SCALE = 1e-4  # variance of the init jitter, relative to rho
# the threshold shift of an even channel's assumed channel
_EVEN_EPSILON = 1e-4


@dataclass(frozen=True)
class GampState:
    """Per-iteration solver state (the last finite one rides on divergence
    errors)."""

    x_hat: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    g: np.ndarray
    V_scalar: float
    lam: float
    t: int


class GampDivergenceError(RuntimeError):
    """Iterates left the finite floats even after a damping retry."""

    def __init__(self, state: GampState):
        super().__init__(f"GAMP diverged at iteration {state.t}")
        self.state = state


@dataclass(frozen=True)
class Instance:
    """One synthetic teacher-student problem."""

    phi: np.ndarray
    x_star: np.ndarray
    y: np.ndarray
    prior: Prior
    channel: Channel
    seed: int

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def alpha(self) -> float:
        return self.m / self.n


@dataclass(frozen=True)
class GampOptions(FixedPointOptions):
    """The fixed-point options with GAMP's defaults, and the seed of the
    initial jitter."""

    max_iter: int = 500
    tol: float = 1e-7
    seed: int = 0


@dataclass(frozen=True)
class GampRun:
    x_hat_final: np.ndarray
    overlap_seq: np.ndarray     # x_hat . x* / n per iteration
    norm_sq_seq: np.ndarray     # |x_hat|^2 / n per iteration
    mse_seq: np.ndarray
    converged: bool
    iterations: int
    attempts: int               # 2 after a damping retry
    damping: float              # damping of the attempt returned


def _stream_seed(seed: int, k: int) -> int:
    """The integer seed of stream k of an instance or test seed."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def generate_instance(prior: Prior, channel: Channel, n: int, alpha: float,
                      seed: int) -> Instance:
    """m = round(alpha n) >= 1 rows of iid N(0,1) and their labels, all
    regenerable from the seed alone (instance format version 2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    m = int(round(alpha * n))
    if m < 1:
        raise ValueError(f"round(alpha * n) must be >= 1, got alpha={alpha}, n={n}")
    x_star = prior.sample(n, _stream_seed(seed, 0))
    rng_phi = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    phi = rng_phi.standard_normal((m, n))
    # einsum sums each row in one thread; a threaded BLAS product may split
    # the rows, and rows at a split can differ in the last bit
    z = np.einsum("ij,j->i", phi, x_star) / math.sqrt(n)
    y = channel.sample_label(z, _stream_seed(seed, 2))
    return Instance(phi=phi, x_star=x_star, y=y, prior=prior,
                    channel=channel, seed=seed)


def _gamp_iterate(instance: Instance, opts: GampOptions, damping: float):
    prior, channel = instance.prior, instance.channel
    assumed = channel.with_epsilon(_EVEN_EPSILON) if channel.is_even else channel

    phi, y, x_star = instance.phi, instance.y, instance.x_star
    m, n = instance.m, instance.n
    alpha = m / n
    sqn = math.sqrt(n)
    rho = prior.second_moment

    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 3)))
    x_hat = prior.mean + math.sqrt(_JITTER_SCALE * rho) * rng.standard_normal(n)
    v = np.full(n, prior.variance)
    g = np.zeros(m)

    overlaps, norms, mses = [], [], []
    converged = False
    t_done = 0
    for t in range(1, opts.max_iter + 1):
        V = max(float(np.mean(v)), _V_FLOOR)
        omega = phi @ x_hat / sqn - V * g
        den = assumed.gout(y, omega, V)
        g = den.gout / math.sqrt(V)
        # lam from the derivative form alpha * mean((1 - vout) / V), stable
        # for noiseless channels; it equals the square form alpha * mean(g^2)
        # in the large-n limit by the Nishimori identity
        lam = alpha * float(np.mean(1.0 - den.vout)) / V
        if lam <= 0.0:
            # near the symmetric point the variance estimator fluctuates
            # around zero; the (nonnegative) square form seeds the escape
            lam = alpha * float(np.mean(g * g))
        if lam <= 0.0:
            # the output stage carries no information this round (can only
            # happen at an exactly-converged state): keep the estimate
            x_new, v_new = x_hat, v
        else:
            R = x_hat + phi.T @ g / (sqn * lam)
            out = prior.denoise(R, lam)
            x_new = (1.0 - damping) * out.mean + damping * x_hat
            v_new = np.maximum(out.variance, 0.0)
        if not np.all(np.isfinite(x_new)):
            raise GampDivergenceError(GampState(
                x_hat=x_hat, v=v, omega=omega, g=g, V_scalar=V, lam=lam, t=t))
        delta = float(np.mean(np.abs(x_new - x_hat)))
        x_hat = x_new
        v = v_new
        overlaps.append(float(x_hat @ x_star) / n)
        norms.append(float(x_hat @ x_hat) / n)
        mses.append(float(np.sum((x_hat - x_star) ** 2)) / n)
        t_done = t
        # at the floor V no longer follows mean(v), and the iterate circles
        # its fixed point at 0.3-3.2 posterior standard deviations instead of
        # meeting tol; a run whose v collapsed far from x* steps 1e5 of them
        if delta < opts.tol or (V == _V_FLOOR and delta < _FLOOR_SPREADS
                                * math.sqrt(float(np.mean(v)))):
            converged = True
            break
    return GampRun(
        x_hat_final=x_hat,
        overlap_seq=np.asarray(overlaps), norm_sq_seq=np.asarray(norms),
        mse_seq=np.asarray(mses), converged=converged, iterations=t_done,
        attempts=1, damping=damping,
    )


def gamp_run(instance: Instance, opts: GampOptions | None = None) -> GampRun:
    """Run GAMP; if it diverges or stops at max_iter (a period-2 cycle can
    hold it), retry once at damping 0.5 unless damping >= 0.5.  The retry,
    with ``attempts`` 2, replaces an unconverged run only if it converges."""
    if opts is None:
        opts = GampOptions()
    try:
        run = _gamp_iterate(instance, opts, opts.damping)
    except (GampDivergenceError, GoutUnderflowError):
        if opts.damping >= 0.5:
            raise
        return dataclasses.replace(_gamp_iterate(instance, opts, 0.5), attempts=2)
    if run.converged or opts.damping >= 0.5:
        return run
    try:
        retry = _gamp_iterate(instance, opts, 0.5)
    except (GampDivergenceError, GoutUnderflowError):
        return run
    return dataclasses.replace(retry, attempts=2) if retry.converged else run


def _check_q_t(q_t: float, rho: float) -> None:
    if not 0.0 <= q_t <= rho:
        raise ValueError(f"need 0 <= q_t <= rho, got q_t={q_t}")


def gamp_predict(x_hat: np.ndarray, q_t: float, phi_new_row: np.ndarray,
                 channel: Channel, rho: float):
    """Posterior-mean label for a fresh row under the Gaussian surrogate
    N(phi_new . x_hat / sqrt(n), rho - q_t) for the new pre-activation."""
    _check_q_t(q_t, rho)
    phi_new_row = np.atleast_2d(phi_new_row)
    n = phi_new_row.shape[1]
    omega = phi_new_row @ x_hat / math.sqrt(n)
    out = channel.mean_label_gauss(omega, rho - q_t)
    out = np.asarray(out)
    return float(out[0]) if out.size == 1 else out


def _test_projections(x_star: np.ndarray, x_hat: np.ndarray, n_test: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, omega) = (a . x*, a . x_hat) / sqrt(n) for n_test fresh rows
    a ~ N(0, I_n), drawn from their exact law without the rows.

    The pair is bivariate Gaussian with covariance
    [[x*.x*, x*.x_hat], [x*.x_hat, x_hat.x_hat]] / n; two standard normals
    per row go through its lower Cholesky factor.  x* = 0 gives z = 0, and
    x_hat = 0 gives omega = 0.
    """
    n = x_star.size
    s_zz = float(x_star @ x_star) / n
    s_zo = float(x_star @ x_hat) / n
    s_oo = float(x_hat @ x_hat) / n
    l_zz = math.sqrt(s_zz)
    l_oz = s_zo / l_zz if l_zz > 0.0 else 0.0
    # x_hat parallel to x* leaves a residual variance of rounding size,
    # possibly negative
    l_oo = math.sqrt(max(s_oo - l_oz * l_oz, 0.0))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    g = rng.standard_normal((2, n_test))
    return l_zz * g[0], l_oz * g[0] + l_oo * g[1]


def empirical_generalization_error(instance_train: Instance, x_hat: np.ndarray,
                                   q_t: float, n_test: int, seed: int) -> float:
    """Monte-Carlo MSE of the GAMP label predictor (``gamp_predict``) on
    n_test fresh teacher rows.

    Only the two projections of each row enter, so they are drawn from their
    exact joint law (``_test_projections``) and the rows never are.  The
    labels come from one ``sample_label`` call.
    """
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    prior, channel = instance_train.prior, instance_train.channel
    rho = prior.second_moment
    _check_q_t(q_t, rho)
    z_new, omega = _test_projections(instance_train.x_star, x_hat, n_test, seed)
    y_new = channel.sample_label(z_new, _stream_seed(seed, 5))
    y_pred = channel.mean_label_gauss(omega, rho - q_t)
    return float(np.mean((y_new - y_pred) ** 2))


# ---------------------------------------------------------------------------
# prior/channel specs and instance serialization
# ---------------------------------------------------------------------------

# spec kind -> class; a field's spec key is its name, or the "spec_key" of
# its metadata
SPEC_KINDS = {
    "gaussian": GaussianPrior,
    "rademacher": RademacherPrior,
    "gauss_bernoulli": GaussBernoulliPrior,
    "two_point": TwoPointPrior,
    "linear": LinearAWGN,
    "sign": Sign,
    "abs": Abs,
    "relu": ReLU,
    "door": SymmetricDoor,
    "sigmoid": Sigmoid,
}


def _spec_keys(cls) -> dict:
    return {f.metadata.get("spec_key", f.name): f for f in dataclasses.fields(cls)}


def to_spec(obj: Prior | Channel) -> dict:
    """{"kind": ..., key: value for every field} of a prior or channel."""
    spec = {"kind": next(k for k, cls in SPEC_KINDS.items() if type(obj) is cls)}
    for key, f in _spec_keys(type(obj)).items():
        value = getattr(obj, f.name)
        spec[key] = list(value) if isinstance(value, tuple) else value
    return spec


def from_spec(spec: dict, base: type):
    """The prior (base=Prior) or channel (base=Channel) a spec describes.

    Omitted fields take the class default.  A tuple field reads a list or a
    comma-separated string.  A non-dict spec, unknown keys, a kind of the
    other layer, missing fields and non-numeric values raise ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a {base.__name__.lower()} spec is a dict, got {spec!r}")
    kind = spec.get("kind")
    cls = SPEC_KINDS.get(kind)
    if cls is None or not issubclass(cls, base):
        kinds = [k for k, c in SPEC_KINDS.items() if issubclass(c, base)]
        raise ValueError(f"unknown {base.__name__.lower()} kind {kind!r}; "
                         f"expected one of {kinds}")
    keys = _spec_keys(cls)
    unknown = sorted(set(spec) - set(keys) - {"kind"})
    if unknown:
        raise ValueError(f"{kind}: unknown keys {unknown}; it takes {sorted(keys)}")
    missing = [k for k, f in keys.items()
               if k not in spec and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{kind}: missing required keys {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in keys.items():
        if key in spec:
            kwargs[f.name] = _spec_value(f"{kind}.{key}", spec[key],
                                         typing.get_origin(hints[f.name]) is tuple)
    return cls(**kwargs)


def _spec_value(name: str, value, many: bool):
    """A float, or for a tuple field a tuple of floats read from a list or
    a comma-separated string."""
    try:
        if not many:
            return float(value)
        items = value.split(",") if isinstance(value, str) else value
        return tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected {'numbers' if many else 'a number'}, "
                         f"got {value!r}") from None


def save_instance(instance: Instance, path, include_phi: bool = False) -> None:
    """Self-describing JSON container, format version 2; Phi regenerable
    from the seed when omitted."""
    doc = {
        "format": "glmphase-instance",
        "version": 2,
        "n": instance.n,
        "m": instance.m,
        "seed": instance.seed,
        "prior": to_spec(instance.prior),
        "channel": to_spec(instance.channel),
    }
    if include_phi:
        doc["phi"] = instance.phi.tolist()
        doc["x_star"] = instance.x_star.tolist()
        doc["y"] = instance.y.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _int_field(doc: dict, key: str, low: int, high: float = math.inf) -> int:
    value = doc.get(key)
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"instance file: {key} must be an integer in "
                         f"[{low}, {high}], got {value!r}")
    return value


def _array_field(doc: dict, key: str, shape: tuple) -> np.ndarray:
    try:
        value = np.asarray(doc.get(key), dtype=float)
    except (TypeError, ValueError):   # ragged, or not numbers
        value = None
    if value is None or value.shape != shape:
        raise ValueError(f"instance file: {key} must be an array of shape {shape}")
    return value


def load_instance(path) -> Instance:
    """The instance of a ``save_instance`` file of version 1 or 2; a file
    without phi is regenerated from its seed, which version 1 cannot be."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "glmphase-instance":
        raise ValueError(f"not a glmphase instance file: {path}")
    version = _int_field(doc, "version", 1, 2)
    n, m = _int_field(doc, "n", 1), _int_field(doc, "m", 1)
    seed = _int_field(doc, "seed", 0)
    prior = from_spec(doc.get("prior"), Prior)
    channel = from_spec(doc.get("channel"), Channel)
    if "phi" in doc:
        return Instance(
            phi=_array_field(doc, "phi", (m, n)),
            x_star=_array_field(doc, "x_star", (n,)),
            y=_array_field(doc, "y", (m,)),
            prior=prior, channel=channel, seed=seed,
        )
    if version == 1:
        raise ValueError(f"{path}: a version 1 file without phi cannot be "
                         "regenerated, since version 2 draws other labels; save "
                         "the instance with include_phi=True")
    # integers m, n >= 1 give round(m / n * n) = m
    return generate_instance(prior, channel, n, m / n, seed)
