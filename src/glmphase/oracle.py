"""Small-instance and Monte-Carlo ground truth for tests: exhaustive
posterior enumeration, Nishimori-identity checks, and MC estimators of the
two scalar free entropies.

These are test-time tools: exact but exponential in n (enumeration) or
stochastic (MC); nothing here belongs on a hot path.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channels import Channel
from .gamp import Instance, generate_instance
from .numerics import logsumexp
from .priors import Prior

_MAX_CONFIGS = 2 ** 20


@dataclass(frozen=True)
class ExactPosterior:
    support_size: int
    posterior_probs: np.ndarray      # over support^n configurations
    posterior_means: np.ndarray      # length n
    exact_mmse: float                # |x* - posterior_mean|^2 / n
    configs: np.ndarray              # enumerated configurations, row-major


class NishimoriReport(NamedTuple):
    lhs_mc: float
    rhs_mc: float
    z_score: float


def _prior_atoms(prior: Prior):
    atoms = getattr(prior, "atoms", None)
    probs = getattr(prior, "probs", None)
    if atoms is None or probs is None:
        raise ValueError("exact enumeration requires a finite-support prior")
    return np.asarray(atoms, dtype=float), np.asarray(probs, dtype=float)


def exact_posterior(instance: Instance) -> ExactPosterior:
    """Exhaustive posterior over support^n; requires support^n <= 2^20."""
    atoms, probs = _prior_atoms(instance.prior)
    n, m = instance.n, instance.m
    size = len(atoms) ** n
    if size > _MAX_CONFIGS:
        raise ValueError(f"support^n = {size} exceeds {_MAX_CONFIGS}")

    configs = np.array(list(itertools.product(atoms, repeat=n)))
    log_prior = np.array(list(itertools.product(np.log(probs), repeat=n))).sum(axis=1)
    z = configs @ instance.phi.T / math.sqrt(n)
    with np.errstate(divide="ignore"):
        log_like = np.log(instance.channel.density(instance.y[None, :], z))
    logw = log_prior + log_like.sum(axis=1)
    logw -= logsumexp(logw)
    w = np.exp(logw)
    means = w @ configs
    mmse = float(np.sum((instance.x_star - means) ** 2)) / n
    return ExactPosterior(support_size=len(atoms), posterior_probs=w,
                          posterior_means=means, exact_mmse=mmse,
                          configs=configs)


def overlap_statistic(y, xs):
    """Default Nishimori statistic: overlap between the last two arguments."""
    n = xs[0].shape[0]
    return float(xs[-2] @ xs[-1]) / n


def nishimori_check(prior: Prior, channel: Channel, n: int, alpha: float,
                    statistic: Callable = overlap_statistic,
                    samples: int = 500, seed: int = 0,
                    k: int = 2) -> NishimoriReport:
    """Monte Carlo over teachers of E<g(Y, x1..xk)> vs E<g(Y, x1..x_{k-1}, X*)>,
    replicas drawn from the exact posterior."""
    if samples < 2:
        raise ValueError(f"the z-score needs at least 2 samples, got {samples}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    lhs = np.empty(samples)
    rhs = np.empty(samples)
    for s in range(samples):
        inst = generate_instance(prior, channel, n, alpha,
                                 seed=int(rng.integers(2 ** 62)))
        post = exact_posterior(inst)
        idx = rng.choice(len(post.posterior_probs), size=k, p=post.posterior_probs)
        replicas = [post.configs[i] for i in idx]
        lhs[s] = statistic(inst.y, replicas)
        rhs[s] = statistic(inst.y, replicas[:-1] + [inst.x_star])
    se = math.sqrt(lhs.var(ddof=1) / samples + rhs.var(ddof=1) / samples)
    z = abs(lhs.mean() - rhs.mean()) / se if se > 0 else 0.0
    return NishimoriReport(lhs_mc=float(lhs.mean()), rhs_mc=float(rhs.mean()),
                           z_score=float(z))


def mc_psi_p0(prior: Prior, r: float, samples: int, seed: int):
    """(estimate, stderr) for psi_p0(r): MC over Y0, exact inner integral."""
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
    x0 = prior.sample(samples, int(rng.integers(2 ** 62)))
    z0 = rng.standard_normal(samples)
    y0 = math.sqrt(r) * x0 + z0
    vals = prior.log_partition(y0, r)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def mc_psi_pout(channel: Channel, q: float, rho: float, samples: int, seed: int):
    """(estimate, stderr) for psi_pout(q; rho): MC over (V, W, Y~)."""
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 13)))
    v = rng.standard_normal(samples)
    w = rng.standard_normal(samples)
    z = math.sqrt(q) * v + math.sqrt(rho - q) * w
    y = channel.sample_label(z, int(rng.integers(2 ** 62)))
    vals = np.asarray(channel.log_zout(y, math.sqrt(q) * v, rho - q))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
