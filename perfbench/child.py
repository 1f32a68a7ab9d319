"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py '<json spec>'

The spec names the repository root and the work to do.  The child imports
glmphase from ``<root>/src``, builds its inputs, and reports on its last
stdout line, as JSON:

* ``t_ready``: CLOCK_MONOTONIC (system-wide) when set-up ended; the parent
  subtracts the time it spawned the child to get ``setup_s``;
* ``wall_s``: wall time of the timed section, caches cold;
* ``peak_rss_mb``: peak resident set size of this process;
* the outputs to check (CLI workloads write theirs to the ``--out`` file);
* with ``trace``: the per-layer metrics of the timed section, and with
  ``noisy_probe`` the noisy-channel ``psi_pout'`` timing, taken after the
  trace is removed.
"""
from __future__ import annotations

import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _gamp_reference(glmphase, prior, channel, alpha):
    """q_SE from the uninformative start and E(q_SE), as in acceptance
    criterion 7."""
    rho = prior.second_moment
    q_se = glmphase.se_run(prior, channel, alpha, 1e-6 * rho).q_limit
    return q_se, glmphase.generalization_error(channel, rho, q_se)


def _gamp_op(gamp, prior, channel, spec, q_se):
    inst = gamp.generate_instance(prior, channel, spec["n"], spec["alpha"],
                                  seed=spec["instance_seed"])
    run = gamp.gamp_run(inst, gamp.GampOptions(seed=spec["instance_seed"]))
    mc = gamp.empirical_generalization_error(inst, run.x_hat_final, q_se,
                                             spec["n_test"], seed=spec["test_seed"])
    return {"instance_seed": spec["instance_seed"], "converged": run.converged,
            "iterations": run.iterations, "gen_error_mc": mc}


def _noisy_probe_ms(glmphase, rho: float = 0.2, stride: int = 40) -> float:
    """Median ms per fast-profile psi_pout' call of ReLU(1e-8) over every
    ``stride``-th of the 321 logit nodes the channel spline table samples."""
    from glmphase.channels import quad_profile
    channel = glmphase.ReLU(1e-8)
    times = []
    for k in range(0, 321, stride):
        u = math.log(1e-9) + k * (math.log(1e13) - math.log(1e-9)) / 320
        q = rho / (1.0 + math.exp(-u))
        with quad_profile("fast"):
            t0 = time.perf_counter()
            channel.psi_pout_prime(q, rho)
            times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def main(argv) -> int:
    spec = json.loads(argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import glmphase
    from glmphase import cli, gamp
    if not Path(glmphase.__file__).resolve().is_relative_to(src.resolve()):
        print(f"glmphase imported from {glmphase.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if spec["kind"] == "gamp":
        prior, channel = glmphase.GaussBernoulliPrior(spec["sparsity"]), glmphase.Sign()
    t_ready = _monotonic()
    record = {"t_ready": t_ready,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__,
                           "glmphase": glmphase.__version__}}
    if spec.get("setup_only"):
        print(json.dumps(record))
        return 0

    if spec["kind"] == "gamp":
        q_se, record["e_se"] = _gamp_reference(glmphase, prior, channel,
                                               spec["alpha"])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer().install()

    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        record["exit_code"] = cli.main(spec["argv"])
    else:
        record["ops"] = [_gamp_op(gamp, prior, channel, spec, q_se)]
    wall = time.perf_counter() - t0

    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary(wall)
        self_sum = sum(layers[k] for k in layers if k.endswith(".self_s"))
        if abs(self_sum + layers["trace.untraced_s"] - wall) > 1e-6:
            raise RuntimeError("span self times do not add up to the wall time")
        record["layers"] = layers
        record["not_traced"] = tracer.missing
    if spec.get("noisy_probe"):
        record["noisy_ms"] = _noisy_probe_ms(glmphase)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
