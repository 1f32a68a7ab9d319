"""glmphase benchmark: cold-process workloads timed end to end, and a traced
run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh interpreter
(``child.py``) that imports glmphase from ``src/``, so every sample pays the
imports and the cold caches (spline tables, quadrature rules) the way a
CLI invocation does.  Samples run one at a time, with BLAS limited to one
thread, while the next one is expected to end within ``--seconds`` (and at
least a workload's minimum).

``--trace 0`` prints the end-to-end metrics (medians over the samples);
``--trace 1`` additionally runs the first sample's input once more under the
span tracer of ``tracer.py`` and prints the per-layer metrics instead.
Every operation is checked against a reference; the last stdout line is the
JSON result, the lines above it a human-readable report.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BLAS_THREADS = 1
SETUP_SAMPLES = 5     # setup_s is the median of at least this many start-ups
RUN_LIMIT_S = 170.0   # no child may still run after this much of a run


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    """Input stream of one child: fixed by workload, seed and child index."""
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, and the reference each operation must hit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    min_children: int
    inputs: Callable[[int, int], dict]   # (seed, child index) -> child input
    check: Callable[[dict, dict, Path], list]  # -> one failure reason or None per op
    pooled: Callable[[list], str | None] | None = None  # check over all samples


def _ini(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   + "\n" for name, body in sections.items())


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cli_rows(inp: dict, rec: dict, out: Path, expected: int) -> list:
    """Rows of a CLI run, or a failure for every operation if it has none."""
    if rec.get("exit_code") != 0:
        return [f"exit code {rec.get('exit_code')}"] * expected
    rows = _read_table(out)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"] * expected
    return rows


def _row_error(row: dict, numeric: tuple) -> str | None:
    if row["error"]:
        return row["error"]
    bad = [k for k in numeric if not math.isfinite(float(row[k]))]
    return f"non-finite {', '.join(bad)}" if bad else None


def _near(value: float, ref: float, tol: float, label: str) -> str | None:
    return None if abs(value - ref) <= tol else f"{label} {value:.6g} not {ref}+-{tol}"


def _phase_check(anchor: float, anchor_refs: dict, row_refs: Callable):
    def check(inp, rec, out):
        rows = _cli_rows(inp, rec, out, len(inp["params"]))
        reasons = []
        for row in rows:
            if isinstance(row, str):
                reasons.append(row)
                continue
            err = _row_error(row, ("alpha_it", "alpha_amp", "alpha_c"))
            if err is None:
                p = float(row["param"])
                vals = {k: float(row[k]) for k in ("alpha_it", "alpha_amp", "alpha_c")}
                refs = dict(row_refs(p))
                if p == anchor:
                    refs.update(anchor_refs)
                errs = [_near(vals[k], ref, tol, k) for k, (ref, tol) in refs.items()]
                if not vals["alpha_it"] < vals["alpha_amp"]:
                    errs.append("alpha_it >= alpha_amp")
                err = next((e for e in errs if e), None)
            reasons.append(err)
        return reasons
    return check


DOOR_ANCHOR_K = 0.67449


def _door_inputs(seed: int, index: int) -> dict:
    # the anchor plus one K from [0.7, 1.0], a third of the range per child
    # in turn, so each run spans the range
    lo = 0.7 + 0.1 * (index % 3)
    params = [DOOR_ANCHOR_K,
              round(_rng("phase-door", seed, index).uniform(lo, lo + 0.1), 5)]
    return {"task": "phase-diagram", "params": params, "ini": _ini({
        "experiment": {"task": "phase-diagram", "seed": seed},
        "prior": {"kind": "rademacher"},
        "channel": {"kind": "door"},
        "grid": {"param": "K", "param_values": ",".join(map(str, params)),
                 "alpha_lo": 0.8, "alpha_hi": 1.8},
        "numerics": {"bisect_tol": 0.001}})}


ABS_ANCHOR = 1.0


def _abs_inputs(seed: int, index: int) -> dict:
    # one row per child (a row takes ~15 s): the anchor first, then drawn rows
    s = ABS_ANCHOR if index == 0 else round(
        _rng("phase-abs", seed, index).uniform(0.4, 0.8), 5)
    return {"task": "phase-diagram", "params": [s], "ini": _ini({
        "experiment": {"task": "phase-diagram", "seed": seed},
        "prior": {"kind": "gauss_bernoulli", "sparsity": 1.0},
        "channel": {"kind": "abs", "delta": 0.0},
        "grid": {"param": "sparsity", "param_values": s,
                 "alpha_lo": 0.3, "alpha_hi": 1.5},
        "numerics": {"bisect_tol": 0.001}})}


ALPHA_IT_SIGN = (1.244, 1.254)   # binary perceptron: alpha_IT = 1.249 +- 0.005


def _errors_inputs(seed: int, index: int) -> dict:
    # one alpha per child, from [0.8, 1.2) below alpha_IT or [1.6, 2.0)
    # above it; children cycle through four 0.2-wide strata of those ranges
    lo = (0.8, 1.6, 1.0, 1.8)[index % 4]
    alpha = round(_rng("error-curve", seed, index).uniform(lo, lo + 0.2), 4)
    return {"task": "errors", "params": [alpha], "ini": _ini({
        "experiment": {"task": "errors", "seed": seed},
        "prior": {"kind": "rademacher"},
        "channel": {"kind": "sign"},
        "grid": {"alpha_start": alpha, "alpha_stop": alpha, "alpha_step": 0.1},
        "numerics": {"grid_size": 201}})}


def _errors_check(inp, rec, out):
    reasons = []
    for row in _cli_rows(inp, rec, out, len(inp["params"])):
        if isinstance(row, str):
            reasons.append(row)
            continue
        err = _row_error(row, ("q_star", "gen_error_replica", "gen_error_se"))
        alpha, q = float(row["alpha"]), float(row["q_star"])
        if err is None and alpha < ALPHA_IT_SIGN[0]:
            gap = abs(float(row["gen_error_replica"]) - float(row["gen_error_se"]))
            if not q < 1.0:
                err = f"q_star {q} at alpha {alpha} below alpha_IT"
            elif gap > 1e-6:
                err = f"replica and SE generalization errors differ by {gap:.3g}"
        elif err is None and alpha > ALPHA_IT_SIGN[1] and q != 1.0:
            err = f"q_star {q} at alpha {alpha} above alpha_IT"
        reasons.append(err)
    return reasons


def _gamp_inputs(seed: int, index: int) -> dict:
    rng = _rng("gamp-sparse-perceptron", seed, index)
    return {"sparsity": 0.2, "n": 4000, "alpha": 1.2, "n_test": 4000,
            "instance_seed": rng.randrange(2 ** 31),
            "test_seed": rng.randrange(2 ** 31)}


def _gamp_check(inp, rec, out):
    return [None if op["converged"] and math.isfinite(op["gen_error_mc"])
            else f"instance {op['instance_seed']} not converged or non-finite"
            for op in rec["ops"]]


def _gamp_pooled(samples: list) -> str | None:
    """Pooled MC generalization error within 3 sigma of E(q_SE), with sigma
    as in acceptance criterion 7; distinct instances only."""
    ops = {op["instance_seed"]: op for smp in samples if smp.record
           for op in smp.record["ops"]}
    vals = [op["gen_error_mc"] for op in ops.values()]
    if len(vals) < 2:
        return "fewer than two GAMP instances to pool"
    e_se = next(smp.record["e_se"] for smp in samples if smp.record)
    n_test = samples[0].inp["n_test"]
    pooled = statistics.fmean(vals)
    sigma = math.sqrt(statistics.variance(vals) / len(vals)
                      + 1.0 / (n_test * len(vals)))
    z = abs(pooled - e_se) / sigma
    print(f"# pooled MC generalization error {pooled:.4f} over {len(vals)} "
          f"instances vs E(q_SE) = {e_se:.4f}: |z| = {z:.2f}")
    return None if z < 3.0 else f"pooled |z| = {z:.2f} >= 3"


WORKLOADS = {w.name: w for w in (
    Workload("phase-door", 3, _door_inputs, _phase_check(
        DOOR_ANCHOR_K,
        {"alpha_it": (1.000, 0.005), "alpha_amp": (1.566, 0.010),
         "alpha_c": (1.36, 0.01)},
        lambda k: {})),
    Workload("phase-abs", 2, _abs_inputs, _phase_check(
        ABS_ANCHOR, {"alpha_amp": (1.128, 0.010)},
        lambda s: {"alpha_it": (s, 0.005), "alpha_c": (0.5, 0.001)})),
    Workload("error-curve", 4, _errors_inputs, _errors_check),
    Workload("gamp-sparse-perceptron", 3, _gamp_inputs, _gamp_check, _gamp_pooled),
)}


# ---------------------------------------------------------------------------
# samples: one fresh interpreter each
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    inp: dict
    record: dict | None      # the child's report; None when it failed
    setup_s: float | None
    reasons: list            # one failure reason, or None, per operation


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(wl: Workload, seed: int, index: int, work: Path, timeout: float,
              tag: str = "", **flags) -> Sample:
    """Run child ``index`` of the workload in a fresh interpreter and check it."""
    inp = wl.inputs(seed, index)
    spec = {"root": str(ROOT), **flags}
    out = work / f"out{index}{tag}.csv"
    if "ini" in inp:
        cfg = work / f"cfg{index}.ini"
        cfg.write_text(inp["ini"])
        spec.update(kind="cli",
                    argv=[inp["task"], "--config", str(cfg), "--out", str(out)])
    else:
        spec.update(kind="gamp", **inp)
    n_ops = len(inp.get("params", [None]))
    t_spawn = _monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return Sample(inp, None, None, [f"child timed out after {timeout:.0f} s"] * n_ops)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return Sample(inp, None, None, [f"child exit code {proc.returncode}"] * n_ops)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    try:
        reasons = [] if flags.get("setup_only") else wl.check(inp, record, out)
    except (OSError, KeyError, ValueError) as exc:
        reasons = [f"unreadable output: {type(exc).__name__}: {exc}"] * n_ops
    return Sample(inp, record, record["t_ready"] - t_spawn, reasons)


def collect(wl: Workload, seed: int, seconds: float, work: Path,
            t_start: float) -> list[Sample]:
    """Timed samples while the next one, as long as the last, ends within
    ``seconds``; at least ``min_children``."""
    samples, last = [], 0.0
    while True:
        elapsed = _monotonic() - t_start
        if len(samples) >= wl.min_children and elapsed + last > seconds:
            break
        if elapsed >= RUN_LIMIT_S:
            break
        t0 = _monotonic()
        samples.append(run_child(wl, seed, len(samples), work, RUN_LIMIT_S - elapsed))
        last = _monotonic() - t0
    return samples


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _run_record(args, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    sources = sorted((ROOT / "src" / "glmphase").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources))
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], **versions,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _describe(name: str, values: list, unit: str) -> str:
    return (f"# {name} = {statistics.median(values):.6g} {unit} (median of "
            f"{len(values)} samples; min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "glmphase" / "__init__.py").is_file():
        print(f"no glmphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    t_start = _monotonic()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        samples = collect(wl, args.seed, args.seconds, work, t_start)
        setups = [s.setup_s for s in samples if s.record]
        while samples[0].record and len(setups) < SETUP_SAMPLES:
            extra = run_child(wl, args.seed, 0, work,
                              RUN_LIMIT_S - (_monotonic() - t_start), setup_only=True)
            if extra.record is None:
                break
            setups.append(extra.setup_s)
        traced = None
        if args.trace:
            traced = run_child(wl, args.seed, 0, work,
                               RUN_LIMIT_S - (_monotonic() - t_start),
                               tag="-traced", trace=True, noisy_probe=True)

    done = [s for s in samples if s.record]
    if not done:
        print("no sample completed", file=sys.stderr)
        return 1
    print("# run:", json.dumps(_run_record(args, done[0].record["versions"])))

    checked = samples + ([traced] if traced else [])
    for i, smp in enumerate(checked):
        rec = smp.record or {}
        label = "traced" if smp is traced else f"sample {i}"
        print(f"# {label}: input {smp.inp.get('params', smp.inp.get('instance_seed'))}"
              f", setup {smp.setup_s}, wall {rec.get('wall_s')}, "
              f"rss {rec.get('peak_rss_mb')} MB")
    reasons = [r for s in checked for r in s.reasons]
    failures = [r for r in reasons if r is not None]
    run_failure = wl.pooled(checked) if wl.pooled else None
    for reason in failures + [run_failure] * (run_failure is not None):
        print(f"# FAILED: {reason}")
    print(f"# error_rate = {len(failures)}/{len(reasons)} = "
          f"{len(failures) / len(reasons):.6g} (failed / attempted operations)")

    walls = [s.record["wall_s"] for s in done]
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(s.record["peak_rss_mb"] for s in done)}
    print(_describe("setup_s", setups, "s"))
    print(_describe("wall_s", walls, "s"))
    print(_describe("peak_rss_mb", [s.record["peak_rss_mb"] for s in done], "MB"))

    correct = not failures and run_failure is None
    if args.trace:
        if traced.record is None or samples[0].record is None:
            print("traced sample did not complete", file=sys.stderr)
            return 1
        values = dict(traced.record["layers"])
        values["trace.overhead_s"] = (traced.record["wall_s"]
                                      - samples[0].record["wall_s"])
        values["channels.psi_pout_prime.noisy_ms"] = traced.record["noisy_ms"]
        if traced.record["not_traced"]:
            print("# not traced (absent):", ", ".join(traced.record["not_traced"]))
        for m in spec["per_layer"]:
            print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": len(reasons),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
