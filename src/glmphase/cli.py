"""Batch experiment runner: INI-style configs, one subcommand per analysis,
deterministic seeded sweeps, plot-ready CSV/JSON tables.

    glmphase <task> --config cfg.ini [--out path] [--format csv|json]
                    [--override section.key=value ...]

The tasks, and the [grid] and [numerics] keys each reads, are ``TASKS``.
Exit codes: 0 success, 1 a failed validate check or an SE or GAMP run cut
at its iteration cap (the table is still written), 2 config error, such as
a section outside ``SECTIONS`` or a [grid] or [numerics] key that the task
does not read.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, oracle, replica, state_evolution as se_mod
from .channels import Channel
from .gamp import (GampOptions, empirical_generalization_error, from_spec,
                   gamp_run, generate_instance, to_spec)
from .numerics import FixedPointOptions
from .priors import Prior

FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    prior_spec: dict
    channel_spec: dict
    grid: dict
    numerics: dict
    output: dict
    seed: int

    def prior(self) -> Prior:
        return from_spec(self.prior_spec, Prior)

    def channel(self) -> Channel:
        return from_spec(self.channel_spec, Channel)

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]
    provenance: dict = field(default_factory=dict)
    # one stderr line per failure; any failure makes the exit code 1
    failures: list[str] = field(default_factory=list)
    # one stderr line per note; notes leave the exit code alone
    notes: list[str] = field(default_factory=list)


# the sections the CLI reads, each with the keys it takes (None: any)
SECTIONS = {"experiment": ("task", "seed"), "prior": None, "channel": None,
            "grid": None, "numerics": None, "output": ("path", "format")}


def _to_number(s: str):
    try:
        return int(s)
    except ValueError:
        try:
            return float(s)
        except ValueError:
            return s


def _read(path: str, overrides) -> dict:
    """{section: {key: value}} of the file with the overrides applied, for
    every section of SECTIONS.  A
    file configparser cannot parse, a section outside SECTIONS, and a key
    a section does not take are config errors."""
    # [DEFAULT] is no special section, so it is rejected as unknown
    cp = configparser.ConfigParser(default_section="")
    cp.optionxform = str  # keys keep their case: the door channel's "K"
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path!r}: {' '.join(str(exc).split())}") from None
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value, got {ov!r}")
        key, value = ov.split("=", 1)
        section, option = (part.strip() for part in key.split(".", 1))
        sections.setdefault(section, {})[option] = value.strip()
    for section, keys in sections.items():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]; the sections "
                              f"are {', '.join(SECTIONS)}")
        unknown = sorted(set(keys) - set(SECTIONS[section] or keys))
        if unknown:
            raise ConfigError(f"unknown key {section}.{unknown[0]}; "
                              f"[{section}] takes {', '.join(SECTIONS[section])}")
    return {name: sections.get(name, {}) for name in SECTIONS}


def parse_config(path: str, overrides=()) -> ExperimentConfig:
    sections = _read(path, overrides)
    numbers = {name: {k: _to_number(v) for k, v in keys.items()}
               for name, keys in sections.items()}
    exp = sections["experiment"]
    if "task" not in exp:
        raise ConfigError("missing experiment.task")
    task = exp["task"].strip()
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    if "seed" not in exp:
        raise ConfigError("missing experiment.seed (no wall-clock defaults)")
    try:  # SeedSequence takes a nonnegative integer only
        seed = _COUNT[0](numbers["experiment"]["seed"])
    except ValueError as exc:
        raise ConfigError(f"experiment.seed {exc}") from None

    if task != "validate":
        for layer, base in (("prior", Prior), ("channel", Channel)):
            try:
                from_spec(numbers[layer], base)
            except ValueError as exc:
                raise ConfigError(f"bad {layer} spec: {exc}") from exc
    return ExperimentConfig(
        task=task, prior_spec=numbers["prior"], channel_spec=numbers["channel"],
        grid=numbers["grid"], numerics=numbers["numerics"],
        output=sections["output"], seed=seed)


def _number(test, need: str, kind: type = float):
    """Parser of one setting: a finite number that passes test, read as
    kind; an int setting takes integral values only."""
    def parse(raw):
        if not (isinstance(raw, (int, float)) and math.isfinite(raw) and test(raw)
                and (kind is float or float(raw).is_integer())):
            raise ValueError(f"must be {need}, got {raw!r}")
        return kind(raw)
    return parse


def _numbers(raw) -> list[float]:
    """Parser of a comma-separated list of finite numbers."""
    return [_PARAM_VALUE(_to_number(p)) for p in str(raw).split(",")]


_REQUIRED = object()
_PARAM_VALUE = _number(lambda x: True, "comma-separated finite numbers")
_POSITIVE = _number(lambda x: x > 0.0, "finite and positive")
_DAMPING = (0.0, _number(lambda x: 0.0 <= x < 1.0, "in [0, 1)"))
_COUNT = {k: _number(lambda n, k=k: n >= k, f"an integer >= {k}", int) for k in (0, 1, 3)}


def _settings(cfg: ExperimentConfig) -> dict:
    """The task's [grid] and [numerics] values by key, parsed and checked,
    with the defaults of the keys not given."""
    _, table = TASKS[cfg.task]
    given = {f"{section}.{key}": value for section in ("grid", "numerics")
             for key, value in getattr(cfg, section).items()}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"{cfg.task} does not read {unknown}; it reads {sorted(table)}")
    out = {}
    for name, (default, parse) in table.items():
        if name not in given and default is _REQUIRED:
            raise ConfigError(f"{cfg.task} needs {name}")
        try:
            out[name.split(".")[1]] = parse(given[name]) if name in given else default
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} {exc}") from None
    return out


# the most alphas of an errors grid: at about 0.25 s per solve, some forty
# minutes; a finer grid is a mistyped step
MAX_ALPHAS = 10_000


def _alpha_grid(s: dict) -> np.ndarray:
    start, stop, step = s["alpha_start"], s["alpha_stop"], s["alpha_step"]
    if stop < start:
        raise ConfigError("need alpha_stop >= alpha_start")
    span = (stop - start) / step
    # round(span) + 1 <= MAX_ALPHAS; an infinite span fails too
    if not span < MAX_ALPHAS - 0.5:
        raise ConfigError(f"grid.alpha_step {step!r} makes more than "
                          f"{MAX_ALPHAS} alphas")
    return start + step * np.arange(int(round(span)) + 1)


def run(config: ExperimentConfig) -> ResultTable:
    """Dispatch an experiment; returns the result table (caller writes it)."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    settings = _settings(config)
    handler, _ = TASKS[config.task]
    table = handler(config, settings)
    table.provenance = {
        "config_hash": config.config_hash(),
        "artifact_version": __version__,
        "timestamp": started,
        "task": config.task,
    }
    return table


def _run_errors(cfg: ExperimentConfig, s: dict) -> ResultTable:
    prior, channel = cfg.prior(), cfg.channel()
    rho = prior.second_moment
    alphas = _alpha_grid(s)

    def row(alpha):
        try:
            sol = replica.solve(prior, channel, float(alpha), grid_size=s["grid_size"])
            # the exact uninformative-start SE run of solve's Route A
            q_se = sol.se_uninformative.limit(float(alpha))
            gen_se = replica.generalization_error(channel, rho, q_se)
            return (float(alpha), sol.q_star, sol.r_star, sol.free_entropy,
                    sol.mmse, sol.matrix_mmse, sol.gen_error, gen_se,
                    sol.unique, "")
        except Exception as exc:
            return (float(alpha), math.nan, math.nan, math.nan, math.nan,
                    math.nan, math.nan, math.nan, False,
                    f"{type(exc).__name__}: {exc}")

    rows = [row(alpha) for alpha in alphas]
    return ResultTable(
        columns=("alpha", "q_star", "r_star", "free_entropy", "mmse",
                 "matrix_mmse", "gen_error_replica", "gen_error_se",
                 "unique_flag", "error"),
        rows=rows)


def _run_se(cfg: ExperimentConfig, s: dict) -> ResultTable:
    prior, channel = cfg.prior(), cfg.channel()
    rho = prior.second_moment
    q0 = se_mod.UNINFORMATIVE_FRAC * rho if s["q0"] is None else s["q0"]
    if q0 > rho:
        raise ConfigError(f"grid.q0 must lie in [0, rho = {rho!r}], got {q0!r}")
    opts = FixedPointOptions(damping=s["damping"], tol=s["se_tol"],
                             max_iter=s["se_max_iter"])
    traj = se_mod.se_run(prior, channel, s["alpha"], q0, opts)
    rows = [(t, float(q), float(r), rho - float(q))
            for t, (q, r) in enumerate(zip(traj.q_seq[1:], traj.r_seq))]
    failures = [] if traj.converged else [
        f"se: stopped at the iteration cap se_max_iter = {opts.max_iter} "
        f"without converging to se_tol = {opts.tol!r}"]
    return ResultTable(columns=("t", "q", "r", "mse_pred"), rows=rows,
                       failures=failures)


def _run_gamp(cfg: ExperimentConfig, s: dict) -> ResultTable:
    prior, channel = cfg.prior(), cfg.channel()
    rho = prior.second_moment
    n, alpha, n_test = s["n"], s["alpha"], s["n_test"]
    try:
        inst = generate_instance(prior, channel, n, alpha, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    opts = GampOptions(max_iter=s["gamp_max_iter"], tol=s["gamp_tol"],
                       damping=s["damping"], seed=cfg.seed)
    result = gamp_run(inst, opts)
    rows = []
    for t in range(len(result.overlap_seq)):
        gen_mc = math.nan
        if n_test > 0 and result.converged and t == len(result.overlap_seq) - 1:
            q_t = min(max(result.norm_sq_seq[t], 0.0), rho)
            gen_mc = empirical_generalization_error(
                inst, result.x_hat_final, q_t, n_test, seed=cfg.seed + 1)
        rows.append((t + 1, result.overlap_seq[t], result.norm_sq_seq[t],
                     result.mse_seq[t], gen_mc))
    failures = [] if result.converged else [
        f"gamp: stopped at the iteration cap gamp_max_iter = {opts.max_iter} "
        f"without converging to gamp_tol = {opts.tol!r}; gen_error_mc is NaN"]
    notes = [] if result.attempts == 1 else [
        f"gamp: n = {n}, alpha = {alpha!r}, seed = {cfg.seed}: the run at "
        f"damping {opts.damping!r} did not converge; the rows are from attempt "
        f"{result.attempts}, at damping {result.damping!r}"]
    return ResultTable(
        columns=("t", "overlap", "norm_sq", "mse", "gen_error_mc"), rows=rows,
        failures=failures, notes=notes)


def _scalar_fields(spec: dict) -> set:
    """Keys of a prior/channel spec that a phase-diagram grid can sweep."""
    return {k for k, v in spec.items() if k != "kind" and isinstance(v, float)}


def _run_phase_diagram(cfg: ExperimentConfig, s: dict) -> ResultTable:
    params, alpha_lo, alpha_hi = s["param_values"], s["alpha_lo"], s["alpha_hi"]
    if not alpha_lo < alpha_hi:
        raise ConfigError(f"need grid.alpha_lo < grid.alpha_hi, got {alpha_lo!r} "
                          f"and {alpha_hi!r}")
    key = s["param"]
    prior_keys = _scalar_fields(to_spec(cfg.prior()))
    channel_keys = _scalar_fields(to_spec(cfg.channel()))
    if key not in prior_keys | channel_keys:
        raise ConfigError(
            f"grid.param {key!r} is not a field of the configured "
            f"prior ({sorted(prior_keys)}) or channel ({sorted(channel_keys)})")

    def at_params(spec, base, keys):
        return {p: from_spec({**spec, key: p} if key in keys else spec, base)
                for p in params}

    # a value the swept prior or channel rejects is a config error
    try:
        priors = at_params(cfg.prior_spec, Prior, prior_keys)
        channels = at_params(cfg.channel_spec, Channel, channel_keys)
    except ValueError as exc:
        raise ConfigError(f"grid.param_values: {exc}") from exc
    reports = se_mod.phase_sweep(priors.get, channels.get, params,
                                 alpha_lo, alpha_hi, tol=s["bisect_tol"])
    rows = [(r.param,
             math.nan if r.alpha_it is None else r.alpha_it,
             math.nan if r.alpha_amp is None else r.alpha_amp,
             math.nan if r.alpha_c is None else r.alpha_c,
             r.error or "") for r in reports]
    return ResultTable(columns=("param", "alpha_it", "alpha_amp", "alpha_c",
                                "error"), rows=rows)


def _run_potential(cfg: ExperimentConfig, s: dict) -> ResultTable:
    prior, channel = cfg.prior(), cfg.channel()
    rho = prior.second_moment
    alpha = s["alpha"]
    qs = np.linspace(0.0, rho * (1.0 - replica.EVAL_DEPTH), s["q_points"])
    psi_rho = replica._psi_pout_at_rho(channel, rho)
    # i_rs at the inner-inf r: f is the f_rs that i_rs would take again
    fs, rs = replica.f_hat(prior, channel, alpha, qs)
    rows = [(q, r, f, alpha * psi_rho - f)
            for q, r, f in zip(qs.tolist(), rs.tolist(), fs.tolist())]
    return ResultTable(columns=("q", "r_inner", "f_rs", "i_rs"), rows=rows)


# ---------------------------------------------------------------------------
# validate task: the bundled property suite
# ---------------------------------------------------------------------------

def _validate_checks(seed: int):
    """(name, check) pairs; a check returns None or a failure's detail.
    Acceptance criterion 8 runs this suite through ``glmphase validate``."""
    from .channels import Abs, LinearAWGN, ReLU, Sigmoid, Sign, SymmetricDoor
    from .priors import GaussBernoulliPrior, GaussianPrior, RademacherPrior

    rad = RademacherPrior()
    gb = GaussBernoulliPrior(0.3)
    gauss = GaussianPrior(1.0)

    def check_psi_p0_prime_fd():
        for prior in (rad, gb, gauss):
            for r in (0.1, 1.0, 10.0):
                h = 1e-4
                fd = (prior.psi_p0(r + h) - prior.psi_p0(r - h)) / (2 * h)
                an = prior.psi_p0_prime(r)
                if abs(fd - an) / max(abs(an), 1e-12) > 1e-5:
                    return f"prior {type(prior).__name__} r={r}"
        return None

    def check_psi_pout_prime_fd():
        for ch, rho in ((Sign(), 1.0), (SymmetricDoor(), 1.0), (Abs(0.0), 1.0),
                        (LinearAWGN(0.5), 1.0), (Sigmoid(2.0), 1.0), (ReLU(1e-8), 0.2)):
            for qf in (0.1, 0.5, 0.9):
                q, h = qf * rho, 1e-4 * rho
                fd = (ch.psi_pout(q + h, rho) - ch.psi_pout(q - h, rho)) / (2 * h)
                an = ch.psi_pout_prime(q, rho)
                if abs(fd - an) / max(abs(an), 1e-12) > 1e-4:
                    return f"{type(ch).__name__} q={q}"
        return None

    def check_convexity():
        for prior in (rad, gb):
            rs = np.linspace(0.0, 20.0, 20)
            psis = np.array([prior.psi_p0(r) for r in rs])
            if np.any(psis[:-2] + psis[2:] - 2 * psis[1:-1] < -1e-9):
                return f"psi_p0 not convex for {type(prior).__name__}"
        for ch, rho in ((Sign(), 1.0), (SymmetricDoor(), 1.0)):
            qs = np.linspace(0.0, rho * 0.999, 20)
            psis = np.array([ch.psi_pout(q, rho) for q in qs])
            if np.any(np.diff(psis) < -1e-10):
                return f"psi_pout not nondecreasing for {type(ch).__name__}"
            if np.any(psis[:-2] + psis[2:] - 2 * psis[1:-1] < -1e-9):
                return f"psi_pout not convex for {type(ch).__name__}"
        return None

    # one solve of the perceptron serves the duality and stationarity checks
    alpha = 1.2
    solve_perceptron = functools.cache(lambda: replica.solve(rad, Sign(), alpha))

    def check_sup_inf():
        sol = solve_perceptron()
        psi_rho = Sign().psi_pout(1.0, 1.0)
        fs, _ = replica.f_hat(rad, Sign(), alpha, np.linspace(0.0, 1.0 - 1e-6, 101))
        inf_sup = float(np.min(alpha * psi_rho - fs))
        i_at_opt = alpha * psi_rho - sol.free_entropy
        # a NaN on either side fails the check
        if not abs(inf_sup - i_at_opt) <= 1e-6:
            return f"sup-inf duality broken: {inf_sup} vs {i_at_opt}"
        return None

    def check_stationarity():
        sol = solve_perceptron()
        rho = 1.0
        for p in sol.gamma_set:
            if not math.isfinite(p.r) or p.q >= rho:
                continue
            res_q = abs(p.q - 2 * rad.psi_p0_prime(p.r))
            if res_q > 1e-6 * rho:
                return f"stationarity residual {res_q} at q={p.q}"
        return None

    def check_nishimori():
        rep = oracle.nishimori_check(rad, LinearAWGN(0.5), n=8, alpha=1.5,
                                     samples=400, seed=seed)
        if rep.z_score >= 3.0:
            return f"z={rep.z_score:.2f}"
        return None

    def check_mc_free_entropies():
        est, se_ = oracle.mc_psi_p0(gauss, 1.0, 40000, seed)
        exact = gauss.psi_p0(1.0)
        if abs(est - exact) > 3 * se_ + 1e-12:
            return f"psi_p0 MC {est}+-{se_} vs {exact}"
        est, se_ = oracle.mc_psi_pout(Sign(), 0.3, 1.0, 40000, seed + 1)
        exact = Sign().psi_pout(0.3, 1.0)
        if abs(est - exact) > 3 * se_ + 1e-12:
            return f"psi_pout MC {est}+-{se_} vs {exact}"
        return None

    def check_gen_error_closed_forms():
        for ch, rho in ((Sign(), 1.0), (SymmetricDoor(), 1.0), (Abs(0.0), 1.0),
                        (LinearAWGN(0.3), 1.0), (Sigmoid(1.5), 1.0),
                        (Sigmoid(8.0), 2.5), (ReLU(1e-8), 0.2)):
            for qf in (0.0, 0.5, 0.99):
                replica.generalization_error(ch, rho, qf * rho)  # raises if routes disagree
        return None

    def check_se_gamp_tracking():
        from .gamp import GampOptions, gamp_run, generate_instance
        traj = se_mod.se_run(gauss, LinearAWGN(0.2), 1.5, 0.0)
        devs = []
        for s in range(3):
            inst = generate_instance(gauss, LinearAWGN(0.2), 500, 1.5, seed=seed + s)
            res = gamp_run(inst, GampOptions(seed=seed + s))
            T = min(5, len(res.overlap_seq))
            devs.append(res.overlap_seq[:T] - traj.q_seq[1:T + 1])
        dev = float(np.max(np.abs(np.mean(devs, axis=0))))
        if dev > 0.1:
            return f"tracking deviation {dev:.3f}"
        return None

    return [
        ("psi_p0_prime_vs_fd", check_psi_p0_prime_fd),
        ("psi_pout_prime_vs_fd", check_psi_pout_prime_fd),
        ("convexity_grids", check_convexity),
        ("sup_inf_duality", check_sup_inf),
        ("gamma_stationarity", check_stationarity),
        ("nishimori_mc", check_nishimori),
        ("mc_free_entropies", check_mc_free_entropies),
        ("gen_error_closed_vs_generic", check_gen_error_closed_forms),
        ("se_gamp_tracking", check_se_gamp_tracking),
    ]


def _run_validate(cfg: ExperimentConfig, _: dict) -> ResultTable:
    rows = []
    for name, fn in _validate_checks(cfg.seed):
        try:
            detail = fn()
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        rows.append((name, "pass" if detail is None else "fail", detail or ""))
    return ResultTable(columns=("check", "status", "detail"), rows=rows,
                       failures=[f"validate: {name} FAILED ({detail})"
                                 for name, status, detail in rows
                                 if status != "pass"])


# Each task: its handler, and the [grid] and [numerics] keys it reads, key ->
# (default, parser).  A task reads no other key.  A numerics default is the
# library's own; q0's, None, is the uninformative start UNINFORMATIVE_FRAC * rho.
TASKS = {
    "potential": (_run_potential, {
        "grid.alpha": (1.0, _POSITIVE), "grid.q_points": (101, _COUNT[1])}),
    "se": (_run_se, {
        "grid.alpha": (1.0, _POSITIVE),
        "grid.q0": (None, _number(lambda x: x >= 0.0, "finite and nonnegative")),
        "numerics.damping": _DAMPING,
        "numerics.se_tol": (se_mod.DEFAULT_SE_OPTS.tol, _POSITIVE),
        "numerics.se_max_iter": (se_mod.DEFAULT_SE_OPTS.max_iter, _COUNT[1])}),
    "gamp": (_run_gamp, {
        "grid.n": (1000, _COUNT[1]), "grid.alpha": (1.0, _POSITIVE),
        "grid.n_test": (0, _COUNT[0]),
        "numerics.gamp_max_iter": (GampOptions.max_iter, _COUNT[1]),
        "numerics.gamp_tol": (GampOptions.tol, _POSITIVE), "numerics.damping": _DAMPING}),
    "phase-diagram": (_run_phase_diagram, {
        "grid.param": ("sparsity", str), "grid.param_values": (_REQUIRED, _numbers),
        "grid.alpha_lo": (0.1, _POSITIVE), "grid.alpha_hi": (2.0, _POSITIVE),
        "numerics.bisect_tol": (se_mod.BISECT_TOL, _POSITIVE)}),
    "errors": (_run_errors, {
        "grid.alpha_start": (_REQUIRED, _POSITIVE),
        "grid.alpha_stop": (_REQUIRED, _POSITIVE), "grid.alpha_step": (0.1, _POSITIVE),
        "numerics.grid_size": (replica.GRID_SIZE, _COUNT[3])}),
    "validate": (_run_validate, {}),
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    s = format(x, ".17g") if isinstance(x, float) else str(x)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def emit(table: ResultTable, fmt: str = "csv") -> bytes:
    """Serialize a table; CSV uses 17-significant-digit floats and a
    '#'-commented provenance header.  A numpy scalar is written as its .item()."""
    rows = [[x.item() if isinstance(x, np.generic) else x for x in row] for row in table.rows]
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(table.provenance):
            buf.write(f"# {key} = {table.provenance[key]}\n")
        buf.write(",".join(table.columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt_cell(x) for x in row) + "\n")
        return buf.getvalue().encode()
    if fmt == "json":
        doc = {
            "metadata": dict(table.provenance),
            "columns": list(table.columns),
            "rows": [[None if isinstance(x, float) and math.isnan(x) else x
                      for x in row] for row in rows],
        }
        return json.dumps(doc, indent=1).encode()
    raise ValueError(f"unknown format {fmt!r}; expected csv or json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glmphase",
        description="Bayes-optimal errors and phase transitions for GLMs")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--override", action="append", default=[])
    args = parser.parse_args(argv)

    try:
        cfg = dataclasses.replace(parse_config(args.config, args.override),
                                  task=args.task)
        # an unknown output format fails before the run, not after it
        fmt = args.format or cfg.output.get("format", "csv")
        if fmt not in FORMATS:
            raise ConfigError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        table = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    payload = emit(table, fmt)
    out_path = args.out or cfg.output.get("path")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())

    for line in table.notes + table.failures:
        print(line, file=sys.stderr)
    return 1 if table.failures else 0


if __name__ == "__main__":
    sys.exit(main())
