"""Per-layer spans for glmphase, installed from outside the package.

``Tracer.install()`` replaces the public entry points of each glmphase
module with wrappers that record one span per call.  A function is wrapped
in every module that binds it, because callers look it up there (for
example ``priors.gauss_panels`` is bound at import time); a method is
wrapped on each class that defines it.

Spans nest on a stack.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans plus the
time covered by no span add up to the wall time of the traced section.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, attribute, modules that bind it)
FUNCTIONS = (
    ("numerics.gauss_panels", "gauss_panels", ("numerics", "priors", "channels")),
    ("numerics.bisect", "bisect", ("numerics",)),
    ("numerics.integrate_1d", "integrate_1d", ("numerics", "channels")),
    ("state_evolution.se_run", "se_run", ("state_evolution",)),
    ("state_evolution.gamma_branches", "gamma_branches", ("state_evolution",)),
    ("state_evolution.find_alpha_amp", "find_alpha_amp", ("state_evolution",)),
    ("state_evolution.find_alpha_it", "find_alpha_it", ("state_evolution",)),
    ("state_evolution.tables", "_prior_table", ("state_evolution",)),
    ("state_evolution.tables", "_channel_table", ("state_evolution",)),
    ("replica.solve", "solve", ("replica",)),
    ("replica.f_hat", "f_hat", ("replica",)),
    ("replica.inner_inf_r", "inner_inf_r", ("replica",)),
    ("replica.generalization_error", "generalization_error", ("replica",)),
    ("gamp.generate_instance", "generate_instance", ("gamp", "cli")),
    ("gamp.gamp_run", "gamp_run", ("gamp", "cli")),
    ("gamp.empirical_generalization_error", "empirical_generalization_error",
     ("gamp", "cli")),
    ("cli.parse_config", "parse_config", ("cli",)),
    ("cli.run", "run", ("cli",)),
    ("cli.emit", "emit", ("cli",)),
)
# (module, base class, methods): wrapped on the base and every subclass
# in the module that overrides them
METHODS = (
    ("priors", "Prior", ("psi_p0_prime", "denoise")),
    ("channels", "Channel", ("psi_pout", "psi_pout_prime", "stability_integral",
                             "gout", "sample_label")),
)
SPANS = tuple(dict.fromkeys(
    [name for name, _, _ in FUNCTIONS]
    + [f"{mod}.{m}" for mod, _, methods in METHODS for m in methods]))
COUNTERS = ("state_evolution.se_run.iterations",
            "state_evolution.se_run.nonconverged",
            "state_evolution.find_alpha_amp.se_runs",
            "state_evolution.table_builds",
            "state_evolution.table_build_s",
            "gamp.gamp_run.iterations",
            "gamp.gamp_run.nonconverged",
            "gamp.gamp_run.computed_bytes_per_iter")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_level_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []      # [time in direct children] per open span
        self._active = defaultdict(int)   # name -> open spans of that name
        self._patches: list[tuple] = []
        self._tables: list = []

    # -- spans -----------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def _wrap(self, name: str, fn, on_return=None):
        stack, active = self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_level_s += dur
            if on_return is not None:
                on_return(args, result, dur)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, on_return=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, on_return))
        self._patches.append((owner, attr, original))

    # -- counters read from return values --------------------------------------

    def _se_run_done(self, args, traj, dur):
        self.counters["state_evolution.se_run.iterations"] += len(traj.r_seq)
        self.counters["state_evolution.se_run.nonconverged"] += not traj.converged
        if self.inside("state_evolution.find_alpha_amp"):
            self.counters["state_evolution.find_alpha_amp.se_runs"] += 1

    def _gamp_run_done(self, args, run, dur):
        inst = args[0]
        self.counters["gamp.gamp_run.iterations"] += run.iterations
        self.counters["gamp.gamp_run.nonconverged"] += not run.converged
        # Phi is read twice per iteration (Phi x and Phi^T g), 8-byte floats
        self.counters["gamp.gamp_run.computed_bytes_per_iter"] = 2 * inst.m * inst.n * 8

    def _table_done(self, cache):
        state = {"misses": cache.cache_info().misses}

        def done(args, result, dur):
            misses = cache.cache_info().misses
            if misses > state["misses"]:
                self.counters["state_evolution.table_builds"] += misses - state["misses"]
                self.counters["state_evolution.table_build_s"] += dur
            state["misses"] = misses

        return done

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {"state_evolution.se_run": self._se_run_done,
                 "gamp.gamp_run": self._gamp_run_done}
        for name, attr, modules in FUNCTIONS:
            for mod_name in modules:
                mod = importlib.import_module(f"glmphase.{mod_name}")
                if attr not in mod.__dict__:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                hook = hooks.get(name)
                if name == "state_evolution.tables":
                    cache = mod.__dict__[attr]
                    self._tables.append((cache, cache.cache_info()))
                    hook = self._table_done(cache)
                self._patch(mod, attr, name, hook)
        for mod_name, base_name, methods in METHODS:
            mod = importlib.import_module(f"glmphase.{mod_name}")
            base = getattr(mod, base_name)
            classes = [c for c in vars(mod).values()
                       if isinstance(c, type) and issubclass(c, base)]
            for meth in methods:
                owners = [c for c in classes if meth in c.__dict__]
                if not owners:
                    self.missing.append(f"{mod_name}.{base_name}.{meth}")
                for cls in owners:
                    self._patch(cls, meth, f"{mod_name}.{meth}")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced section, keyed by metric name."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)

        hits = lookups = 0
        for cache, before in self._tables:
            after = cache.cache_info()
            hits += after.hits - before.hits
            lookups += after.hits + after.misses - before.hits - before.misses
        out["state_evolution.table_hit_ratio"] = _ratio(hits, lookups)
        iters = out["gamp.gamp_run.iterations"]
        out["gamp.gamp_run.iter_ms"] = _ratio(
            1e3 * self.total_s["gamp.gamp_run"], iters)
        out["numerics.gauss_panels.per_psi_p0_prime"] = _ratio(
            self.calls["numerics.gauss_panels"], self.calls["priors.psi_p0_prime"])
        out["priors.psi_p0_prime.per_inner_inf_r"] = _ratio(
            self.calls["priors.psi_p0_prime"], self.calls["replica.inner_inf_r"])
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - self.top_level_s
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
