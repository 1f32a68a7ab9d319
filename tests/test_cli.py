import json
import math
import subprocess
import sys

import numpy as np
import pytest

from glmphase import cli, gamp, replica
from glmphase import state_evolution as se
from glmphase.channels import ReLU, SymmetricDoor
from glmphase.cli import (ConfigError, ExperimentConfig, ResultTable, emit,
                          main, parse_config, run)
from glmphase.gamp import GampDivergenceError, GampState
from glmphase.numerics import FixedPointOptions
from glmphase.priors import GaussianPrior, TwoPointPrior

ERRORS_CFG = """
[experiment]
task = errors
seed = 77

[prior]
kind = rademacher
p_plus = 0.5

[channel]
kind = sign
delta = 0.0

[grid]
alpha_start = 1.0
alpha_stop = 1.4
alpha_step = 0.2

[numerics]
grid_size = 81

[output]
format = csv
"""


@pytest.fixture
def errors_cfg(tmp_path):
    path = tmp_path / "errors.ini"
    path.write_text(ERRORS_CFG)
    return path


class TestConfigParsing:
    def test_round_trip(self, errors_cfg):
        cfg = parse_config(str(errors_cfg))
        assert cfg.task == "errors"
        assert cfg.seed == 77 and type(cfg.seed) is int
        assert cfg.prior_spec["kind"] == "rademacher"
        assert cfg.grid["alpha_step"] == 0.2
        # pinned: parsing the seed as a checked integer keeps the hash
        assert cfg.config_hash() == "55cb64ce2294c459"

    def test_defaults_are_the_library_values(self, tmp_path, monkeypatch):
        """Each default of a numerics key is read from the one library value
        it stands for, and keeps the number it has always had."""
        import inspect
        default = {name: value for keys in cli.SETTINGS.values()
                   for name, (value, _) in keys.items()}
        library = {
            "numerics.grid_size":
                inspect.signature(replica.solve).parameters["grid_size"].default,
            "numerics.se_tol": se.DEFAULT_SE_OPTS.tol,
            "numerics.se_max_iter": se.DEFAULT_SE_OPTS.max_iter,
            "numerics.gamp_tol": gamp.GampOptions().tol,
            "numerics.gamp_max_iter": gamp.GampOptions().max_iter}
        for fn in (se.find_alpha_amp, se.find_alpha_it, se.phase_sweep):
            assert default["numerics.bisect_tol"] == \
                inspect.signature(fn).parameters["tol"].default == 1e-3
        assert {k: default[k] for k in library} == library == {
            "numerics.grid_size": 201, "numerics.se_tol": 1e-10,
            "numerics.se_max_iter": 5000, "numerics.gamp_tol": 1e-7,
            "numerics.gamp_max_iter": 500}
        # q0 starts SE at the uninformative start; the potential's q grid
        # stops at the depth of the recovery point
        assert se.UNINFORMATIVE_FRAC == replica.EVAL_DEPTH == 1e-6
        starts, se_run = [], se.se_run
        monkeypatch.setattr(se, "se_run", lambda *a: starts.append(a[3]) or se_run(*a))
        base = "[experiment]\nseed = 1\n[prior]\nkind = gauss_bernoulli\nsparsity = 0.2\n" \
               "[channel]\nkind = sign\n"
        path = tmp_path / "cfg.ini"
        path.write_text(base)
        run(parse_config(str(path), ["experiment.task=se", "numerics.se_max_iter=2"]))
        assert starts == [se.UNINFORMATIVE_FRAC * 0.2]
        table = run(parse_config(str(path), ["experiment.task=potential",
                                             "grid.q_points=2"]))
        assert table.rows[-1][0] == 0.2 * (1.0 - replica.EVAL_DEPTH)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ntask = errors\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_task_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ntask = frobnicate\nseed = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_override(self, errors_cfg):
        cfg = parse_config(str(errors_cfg), ["grid.alpha_step=0.4"])
        assert cfg.grid["alpha_step"] == 0.4

    def test_bad_override_shape(self, errors_cfg):
        with pytest.raises(ConfigError):
            parse_config(str(errors_cfg), ["alpha_step0.4"])

    def test_unknown_channel_kind(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("""
[experiment]
task = errors
seed = 1
[prior]
kind = rademacher
[channel]
kind = wormhole
[grid]
alpha_start = 1.0
alpha_stop = 1.0
""")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def _spec_cfg(self, tmp_path, prior, channel):
        path = tmp_path / "spec.ini"
        path.write_text(f"""
[experiment]
task = se
seed = 1
[prior]
{prior}
[channel]
{channel}
""")
        return parse_config(str(path))

    def test_two_point_prior_from_lists(self, tmp_path):
        cfg = self._spec_cfg(tmp_path, "kind = two_point\nvalues = 1.0,-1.0\n"
                             "probabilities = 0.5,0.5", "kind = sign")
        assert cfg.prior() == TwoPointPrior((1.0, -1.0), (0.5, 0.5))

    def test_omitted_fields_take_class_defaults(self, tmp_path):
        cfg = self._spec_cfg(tmp_path, "kind = gaussian", "kind = relu")
        assert cfg.prior() == GaussianPrior(1.0)
        assert cfg.channel() == ReLU(1e-8)

    def test_keys_keep_their_case(self, tmp_path):
        cfg = self._spec_cfg(tmp_path, "kind = rademacher", "kind = door\nK = 1.2")
        assert cfg.channel() == SymmetricDoor(K=1.2)


class TestEmit:
    def _table(self):
        return ResultTable(columns=("a", "b"),
                           rows=[(1.0, "x"), (0.1 + 0.2, "y,z")],
                           provenance={"config_hash": "feed", "timestamp": "t"})

    def test_empty_table_header_only(self):
        out = emit(ResultTable(columns=("a", "b"), rows=[]), "csv").decode()
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body == ["a,b"]

    def test_csv_has_provenance_and_17_digits(self):
        out = emit(self._table(), "csv").decode()
        assert "# config_hash = feed" in out
        assert "0.30000000000000004" in out
        assert '"y,z"' in out  # quoting

    def test_json_round_trip_bitwise(self):
        out = json.loads(emit(self._table(), "json"))
        assert out["rows"][1][0] == 0.1 + 0.2
        assert out["metadata"]["config_hash"] == "feed"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self._table(), "xml")


class TestRunTasks:
    def test_errors_task_columns_and_transition(self, errors_cfg):
        cfg = parse_config(str(errors_cfg))
        table = run(cfg)
        assert table.columns[:4] == ("alpha", "q_star", "r_star", "free_entropy")
        rows = {round(r[0], 3): r for r in table.rows}
        # alpha = 1.0 < alpha_IT: partial learning; alpha = 1.4 > alpha_IT
        assert rows[1.0][1] < 0.9
        assert rows[1.4][1] == pytest.approx(1.0)
        assert all(r[-1] == "" for r in table.rows)

    def test_errors_task_builds_no_spline_tables(self, errors_cfg, tmp_path):
        """gen_error_se comes from the exact SE run of solve's Route A."""
        from glmphase import state_evolution as se
        se._prior_table.cache_clear()
        se._channel_table.cache_clear()
        out = tmp_path / "out.csv"
        assert main(["errors", "--config", str(errors_cfg), "--out", str(out)]) == 0
        assert se._prior_table.cache_info().misses == 0
        assert se._channel_table.cache_info().misses == 0

    def test_errors_se_matches_replica_below_alpha_it(self, errors_cfg):
        """Below alpha_IT the uninformative SE limit is the replica optimum;
        the spline-table SE run it replaced was 4.3e-8 off."""
        cfg = parse_config(str(errors_cfg), ["grid.alpha_start=0.9",
                                             "grid.alpha_stop=1.1",
                                             "numerics.grid_size=201"])
        table = run(cfg)
        assert len(table.rows) == 2
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            assert rec["error"] == "" and rec["q_star"] < 1.0
            assert abs(rec["gen_error_se"] - rec["gen_error_replica"]) <= 1e-9

    def test_errors_row_records_se_non_convergence(self, errors_cfg, monkeypatch):
        """An SE run stopped at its iteration cap is not read as a limit."""
        from glmphase import state_evolution as se
        monkeypatch.setattr(se, "DEFAULT_SE_OPTS",
                            FixedPointOptions(damping=0.0, tol=1e-10, max_iter=2))
        cfg = parse_config(str(errors_cfg), ["grid.alpha_stop=1.0"])
        (row,) = run(cfg).rows
        assert row[-1].startswith("SENonConvergenceError")
        assert math.isnan(row[7])

    def test_se_task(self, tmp_path):
        path = tmp_path / "se.ini"
        path.write_text("""
[experiment]
task = se
seed = 5
[prior]
kind = gaussian
variance = 1.0
[channel]
kind = linear
delta = 0.5
[grid]
alpha = 2.0
q0 = 1e-6
""")
        table = run(parse_config(str(path)))
        assert table.columns == ("t", "q", "r", "mse_pred")
        s = 1.0 + 0.5 + 2.0
        q_exact = (s - math.sqrt(s * s - 8.0)) / 2.0
        assert table.rows[-1][1] == pytest.approx(q_exact, abs=1e-8)

    def test_gamp_task_emits_iterations(self, tmp_path):
        path = tmp_path / "gamp.ini"
        path.write_text("""
[experiment]
task = gamp
seed = 11
[prior]
kind = gaussian
[channel]
kind = linear
delta = 0.1
[grid]
n = 400
alpha = 1.5
n_test = 2000
""")
        table = run(parse_config(str(path)))
        assert table.columns == ("t", "overlap", "norm_sq", "mse", "gen_error_mc")
        assert table.rows[0][0] == 1
        # gen error only on the last row; NaN elsewhere (documented optional)
        assert math.isnan(table.rows[0][-1])
        assert not math.isnan(table.rows[-1][-1])

    def test_phase_diagram_task(self, tmp_path):
        path = tmp_path / "pd.ini"
        path.write_text("""
[experiment]
task = phase-diagram
seed = 3
[prior]
kind = rademacher
[channel]
kind = door
delta = 0.0
[grid]
param = K
param_values = 0.67449
alpha_lo = 0.8
alpha_hi = 2.2
[numerics]
bisect_tol = 5e-3
""")
        table = run(parse_config(str(path)))
        assert table.columns == ("param", "alpha_it", "alpha_amp", "alpha_c",
                                 "error")
        row = table.rows[0]
        assert row[1] == pytest.approx(1.0, abs=0.01)
        assert row[2] == pytest.approx(1.566, abs=0.02)
        assert row[3] == pytest.approx(1.36, abs=0.01)

    @pytest.mark.parametrize("prior,channel,param", [
        ("kind = rademacher", "kind = door", "sparsity"),
        ("kind = rademacher", "kind = sign", "K"),
        ("kind = gauss_bernoulli\nsparsity = 0.5", "kind = abs", "p_plus"),
        # once an undocumented second name of sparsity
        ("kind = gauss_bernoulli\nsparsity = 0.5", "kind = abs", "rho"),
    ])
    def test_phase_diagram_rejects_unknown_param(self, tmp_path, prior,
                                                 channel, param):
        path = tmp_path / "pd.ini"
        path.write_text(f"""
[experiment]
task = phase-diagram
seed = 3
[prior]
{prior}
[channel]
{channel}
[grid]
param = {param}
param_values = 0.5,0.7
""")
        with pytest.raises(ConfigError, match=param):
            run(parse_config(str(path)))
        out = tmp_path / "pd.csv"
        assert main(["phase-diagram", "--config", str(path),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_potential_task(self, tmp_path):
        path = tmp_path / "pot.ini"
        path.write_text("""
[experiment]
task = potential
seed = 9
[prior]
kind = rademacher
[channel]
kind = sign
delta = 0.0
[grid]
alpha = 1.2
q_points = 11
""")
        table = run(parse_config(str(path)))
        assert table.columns == ("q", "r_inner", "f_rs", "i_rs")
        from glmphase.priors import RademacherPrior
        from glmphase.channels import Sign
        from glmphase.replica import f_hat, i_rs
        q, r, f, i_val = table.rows[5]
        f_ref, r_ref = f_hat(RademacherPrior(), Sign(), 1.2, q)
        assert f == pytest.approx(f_ref, abs=1e-12)
        assert r == pytest.approx(r_ref, rel=1e-9)
        # psi_pout(rho) taken once for the table gives i_rs to the bit
        assert [row[3] for row in table.rows] == [
            i_rs(RademacherPrior(), Sign(), 1.2, q, r)
            for q, r, _, _ in table.rows]

    @pytest.mark.parametrize("numerics,grid", [
        ("bisect_tol = 0", ""), ("bisect_tol = -1", ""),
        ("bisect_tol = nan", ""), ("bisect_tol = inf", ""),
        ("", "alpha_lo = 1.8\nalpha_hi = 1.8"),
        ("", "alpha_lo = 1.8\nalpha_hi = 0.8"),
    ])
    def test_phase_diagram_rejects_bad_bracket(self, tmp_path, numerics, grid):
        """bisect_tol = 0 once bisected forever: the bracket stops at one
        ulp, never below 0."""
        path = tmp_path / "pd.ini"
        path.write_text(f"""
[experiment]
task = phase-diagram
seed = 3
[prior]
kind = rademacher
[channel]
kind = door
[grid]
param = K
param_values = 0.67449
{grid}
[numerics]
{numerics}
""")
        with pytest.raises(ConfigError):
            run(parse_config(str(path)))
        out = tmp_path / "pd.csv"
        assert main(["phase-diagram", "--config", str(path),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch):
        import glmphase.cli as cli_mod
        monkeypatch.setattr(
            cli_mod, "_validate_checks",
            lambda seed: [("always_fails", lambda: "broken on purpose")])
        path = tmp_path / "val.ini"
        path.write_text("[experiment]\ntask = validate\nseed = 1\n")
        out = tmp_path / "val.csv"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
        assert "fail" in out.read_text()

    def test_reruns_are_byte_identical_modulo_timestamp(self, errors_cfg):
        cfg = parse_config(str(errors_cfg))
        def body(t):
            return [l for l in emit(t, "csv").decode().splitlines()
                    if not l.startswith("# timestamp")]
        assert body(run(cfg)) == body(run(cfg))


class TestCliEntry:
    def test_main_writes_csv(self, errors_cfg, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["errors", "--config", str(errors_cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[-1].count(",") == 9

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\ntask = errors\n")
        assert main(["errors", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("prior,channel,named", [
        ("kind = rademacher", "kind = sign\nK = 3.0", "'K'"),
        ("kind = sign", "kind = sign", "prior kind 'sign'"),
        ("kind = gauss_bernoulli", "kind = sign", "sparsity"),
        ("kind = rademacher", "kind = sign\ndelta = lots", "sign.delta"),
        ("kind = rademacher", "delta = 0.0", "channel kind None"),
    ])
    def test_bad_spec_exit_code(self, tmp_path, capsys, prior, channel, named):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\ntask = se\nseed = 1\n"
                        f"[prior]\n{prior}\n[channel]\n{channel}\n")
        assert main(["se", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("task,setting", [
        ("errors", "channel.delta=nan"),
        ("errors", "grid.alpha_step=nan"), ("errors", "grid.alpha_stop=inf"),
        ("errors", "grid.alpha_stpe=0.1"), ("errors", "numerics.grid_size=2.5"),
        ("errors", "numerics.grid_size=2"), ("errors", "grid.alpha_start=1.5"),
        ("se", "grid.alpha=-1"), ("se", "grid.q0=2"), ("se", "numerics.se_tol=0"),
        ("se", "numerics.se_tol=nan"), ("se", "grid.alpha_step=0.1"),
        ("potential", "grid.alpha=-1"), ("potential", "grid.q_points=0"),
        ("potential", "prior.kind=gaussian"), ("potential", "numerics.bisect_tol=1"),
        ("phase-diagram", "grid.param_values=0.6,,0.7"),
        ("phase-diagram", "grid.alpha_lo=nan"), ("phase-diagram", "grid.param_values=1.5"),
        ("gamp", "grid.n=2.5"), ("gamp", "numerics.gamp_tol=inf"),
        ("validate", "grid.alpha=1"), ("potential", "output.format=xml"),
        ("errors", "experiment.seed=abc"), ("errors", "experiment.seed=1.5"),
        ("errors", "experiment.seed=-3"), ("errors", "grid.alpha_step=1e-320"),
        # 0.2 / 2e-5 + 1 = MAX_ALPHAS + 1 alphas
        ("errors", "grid.alpha_step=2e-5"),
        # a section or key the CLI does not read
        ("errors", "numeric.grid_size=5"), ("errors", "grdi.alpha_step=0.1"),
        ("errors", "experiment.sede=2"), ("errors", "output.formt=json"),
    ])
    def test_bad_setting_is_a_config_error(self, tmp_path, capsys, task, setting):
        """Each of these once ended in a traceback, a row without an error,
        an empty table, or a setting silently read as another value."""
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\ntask = errors\nseed = 1\n"
                        "[prior]\nkind = rademacher\n[channel]\nkind = sign\n"
                        "[grid]\n[numerics]\n")
        grid = {"errors": ["grid.alpha_start=1.0", "grid.alpha_stop=1.2"],
                "phase-diagram": ["grid.param=p_plus", "grid.param_values=0.5"]}
        overrides = [x for ov in grid.get(task, []) + [setting]
                     for x in ("--override", ov)]
        if setting == "prior.kind=gaussian":
            overrides += ["--override", "prior.variance=inf"]
        out = tmp_path / "out.csv"
        assert main([task, "--config", str(path), "--out", str(out)] + overrides) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda t: t + "[grdi]\nalpha_step = 0.1\n", "[grdi]"),
        (lambda t: t + "[DEFAULT]\nalpha_step = 0.1\n", "[DEFAULT]"),
        (lambda t: t.replace("seed = 1\n", "seed = 1\nsede = 2\n"), "experiment.sede"),
        (lambda t: t + "[output]\nformt = json\n", "output.formt"),
        (lambda t: "seed = 1\n" + t, "no section headers"),
        (lambda t: t.replace("seed = 1\n", "seed = 1\nseed = 2\n"), "'seed'"),
        (lambda t: t + "[grid]\nalpha_step = 0.1\n", "'grid'"),
    ], ids=["section", "default", "experiment-key", "output-key", "no-header",
            "duplicate-key", "duplicate-section"])
    def test_config_file_it_would_ignore_or_cannot_parse(self, tmp_path, capsys,
                                                         edit, named):
        """Unknown sections and keys were once dropped without a word (exit
        0), and a file configparser rejects ended in a traceback."""
        path = tmp_path / "cfg.ini"
        path.write_text(edit("[experiment]\ntask = errors\nseed = 1\n"
                             "[prior]\nkind = rademacher\n[channel]\nkind = sign\n"
                             "[grid]\nalpha_start = 1.0\nalpha_stop = 1.0\n"))
        out = tmp_path / "out.csv"
        assert main(["errors", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_alpha_grid_takes_max_alphas(self):
        grid = cli._alpha_grid({"alpha_start": 1.0, "alpha_stop": 2.0,
                                "alpha_step": 1.0 / (cli.MAX_ALPHAS - 1)})
        assert len(grid) == cli.MAX_ALPHAS

    def test_se_run_cut_at_its_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "se.ini"
        path.write_text("[experiment]\ntask = se\nseed = 1\n"
                        "[prior]\nkind = rademacher\n[channel]\nkind = sign\n"
                        "[numerics]\nse_max_iter = 3\n")
        out = tmp_path / "se.csv"
        assert main(["se", "--config", str(path), "--out", str(out)]) == 1
        assert "se_max_iter = 3" in capsys.readouterr().err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,q,r,mse_pred" and len(lines) == 4
        assert main(["se", "--config", str(path), "--out", str(out),
                     "--override", "numerics.se_max_iter=5000"]) == 0

    @pytest.mark.parametrize("grid,numerics,named", [
        ("n_test = -1", "", "n_test"),
        ("n_test = 0", "damping = 1.0", "damping"),
        ("n_test = 0", "gamp_max_iter = 0", "max_iter"),
        ("n_test = 0\nalpha = 0.01", "", "round"),
    ])
    def test_bad_gamp_input_exit_code(self, tmp_path, capsys, grid, numerics,
                                      named):
        path = tmp_path / "gamp.ini"
        path.write_text(f"[experiment]\ntask = gamp\nseed = 1\n"
                        f"[prior]\nkind = rademacher\n[channel]\nkind = sign\n"
                        f"[grid]\nn = 10\n{grid}\n[numerics]\n{numerics}\n")
        assert main(["gamp", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_gamp_run_cut_at_its_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "gamp.ini"
        path.write_text("[experiment]\ntask = gamp\nseed = 1\n"
                        "[prior]\nkind = rademacher\n[channel]\nkind = sign\n"
                        "[grid]\nn = 200\nalpha = 1.5\nn_test = 500\n"
                        "[numerics]\ngamp_max_iter = 2\n")
        out = tmp_path / "gamp.csv"
        assert main(["gamp", "--config", str(path), "--out", str(out)]) == 1
        assert "gamp_max_iter = 2" in capsys.readouterr().err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,overlap,norm_sq,mse,gen_error_mc"
        assert len(lines) == 3
        assert all(l.endswith(",nan") for l in lines[1:])
        # the same run with room to converge exits 0 with an MC error
        assert main(["gamp", "--config", str(path), "--out", str(out),
                     "--override", "numerics.gamp_max_iter=500"]) == 0
        assert capsys.readouterr().err == ""
        assert not out.read_text().splitlines()[-1].endswith(",nan")

    def test_gamp_retry_is_reported(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gamp.ini"
        path.write_text("[experiment]\ntask = gamp\nseed = 3\n"
                        "[prior]\nkind = gaussian\n"
                        "[channel]\nkind = linear\ndelta = 0.2\n"
                        "[grid]\nn = 300\nalpha = 1.5\n")

        def data(p):
            return [l for l in p.read_text().splitlines() if not l.startswith("#")]

        damped = tmp_path / "damped.csv"
        assert main(["gamp", "--config", str(path), "--out", str(damped),
                     "--override", "numerics.damping=0.5"]) == 0
        assert capsys.readouterr().err == ""
        # the undamped attempt diverges; gamp_run retries at damping 0.5
        iterate = gamp._gamp_iterate

        def diverge_undamped(instance, opts, damping):
            if damping < 0.5:
                raise GampDivergenceError(GampState(
                    x_hat=np.full(instance.n, np.nan), v=np.ones(instance.n),
                    omega=np.zeros(instance.m), g=np.zeros(instance.m),
                    V_scalar=1.0, lam=1.0, t=1))
            return iterate(instance, opts, damping)

        monkeypatch.setattr(gamp, "_gamp_iterate", diverge_undamped)
        out = tmp_path / "retried.csv"
        assert main(["gamp", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "gamp: n = 300, alpha = 1.5, seed = 3: the run at damping 0.0 "
            "did not converge; the rows are from attempt 2, at damping 0.5"]
        assert data(out) == data(damped)

    def test_workers_option_is_gone(self, errors_cfg):
        with pytest.raises(SystemExit) as exc:
            main(["phase-diagram", "--config", str(errors_cfg), "--workers", "2"])
        assert exc.value.code == 2

    def test_module_invocation(self, errors_cfg, tmp_path):
        out = tmp_path / "cli.json"
        proc = subprocess.run(
            [sys.executable, "-m", "glmphase", "errors", "--config",
             str(errors_cfg), "--out", str(out), "--format", "json"],
            capture_output=True, text=True, timeout=560)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "alpha"
