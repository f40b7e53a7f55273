import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import saddle_es
from saddle_es import cli
from saddle_es import (EscapeExperimentSpec, EsParams, GridSpec, NormalizedState, SaddleProblem,
                       closed_form_b1, closed_form_b2, drift_map, run_escape_experiment,
                       sample_M_plus_0, success_probability, task_rng)
from saddle_es.cli import (
    EXIT_CONFIG,
    EXIT_CONSTANTS,
    EXIT_CRITERION,
    EXIT_NONFINITE,
    EXIT_OK,
    EXIT_UNDERFLOW,
    _load_config,
    build_parser,
    main,
)

COMMANDS = ("run", "escape", "drift-map", "constants", "succ-prob", "pairing", "levels")


def run_cli(*args):
    return main(list(args))


class TestRunCommand:
    def test_escape_run_exits_zero(self, tmp_path):
        code = run_cli("run", "--a=-1,1", "--b=1", "--m0=0,1", "--sigma0=1",
                       "--alpha=1.5", "--budget=100000", "--seed=42",
                       f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["schema"] == 1
        assert summary["reason"] == "target"
        assert summary["seed"] == 42
        assert summary["generator"] == "numpy-pcg64"
        assert summary["t_escape"] is not None

    def test_trace_csv_columns(self, tmp_path):
        run_cli("run", "--a=-1,20", "--b=1", "--m0=0,0.5", "--sigma0=0.5",
                "--budget=1000", "--seed=1", "--record-every=1",
                f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "t,m_1,m_2,sigma,f,accepted"
        first = lines[1].split(",")
        assert first[0] == "0" and first[-1] == ""  # initial record has no accept flag
        assert float(first[4]) == pytest.approx(0.5**2 * 20.0)

    def test_missing_b_is_config_error(self, tmp_path):
        assert run_cli("run", "--a=-1,1", "--m0=0,1", "--sigma0=1",
                       f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json") == EXIT_CONFIG

    def test_alpha_one_rejected(self, tmp_path):
        assert run_cli("run", "--a=-1,1", "--b=1", "--m0=0,1", "--sigma0=1",
                       "--alpha=1.0", f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json") == EXIT_CONFIG

    def test_budget_exhaustion_exits_two(self, tmp_path):
        code = run_cli("run", "--a=-1,100", "--b=1", "--m0=0,0.1", "--sigma0=0.001",
                       "--budget=1", "--seed=0",
                       f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        assert code == EXIT_CRITERION

    def test_underflow_exits_three(self, tmp_path):
        for seed in range(30):
            code = run_cli("run", "--a=-1,100", "--b=1", "--m0=0,0.1",
                           "--sigma0=0.001", "--sigma-min=0.000999",
                           "--budget=100000", f"--seed={seed}",
                           f"--trace-out={tmp_path}/t.csv",
                           f"--summary-out={tmp_path}/s.json")
            if code == EXIT_UNDERFLOW:
                summary = json.loads((tmp_path / "s.json").read_text())
                assert summary["reason"] == "underflow"
                return
        pytest.fail("no underflow exit observed over 30 seeds")

    def test_nonfinite_exits_five(self, tmp_path, monkeypatch):
        # under a stop condition that never fires, the mean reaches f = -inf
        monkeypatch.setattr(cli, "target_reached", lambda problem, state: False)
        code = run_cli("run", "--a=-1,20", "--b=1", "--m0=0,1", "--sigma0=1",
                       "--budget=200000", "--seed=0", "--record-every=0",
                       f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        assert code == EXIT_NONFINITE
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["reason"] == "nonfinite" and summary["f_final"] == "-inf"

    def test_nonfinite_start_is_config_error(self, tmp_path):
        assert run_cli("run", "--a=-1,20", "--b=1", "--m0=0,1e200", "--sigma0=1",
                       f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json") == EXIT_CONFIG


class TestConfigHandling:
    def test_config_file_supplies_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": [-1.0, 1.0], "b": 1, "m0": [0.0, 1.0],
                                   "sigma0": 1.0, "seed": 3}))
        code = run_cli("run", f"--config={cfg}",
                       f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": [-1.0, 1.0], "b": 1, "m0": [0.0, 1.0],
                                   "sigma0": 1.0, "seed": 3}))
        run_cli("run", f"--config={cfg}", "--seed=99",
                f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == 99

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_long_flag_is_a_config_key(self, command, tmp_path, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        flags = set(re.findall(r"--([a-z][a-z0-9-]*)", capsys.readouterr().out))
        flags -= {"help", "config"}
        assert {"a", "b", "seed"} <= flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(flags, 1)))
        assert set(_load_config(parser.parse_args([command, f"--config={cfg}"]))) == flags

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": [-1.0, 1.0], "b": 1, "m0": [0.0, 1.0],
                                   "sigma0": 1.0, "sigmma0": 2.0}))
        assert run_cli("run", f"--config={cfg}",
                       f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json") == EXIT_CONFIG

    def test_env_var_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLE_ES_SEED", "777")
        run_cli("run", "--a=-1,1", "--b=1", "--m0=0,1", "--sigma0=1",
                f"--trace-out={tmp_path}/t.csv", f"--summary-out={tmp_path}/s.json")
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == 777

    @pytest.mark.parametrize("args", [("escape", "--threads=0"), ("escape", "--threads=-4"),
                                      ("drift-map", "--threads=0")])
    def test_threads_below_one_is_config_error(self, args, tmp_path, capsys):
        outputs = {"escape": ("--a=-1,100", "--trials=20", f"--stats-out={tmp_path}/e.json",
                              f"--survival-out={tmp_path}/e.csv"),
                   "drift-map": ("--a=-1,20", "--n=2000", f"--map-out={tmp_path}/m.csv")}
        code = run_cli(*args, "--b=1", *outputs[args[0]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: threads must be at least 1\n"


class TestEscapeCommand:
    def test_full_escape_exits_zero(self, tmp_path):
        code = run_cli("escape", "--a=-1,1", "--b=1", "--trials=20",
                       "--budget=100000", "--seed=5",
                       f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv")
        assert code == EXIT_OK
        stats = json.loads((tmp_path / "e.json").read_text())
        assert stats["escape_fraction"] == 1.0
        assert stats["n_underflow"] == 0
        assert (tmp_path / "e.csv").read_text().splitlines()[0] == "t,S"

    def test_budget_one_exits_two(self, tmp_path):
        code = run_cli("escape", "--a=-1,100", "--b=1", "--sigma0=0.001",
                       "--trials=10", "--budget=1", "--seed=5",
                       f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv")
        assert code == EXIT_CRITERION

    def test_budget_two_names_failing_trials(self, tmp_path, capsys):
        code = run_cli("escape", "--a=-1,100", "--b=1", "--trials=30", "--budget=2",
                       "--seed=5", f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv")
        assert code == EXIT_CRITERION
        stats = run_escape_experiment(EscapeExperimentSpec(
            SaddleProblem(a=[-1.0, 100.0], b=1), EsParams(), trials=30, budget=2, master_seed=5))
        failed = [k for k, status in enumerate(stats.statuses) if status != "escaped"]
        assert len(failed) > 10
        expected = [f'escape: trial {k} censored at t=2; replay its stream with '
                    f'task_rng(5, "trial", {k})' for k in failed[:10]]
        expected.append(f"escape: {len(failed) - 10} more trials did not escape")
        assert capsys.readouterr().err.splitlines() == expected


class TestDriftMapCommand:
    def test_default_grid_row_count(self, tmp_path):
        code = run_cli("drift-map", "--a=-1,20", "--b=1", "--quantity=W",
                       "--n=2000", "--seed=9", f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_OK
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "w,sigma_tilde,mean,stderr,ci_low,ci_high,n"
        assert len(lines) == 1 + 11 * 36

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("drift-map", "--a=-1,20", "--b=1", "--quantity=V", "--n=2000",
                "--seed=9", "--w-values=0,0.5,1", "--sigma-grid-points=8")
        run_cli(*args, f"--map-out={tmp_path}/m1.csv")
        run_cli(*args, f"--map-out={tmp_path}/m2.csv")
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    @pytest.mark.parametrize("quantity", ["V", "W", "Phi"])
    def test_negative_beta_is_config_error(self, quantity, tmp_path, capsys):
        code = run_cli("drift-map", "--a=-1,20", "--b=1", f"--quantity={quantity}",
                       "--beta=-1", "--n=2000", f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: beta must be nonnegative\n"
        assert not (tmp_path / "m.csv").exists()

    def test_check_positive_gate(self, tmp_path):
        # W drift is positive on this problem at n large enough
        code = run_cli("drift-map", "--a=-1,20", "--b=1", "--quantity=W",
                       "--n=20000", "--seed=9", "--w-values=0,0.9",
                       "--sigma-grid-points=8", "--check-positive",
                       f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_OK
        # V drift at huge step sizes is negative, so the gate fails
        code = run_cli("drift-map", "--a=-1,20", "--b=1", "--quantity=V",
                       "--n=20000", "--seed=9", "--w-values=0,0.9",
                       "--sigma-grid-min=10", "--sigma-grid-max=1000",
                       "--sigma-grid-points=8", "--check-positive",
                       f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CRITERION

    def test_check_positive_failure_names_lowest_point(self, tmp_path, capsys):
        code = run_cli("drift-map", "--a=-1,20", "--b=1", "--quantity=V",
                       "--n=2000", "--seed=9", "--w-values=0,0.9",
                       "--sigma-grid-points=8", "--check-positive",
                       f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CRITERION
        grid = GridSpec(np.array([0.0, 0.9]), np.geomspace(1e-4, 1e3, 8))
        rows = drift_map(SaddleProblem(a=[-1.0, 20.0], b=1), EsParams(), "V", grid=grid,
                         n=2000, master_seed=9)
        k = min(range(len(rows)), key=lambda k: rows[k].est.ci_low)
        r = rows[k]
        assert capsys.readouterr().err.splitlines() == [
            f"drift-map: lowest ci_low at w={r.w!r} sigma~={r.sigma_tilde!r} "
            f"ci_low={r.est.ci_low!r} n=2000; replay its stream with "
            f'task_rng(9, "point", {k // 8}, {k % 8})']


def point_text(row, seed, i, j):
    return (f"w={row.w!r} sigma~={row.sigma_tilde!r} ci_low={row.est.ci_low!r} "
            f'n={row.est.n}; replay its stream with task_rng({seed}, "point", {i}, {j})')


class TestConstantsCommand:
    def test_constants_record(self, tmp_path):
        code = run_cli("constants", "--a=-1,20", "--b=1", "--alpha=2.0",
                       "--n=3000", "--seed=11", "--w-values=0,0.5,1",
                       "--sigma-grid-points=12",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_OK
        record = json.loads((tmp_path / "c.json").read_text())
        assert record["schema"] == 1
        assert record["B1"] == pytest.approx(closed_form_b1(2.0), rel=1e-12)
        assert record["C"] > 0.0
        assert record["theta"] > 0.0
        assert record["seed"] == 11

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=11",
                "--w-values=0,0.5,1", "--sigma-grid-points=12")
        run_cli(*args, f"--constants-out={tmp_path}/c1.json")
        run_cli(*args, f"--constants-out={tmp_path}/c2.json")
        assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

    def test_grid_missing_low_step_sizes_is_config_error(self, tmp_path, capsys):
        # the success-rate scan cannot bracket its threshold on this grid
        code = run_cli("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=11",
                       "--w-values=0,0.5", "--sigma-grid-min=100",
                       "--sigma-grid-max=1000", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONFIG
        assert "extend the grid downward" in capsys.readouterr().err

    def test_grid_missing_low_step_sizes_names_row(self, tmp_path, capsys):
        code = run_cli("constants", "--a=-1,100", "--b=1", "--n=20000", "--seed=3",
                       "--w-values=0,0.5", "--sigma-grid-min=10", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONFIG
        p = SaddleProblem(a=[-1.0, 100.0], b=1)
        rate = success_probability(p, NormalizedState(sample_M_plus_0(p, 0.0), 10.0), 20_000,
                                   task_rng(3, "point", 0, 0)).mean
        assert capsys.readouterr().err.rstrip().endswith(
            f"Row 0: w=0.0 sigma~=10.0 rate={rate!r} n=20000; replay its stream with "
            'task_rng(3, "point", 0, 0)')

    def test_nonpositive_c_names_lowest_w_point(self, tmp_path, capsys):
        # at n=1000 the W drift of this ill-conditioned saddle is not resolved
        code = run_cli("constants", "--a=-1,10000", "--b=1", "--n=1000", "--seed=1",
                       "--w-values=0,0.5,1", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONSTANTS
        assert not (tmp_path / "c.json").exists()
        p = SaddleProblem(a=[-1.0, 10000.0], b=1)
        kw = dict(grid=GridSpec(np.array([0.0, 0.5, 1.0]), np.geomspace(1e-4, 1e3, 8)),
                  n=1000, master_seed=1)
        v_rows = drift_map(p, EsParams(), "V", **kw)
        prefix = 0
        while all(v_rows[i * 8 + prefix].est.ci_low >= closed_form_b2(1.5) for i in range(3)):
            prefix += 1
        w_rows = drift_map(p, EsParams(), "W", **kw)
        k = min((k for k in range(24) if k % 8 >= prefix - 1),
                key=lambda k: w_rows[k].est.ci_low)
        assert w_rows[k].est.ci_low <= 0.0
        err = capsys.readouterr().err
        assert err.startswith("constants estimation failed: W-drift lower bound")
        assert err.rstrip().endswith(point_text(w_rows[k], 1, k // 8, k % 8))

    def test_no_growth_region_names_row(self, tmp_path, capsys):
        # the success rate stays near 1/2, but V is negative at these step sizes
        code = run_cli("constants", "--a=-1,1", "--b=1", "--n=2000", "--seed=11",
                       "--w-values=0,0.5,1", "--sigma-grid-min=10",
                       "--sigma-grid-max=1000", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONSTANTS
        grid = GridSpec(np.array([0.0, 0.5, 1.0]), np.geomspace(10.0, 1e3, 8))
        v_rows = drift_map(SaddleProblem(a=[-1.0, 1.0], b=1), EsParams(), "V", grid=grid,
                           n=2000, master_seed=11)
        i = min(range(3), key=lambda i: v_rows[i * 8].est.ci_low)
        assert v_rows[i * 8].est.ci_low < closed_form_b2(1.5)
        err = capsys.readouterr().err
        assert "no step-size growth region" in err
        assert err.rstrip().endswith(point_text(v_rows[i * 8], 11, i, 0))

    def test_unresolvable_constants_exit_four(self, tmp_path, capsys, monkeypatch):
        # the exit code and message prefix of any ConstantsEstimationError,
        # independent of the estimates
        import saddle_es.cli as cli_module
        from saddle_es import ConstantsEstimationError

        def boom(*args, **kwargs):
            raise ConstantsEstimationError("W-drift lower bound -0.01 is not positive")

        monkeypatch.setattr(cli_module, "estimate_constants_report", boom)
        code = run_cli("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=11",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONSTANTS
        assert "constants estimation failed" in capsys.readouterr().err


class TestSuccProbCommand:
    def test_at_saddle_reports_analytic(self, tmp_path):
        code = run_cli("succ-prob", "--a=-1,20", "--b=1", "--at-saddle",
                       "--n=100000", "--seed=2", f"--out={tmp_path}/p.json")
        assert code == EXIT_OK
        record = json.loads((tmp_path / "p.json").read_text())
        assert record["analytic"] == pytest.approx(0.14004869609310203, rel=1e-12)
        assert abs(record["estimate"] - record["analytic"]) < 0.01

    def test_state_estimate(self, tmp_path):
        code = run_cli("succ-prob", "--a=-1,20", "--b=1", "--w=0", "--sigma=0.0001",
                       "--n=10000", "--seed=2", f"--out={tmp_path}/p.json")
        assert code == EXIT_OK
        record = json.loads((tmp_path / "p.json").read_text())
        assert 0.4 < record["estimate"] < 0.6

    def test_needs_state_or_saddle(self, tmp_path):
        assert run_cli("succ-prob", "--a=-1,20", "--b=1",
                       f"--out={tmp_path}/p.json") == EXIT_CONFIG


class TestPairingCommand:
    def test_no_violations(self, tmp_path):
        code = run_cli("pairing", "--a=-1,20", "--b=1", "--w=0.9",
                       "--radii=0.1,1,10", "--n=20000", "--seed=3",
                       f"--out={tmp_path}/pair.json")
        assert code == EXIT_OK
        record = json.loads((tmp_path / "pair.json").read_text())
        assert record["total_violations"] == 0
        assert len(record["results"]) == 3


class TestLevelsCommand:
    def test_grid_output(self, tmp_path):
        code = run_cli("levels", "--a=-1,20", "--b=1", "--extent=2", "--points=11",
                       f"--out={tmp_path}/l.csv")
        assert code == EXIT_OK
        lines = (tmp_path / "l.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,f"
        assert len(lines) == 1 + 11 * 11

    def test_matches_per_point_evaluation(self, tmp_path):
        # a plain (N, 2) @ a product rounds differently on about a quarter of
        # these points
        code = run_cli("levels", "--a=-1,20", "--b=1", f"--out={tmp_path}/l.csv")
        assert code == EXIT_OK
        p = SaddleProblem(a=[-1.0, 20.0], b=1)
        axis = np.linspace(-1.0, 1.0, 101)
        expected = ["x1,x2,f"] + [f"{x1!r},{x2!r},{p.evaluate(np.array([x1, x2]))!r}"
                                  for x1 in axis.tolist() for x2 in axis.tolist()]
        assert (tmp_path / "l.csv").read_text().splitlines() == expected

    def test_requires_2d(self, tmp_path):
        assert run_cli("levels", "--a=-1,1,1", "--b=1",
                       f"--out={tmp_path}/l.csv") == EXIT_CONFIG


class TestParser:
    def test_unknown_command_is_config_error(self):
        assert main(["no-such-command"]) == EXIT_CONFIG

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "saddle-es" in capsys.readouterr().out


def test_import_does_not_load_numpy_random():
    # numpy.random costs ~6 MB and ~5 ms to load; the parent process of a
    # threaded escape never needs it, since only its workers derive streams
    src = os.path.dirname(os.path.dirname(saddle_es.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, saddle_es, saddle_es.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_public_surface():
    # every export is a name some pipeline, gate or benchmark uses; adding one
    # is a decision this list makes visible
    public = {name for name, value in vars(saddle_es).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "BUDGET", "GENERATOR_NAME", "NONFINITE", "TARGET", "UNDERFLOW",
        "EsParams", "EsState", "RunTrace", "escape_times", "run", "target_reached",
        "ConstantsEstimationError", "DriftConstants", "DriftEstimate", "GridPointEstimate",
        "GridSpec", "PairingReport", "StepSamples", "closed_form_b1", "closed_form_b2",
        "derive_beta_theta", "drift_phi", "drift_v", "drift_w", "estimate_constants_report",
        "estimate_sigma_40", "mirror_pair_margins", "one_step_samples", "pairing_check",
        "saddle_success_analytic_2d", "saddle_success_mc", "success_probability", "task_rng",
        "EscapeExperimentSpec", "HittingTimeStats", "TailFit", "drift_map",
        "fit_exponential_tail", "run_escape_experiment", "survival_curve",
        "NormalizedState", "NormPlusZeroError", "in_M_plus_0", "sample_M_plus_0",
        "RegionLabel", "SaddleProblem",
    }
