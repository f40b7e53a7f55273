import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import saddle_es
from saddle_es import cli, experiments
from saddle_es import (EscapeExperimentSpec, EsParams, EsState, GridSpec, SaddleProblem,
                       closed_form_b1, closed_form_b2, drift_map, escape_times,
                       run_escape_experiment, sample_M_plus_0, success_probability, task_rng)
from saddle_es.cli import (
    EXIT_CONFIG,
    EXIT_CONSTANTS,
    EXIT_CRITERION,
    EXIT_OK,
    EXIT_UNDERFLOW,
    _load_config,
    build_parser,
    main,
)

COMMANDS = ("run", "escape", "drift-map", "constants", "succ-prob", "pairing")


def run_cli(*args):
    return main(list(args))


def help_flags(command, capsys) -> set:
    """Long flags named in a command's --help output, but --help and --config."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return set(re.findall(r"--([a-z][a-z0-9-]*)", capsys.readouterr().out)) - {"help", "config"}


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
        assert summary["params"]["sigma_min"] == 1e-300

    def test_summary_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 streams; the summary keeps its bytes whichever module builds it
        assert run_cli("run", "--a=-1,20", "--b=1", "--m0=0.1,1", "--sigma0=0.5", "--seed=0",
                       f"--trace-out={tmp_path}/t.csv",
                       f"--summary-out={tmp_path}/s.json") == EXIT_OK
        assert hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest() == \
            "a6b8010ed45c1c1a941175eaa72bef7ac63862a77cd01debf674649b4d0de012"

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

    def test_underflow_exits_three(self, tmp_path, monkeypatch):
        # no shell start reaches the real floor; one just below sigma0 does
        monkeypatch.setattr("saddle_es.es._SIGMA_MIN", 0.000999)
        for seed in range(30):
            code = run_cli("run", "--a=-1,100", "--b=1", "--m0=0,0.1",
                           "--sigma0=0.001", "--budget=100000", f"--seed={seed}",
                           f"--trace-out={tmp_path}/t.csv",
                           f"--summary-out={tmp_path}/s.json")
            if code == EXIT_UNDERFLOW:
                summary = json.loads((tmp_path / "s.json").read_text())
                assert summary["reason"] == "underflow"
                return
        pytest.fail("no underflow exit observed over 30 seeds")

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
        flags = help_flags(command, capsys)
        assert {"a", "b", "seed"} <= flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(flags, 1)))
        assert set(_load_config(parser.parse_args([command, f"--config={cfg}"]))) == flags

    # the smallest config of each command; a test adds the key under test
    BASE = {"run": {"a": [-1, 1], "b": 1, "m0": [0, 1], "sigma0": 1},
            "escape": {"a": [-1, 1], "b": 1, "trials": 20},
            "drift-map": {"a": [-1, 20], "b": 1, "n": 2000, "w-values": [0],
                          "sigma-grid-points": 8},
            "succ-prob": {"a": [-1, 20], "b": 1, "n": 1000}}

    # an int path would be opened as a file descriptor; 99999 is not an open one
    @pytest.mark.parametrize("command, key, value", [
        ("run", "seed", 1.5), ("escape", "trials", 10.9), ("succ-prob", "b", True),
        ("drift-map", "check-positive", "false"), ("succ-prob", "at-saddle", "no"),
        ("run", "summary-out", 99999), ("run", "trace-out", ["t.csv"]),
        ("succ-prob", "a", [-1, True]), ("succ-prob", "sigma", "1,2")])
    def test_config_values_are_parsed_like_flags(self, command, key, value, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({**self.BASE[command], key: value}))
        assert run_cli(command, "--config=cfg.json") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: --{key}: expected ")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_config_numbers_take_the_option_type(self, tmp_path):
        # an integral JSON number is an integer, and a JSON int a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE["escape"], "b": 1.0, "trials": 2e1, "w0": 0}))
        assert run_cli("escape", f"--config={cfg}", f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv") == EXIT_OK
        stats = json.loads((tmp_path / "e.json").read_text())
        assert stats["trials"] == 20 and stats["w0"] == 0.0 and isinstance(stats["w0"], float)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nonfinite_numbers_rejected(self, value, source, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w": float(value)} if source == "config" else {}))
        w = [f"--w={value}"] if source == "flag" else []
        code = run_cli("pairing", "--a=-1,20", "--b=1", "--n=1000", *w, f"--config={cfg}",
                       f"--out={tmp_path}/p.json")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: --w: expected a finite number")
        assert not (tmp_path / "p.json").exists()

    def test_empty_config_path_is_config_error_before_any_work(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--config=", "--a=-1,1", "--b=1", "--m0=0,1",
                       "--sigma0=1") == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --config: expected a file path, got ''\n"
        assert os.listdir(tmp_path) == []

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
                                      ("drift-map", "--threads=0"), ("constants", "--threads=0"),
                                      ("constants", "--threads=-4")])
    def test_threads_below_one_is_config_error(self, args, tmp_path, capsys):
        outputs = {"escape": ("--a=-1,100", "--trials=20", f"--stats-out={tmp_path}/e.json",
                              f"--survival-out={tmp_path}/e.csv"),
                   "drift-map": ("--a=-1,20", "--n=2000", f"--map-out={tmp_path}/m.csv"),
                   "constants": ("--a=-1,20", "--n=3000", f"--constants-out={tmp_path}/c.json")}
        code = run_cli(*args, "--b=1", *outputs[args[0]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: threads must be at least 1\n"

    # the smallest argv of each command; its outputs go to the working directory
    ARGV = {"run": ("--a=-1,1", "--m0=0,1", "--sigma0=1"), "escape": ("--a=-1,1", "--trials=20"),
            "drift-map": ("--a=-1,20", "--n=2000", "--w-values=0", "--sigma-grid-points=8"),
            "constants": ("--a=-1,20", "--n=3000", "--w-values=0", "--sigma-grid-points=8"),
            "succ-prob": ("--a=-1,20", "--at-saddle", "--n=1000"),
            "pairing": ("--a=-1,20", "--w=0.5", "--n=1000")}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("source, message", [
        ("flag", "--seed: expected a non-negative integer, got '-1'"),
        ("config", "--seed: expected a non-negative integer, got -1"),
        ("env", "SADDLE_ES_SEED: expected a non-negative integer, got '-1'")])
    def test_negative_seed_is_config_error(self, command, source, message, tmp_path,
                                           monkeypatch, capsys):
        # rejected while options are resolved, so no command starts a pool or writes
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SADDLE_ES_SEED", "-1" if source == "env" else "0")
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1} if source == "config" else {}))
        seed = ["--seed=-1"] if source == "flag" else []
        assert run_cli(command, *self.ARGV[command], "--b=1", *seed, "--config=cfg.json") \
            == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, key", [
        ("drift-map", "confidence"), ("constants", "confidence"), ("succ-prob", "confidence"),
        ("pairing", "epsilon"), ("run", "sigma-min"), ("escape", "sigma-min"),
        ("escape", "fit-s-low"), ("escape", "fit-s-high")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_fixed_settings_are_not_options(self, command, key, source, tmp_path, monkeypatch,
                                            capsys):
        # the gates are calibrated at the 99% level, the 1e-9 tolerance and the
        # survival range [0.01, 0.5] of the tail fit, so no run may restate its
        # claim at another; the step-size floor is fixed with them
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: 0.5} if source == "config" else {}))
        flag = [f"--{key}=0.5"] if source == "flag" else []
        assert run_cli(command, *self.ARGV[command], "--b=1", *flag, "--config=cfg.json") \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        if source == "config":
            assert err == f"error: unknown config keys: {key}\n"
        else:
            assert f"error: unrecognized arguments: --{key}=0.5" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    # acceptance criterion 10 checks the constants record's level
    @pytest.mark.parametrize("command, key, value", [
        ("succ-prob", "confidence", 0.99), ("pairing", "epsilon", 1e-9)])
    def test_outputs_record_the_fixed_level_and_tolerance(self, command, key, value, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, *self.ARGV[command], "--b=1") == EXIT_OK
        [name] = os.listdir(tmp_path)
        assert json.loads((tmp_path / name).read_text())[key] == value


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
        assert stats["tail"]["s_range"] == [0.01, 0.5]
        assert (tmp_path / "e.csv").read_text().splitlines()[0] == "t,S"

    def test_stats_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 streams; the record keeps its bytes whichever module writes
        # its provenance
        assert run_cli("escape", "--a=-1,20", "--b=1", "--trials=200", "--seed=0",
                       "--threads=1", f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv") == EXIT_OK
        assert hashlib.sha256((tmp_path / "e.json").read_bytes()).hexdigest() == \
            "0b6e61defb825e0ca7859c6d375013acd8f5f6ae03719f9a43ac433e94dadbbb"

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
        failed = [k for k, reason in enumerate(stats.reasons) if reason != "target"]
        assert len(failed) > 10
        expected = [f'escape: trial {k} reason=budget t=2; replay its stream with '
                    f'task_rng(5, "trial", {k})' for k in failed[:10]]
        expected.append(f"escape: {len(failed) - 10} more trials did not escape")
        assert capsys.readouterr().err.splitlines() == expected

    def test_underflow_exits_three_and_names_every_reason(self, tmp_path, monkeypatch, capsys):
        # a floor just below sigma0: a first failure underflows at t = 1, a
        # first success lives to the budget of 2; no trial can escape that soon
        monkeypatch.setattr("saddle_es.es._SIGMA_MIN", 0.000999)
        code = run_cli("escape", "--a=-1,100", "--b=1", "--sigma0=0.001", "--trials=10",
                       "--budget=2", "--seed=5", "--threads=1", f"--stats-out={tmp_path}/e.json",
                       f"--survival-out={tmp_path}/e.csv")
        assert code == EXIT_UNDERFLOW
        spec = EscapeExperimentSpec(SaddleProblem(a=[-1.0, 100.0], b=1), EsParams(),
                                    sigma_tilde0=0.001, trials=10, budget=2, master_seed=5)
        expected = []
        for k in range(spec.trials):
            # each named stream replays its trial
            (reason,), (t,) = escape_times(spec.problem, EsParams(max_iters=2),
                                           spec.initial_state(), [task_rng(5, "trial", k)])
            expected.append(f'escape: trial {k} reason={reason} t={t}; replay its stream with '
                            f'task_rng(5, "trial", {k})')
        assert capsys.readouterr().err.splitlines() == expected
        assert {line.split()[3] for line in expected} == {"reason=budget", "reason=underflow"}
        stats = json.loads((tmp_path / "e.json").read_text())
        assert stats["n_underflow"] + stats["n_censored"] == 10

    def test_shell_start_with_negative_f_is_config_error(self, tmp_path, capsys):
        code = run_cli("escape", "--a=-1,20", "--b=1", "--w0=1", "--trials=20",
                       f"--stats-out={tmp_path}/e.json", f"--survival-out={tmp_path}/e.csv")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: the start at w0=1.0 has f=-1.1102230246251565e-16 < 0")
        assert not (tmp_path / "e.json").exists()


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

    @pytest.mark.parametrize("quantity, message", [
        ("V", "beta weights V in a Phi map only; a V map takes none"),
        ("W", "beta weights V in a Phi map only; a W map takes none"),
        ("Phi", "beta must be nonnegative")], ids=["V", "W", "Phi"])
    def test_negative_beta_is_config_error(self, quantity, message, tmp_path, capsys):
        code = run_cli("drift-map", "--a=-1,20", "--b=1", f"--quantity={quantity}",
                       "--beta=-1", "--n=2000", f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("quantity", ["V", "W"])
    def test_beta_without_phi_is_config_error_before_any_row(self, quantity, tmp_path, capsys,
                                                            monkeypatch):
        # a V or W map used to ignore beta and write the map
        def no_tasks(*args):
            raise AssertionError("a grid task ran")

        monkeypatch.setattr(experiments, "_map_tasks", no_tasks)
        code = run_cli("drift-map", "--a=-1,20", "--b=1", f"--quantity={quantity}",
                       "--beta=5", "--n=2000", f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: beta weights V in a Phi map only; a {quantity} map takes none\n"
        assert not (tmp_path / "m.csv").exists()

    def test_phi_without_beta_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_tasks(*args):
            raise AssertionError("a grid task ran")

        monkeypatch.setattr(experiments, "_map_tasks", no_tasks)
        code = run_cli("drift-map", "--a=-1,20", "--b=1", "--quantity=Phi", "--n=2000",
                       f"--map-out={tmp_path}/m.csv")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: a Phi map needs beta")
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
            f'task_rng(9, "row", {k // 8}) at sigma index {k % 8}']


def point_text(row, seed, i, j):
    return (f"w={row.w!r} sigma~={row.sigma_tilde!r} ci_low={row.est.ci_low!r} "
            f'n={row.est.n}; replay its stream with task_rng({seed}, "row", {i}) '
            f'at sigma index {j}')


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

    def test_record_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 streams; B1 and B2 are derived from alpha, and the record
        # keeps the bytes it had when they were stored fields
        assert run_cli("constants", "--a=-1,20", "--b=1", "--n=20000", "--w-values=0,0.5,1",
                       "--sigma-grid-points=12", "--seed=0", "--threads=1",
                       f"--constants-out={tmp_path}/c.json") == EXIT_OK
        assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() == \
            "2946beaf871dca45b8141674cbca5babed9b1943c2a694d52c4cf62449a19ab0"

    def test_json_record_keys(self, tmp_path):
        assert run_cli("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=33",
                       "--w-values=0,0.5,1", "--sigma-grid-points=12",
                       f"--constants-out={tmp_path}/c.json") == EXIT_OK
        assert set(json.loads((tmp_path / "c.json").read_text())) == {
            "alpha", "B1", "B2", "C", "sigma_tilde_40", "sigma_tilde_star", "beta", "theta",
            "confidence", "n", "command", "problem", "seed", "generator", "schema"}

    def test_result_types_hold_no_provenance(self):
        # cli._record alone writes a record's command, problem, seed and generator
        stats = run_escape_experiment(EscapeExperimentSpec(
            SaddleProblem(a=[-1.0, 20.0], b=1), EsParams(), trials=10, master_seed=5))
        constants = saddle_es.DriftConstants(alpha=1.5, C=0.1, sigma_tilde_40=0.3,
                                             sigma_tilde_star=0.5)
        for record in (stats.to_dict(), constants.to_dict()):
            assert not {"command", "problem", "seed", "generator"} & set(record)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=11",
                "--w-values=0,0.5,1", "--sigma-grid-points=12")
        run_cli(*args, f"--constants-out={tmp_path}/c1.json")
        run_cli(*args, f"--constants-out={tmp_path}/c2.json")
        assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_threads_do_not_change_bytes(self, seed, tmp_path):
        args = ("constants", "--a=-1,20", "--b=1", "--n=3000", f"--seed={seed}",
                "--w-values=0,0.5,1", "--sigma-grid-points=12")
        for name, threads in (("one", ["--threads=1"]), ("two", ["--threads=2"]), ("unset", [])):
            assert run_cli(*args, *threads, f"--constants-out={tmp_path}/{name}.json") == EXIT_OK
        one = (tmp_path / "one.json").read_bytes()
        assert (tmp_path / "two.json").read_bytes() == one
        assert (tmp_path / "unset.json").read_bytes() == one

    def test_grid_missing_low_step_sizes_is_config_error(self, tmp_path, capsys):
        # the success-rate scan cannot bracket its threshold on this grid
        code = run_cli("constants", "--a=-1,20", "--b=1", "--n=3000", "--seed=11",
                       "--w-values=0,0.5", "--sigma-grid-min=100",
                       "--sigma-grid-max=1000", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONFIG
        assert "extend the grid downward" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_missing_low_step_sizes_names_row(self, tmp_path, capsys, threads):
        # both rows fail; on 2 workers row 1's error comes back too, and row 0's,
        # the lowest task's, is the one reported
        code = run_cli("constants", "--a=-1,100", "--b=1", "--n=20000", "--seed=3",
                       "--w-values=0,0.5", "--sigma-grid-min=10", "--sigma-grid-points=8",
                       f"--threads={threads}", f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONFIG
        p = SaddleProblem(a=[-1.0, 100.0], b=1)
        rate = success_probability(p, EsState(sample_M_plus_0(p, 0.0), 10.0), 20_000,
                                   task_rng(3, "row", 0)).mean
        assert capsys.readouterr().err.rstrip().endswith(
            f"Row 0: w=0.0 sigma~=10.0 rate={rate!r} n=20000; replay its stream with "
            'task_rng(3, "row", 0) at sigma index 0')

    def test_nonpositive_c_names_lowest_w_point(self, tmp_path, capsys):
        # at n=1000 the W drift of this ill-conditioned saddle, about its 6e-4
        # success rate at large step sizes, is not resolved
        code = run_cli("constants", "--a=-1,1000000", "--b=1", "--n=1000", "--seed=1",
                       "--w-values=0,0.5,1", "--sigma-grid-points=8",
                       f"--constants-out={tmp_path}/c.json")
        assert code == EXIT_CONSTANTS
        assert not (tmp_path / "c.json").exists()
        p = SaddleProblem(a=[-1.0, 1e6], b=1)
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


    @pytest.mark.parametrize("state", [("--w=0.5",), ("--sigma=0.3",), ("--w=0.5", "--sigma=0.3")])
    def test_state_with_saddle_is_config_error(self, state, tmp_path, capsys):
        code = run_cli("succ-prob", "--a=-1,20", "--b=1", "--at-saddle", *state, "--n=1000",
                       f"--out={tmp_path}/p.json")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
               "error: succ-prob takes --w and --sigma or --at-saddle, not both\n"
        assert not (tmp_path / "p.json").exists()


class TestPairingCommand:
    def test_no_violations(self, tmp_path):
        code = run_cli("pairing", "--a=-1,20", "--b=1", "--w=0.9",
                       "--radii=0.1,1,10", "--n=20000", "--seed=3",
                       f"--out={tmp_path}/pair.json")
        assert code == EXIT_OK
        record = json.loads((tmp_path / "pair.json").read_text())
        assert record["total_violations"] == 0
        assert len(record["results"]) == 3

    def test_report_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 streams; the radius 10 finds no pair, so min_margin is "inf"
        assert run_cli("pairing", "--a=-1,20", "--b=1", "--w=0.5", "--n=1000", "--seed=0",
                       f"--out={tmp_path}/pair.json") == EXIT_OK
        assert hashlib.sha256((tmp_path / "pair.json").read_bytes()).hexdigest() == \
            "40f9d242e476a950cbb4a0f29f8e61187c3b0d823443135370b4e7456c3f6b2f"


class TestOutputPaths:
    # each output option, with a small argv of its command
    RUN = ("--a=-1,1", "--m0=0,1", "--sigma0=1")
    ESCAPE = ("--a=-1,100", "--trials=20")
    CASES = [
        ("run", "trace-out", RUN), ("run", "summary-out", RUN),
        ("escape", "stats-out", ESCAPE), ("escape", "survival-out", ESCAPE),
        ("drift-map", "map-out", ("--a=-1,20", "--n=2000", "--w-values=0",
                                  "--sigma-grid-points=8")),
        ("constants", "constants-out", ("--a=-1,20", "--n=3000", "--w-values=0,0.5,1",
                                        "--sigma-grid-points=12")),
        ("succ-prob", "out", ("--a=-1,20", "--at-saddle", "--n=1000")),
        ("pairing", "out", ("--a=-1,20", "--w=0.9", "--n=1000")),
    ]

    @pytest.mark.parametrize("command, key, args", CASES)
    def test_missing_directory_is_config_error_before_any_output(self, command, key, args,
                                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "missing"
        assert run_cli(command, "--b=1", *args, f"--{key}={missing}/result") == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --{key}: no such directory {str(missing)!r}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, args", CASES)
    def test_empty_path_is_config_error_before_any_output(self, command, key, args, source,
                                                          tmp_path, monkeypatch, capsys):
        # checked with the other options: no command runs, so no other output
        # (a default path in the working directory) is written
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        if source == "flag":
            given = [f"--{key}="]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: ""}))
            given = [f"--config={tmp_path}/cfg.json"]
        assert run_cli(command, "--b=1", *args, *given) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --{key}: expected a file path, got ''\n"
        assert os.listdir(work) == []

    def test_directory_is_config_error(self, tmp_path, capsys):
        code = run_cli("pairing", "--a=-1,20", "--b=1", "--w=0.9", "--n=1000", f"--out={tmp_path}")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --out: {str(tmp_path)!r} is a directory\n"

    def test_failed_write_is_config_error(self, tmp_path, monkeypatch, capsys):
        def full(*args):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "write_json", full)
        code = run_cli("pairing", "--a=-1,20", "--b=1", "--w=0.9", "--n=1000",
                       f"--out={tmp_path}/p.json")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: No space left on device\n"


REQUIRED = "required"
_GRID = {"w-values": np.linspace(0.0, 1.0, 11).tolist(), "sigma-grid-min": 1e-4,
         "sigma-grid-max": 1e3, "sigma-grid-points": 36}
# the CPU count the pinned test makes the command line see
CPUS = 3
# each command's long flags but --config, and the value each option takes when no
# flag, config key or SADDLE_ES_SEED sets it
PINNED = {
    "run": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "m0": REQUIRED, "sigma0": REQUIRED,
            "alpha": 1.5, "budget": 100_000, "record-every": 100,
            "trace-out": "run_trace.csv", "summary-out": "run_summary.json"},
    "escape": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "w0": 0.0, "sigma0": 1.0, "alpha": 1.5,
               "budget": 1_000_000, "trials": 1000, "threads": CPUS,
               "stats-out": "escape_stats.json", "survival-out": "escape_survival.csv"},
    "drift-map": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "alpha": 1.5, "quantity": "W",
                  "beta": None, "n": 100_000, **_GRID, "threads": CPUS,
                  "map-out": "drift_map.csv", "check-positive": False},
    "constants": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "alpha": 1.5, "n": 100_000,
                  **_GRID, "threads": CPUS, "constants-out": "constants.json"},
    "succ-prob": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "w": None, "sigma": None,
                  "n": 1_000_000, "at-saddle": False, "out": "succ_prob.json"},
    "pairing": {"a": REQUIRED, "b": REQUIRED, "seed": 0, "w": REQUIRED,
                "radii": [0.1, 1.0, 10.0], "n": 100_000, "out": "pairing.json"},
}
REQUIRED_VALUES = {"a": "-1,20", "b": "1", "m0": "0,1", "sigma0": "1", "w": "0.5"}


def library_defaults(command) -> dict:
    """What the library applies to each option that a command leaves unset.  No
    threads: the command line defaults it to the CPU count, the library to 1."""
    es = EsParams()
    spec = EscapeExperimentSpec(SaddleProblem(a=[-1.0, 1.0], b=1), es)
    w, s = GridSpec.default().w_values, GridSpec.default().sigma_values

    def arg(fn, name):
        return inspect.signature(fn).parameters[name].default

    grid = {"w-values": w.tolist(), "sigma-grid-min": s[0], "sigma-grid-max": s[-1],
            "sigma-grid-points": s.size}
    return {
        "run": {"alpha": es.alpha, "budget": es.max_iters},
        "escape": {"alpha": es.alpha, "w0": spec.w0,
                   "sigma0": spec.sigma_tilde0, "trials": spec.trials, "budget": spec.budget},
        "drift-map": {"alpha": es.alpha, "beta": arg(drift_map, "beta"), "n": arg(drift_map, "n"),
                      **grid},
        "constants": {"alpha": es.alpha, **grid},
    }.get(command, {})


def resolved(argv):
    ns = build_parser().parse_args(argv)
    cli._resolve(ns)
    return ns


README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [
    line for line in README.split("## Command line", 1)[1].split("```sh", 1)[1]
    .split("```", 1)[0].splitlines() if line.startswith("saddle-es ")]
README_EXIT_CODES = {int(code) for code in re.findall(
    r"`(\d+)`", README.split("Exit codes:", 1)[1].split("\n\n", 1)[0])}


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_and_defaults_are_pinned(self, command, capsys, monkeypatch):
        monkeypatch.delenv("SADDLE_ES_SEED", raising=False)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: CPUS)
        pinned = PINNED[command]
        assert help_flags(command, capsys) == set(pinned)
        required = {k: REQUIRED_VALUES[k] for k, v in pinned.items() if v == REQUIRED}
        ns = resolved([command] + [f"--{k}={v}" for k, v in required.items()])
        library = library_defaults(command)
        values = {key: getattr(ns, key.replace("-", "_")) for key in pinned.keys() - required.keys()}
        values = {key: library.get(key) if v is None else v for key, v in values.items()}
        assert values == {k: v for k, v in pinned.items() if k not in required}
        for key in required:
            with pytest.raises(cli.ConfigError, match=f"^missing required option --{key}$"):
                resolved([command] + [f"--{k}={v}" for k, v in required.items() if k != key])

    def test_readme_covers_every_command(self):
        assert sorted({shlex.split(line)[1] for line in README_COMMANDS}) == sorted(COMMANDS)

    def test_readme_exit_codes_are_the_cli_codes(self):
        codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert README_EXIT_CODES == codes

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_readme_command_parses(self, line):
        argv = shlex.split(line)
        assert argv[0] == "saddle-es"
        resolved(argv[1:])

    @pytest.mark.parametrize("command", ["no-such-command", "levels"])
    def test_unknown_command_is_config_error(self, command):
        assert main([command]) == EXIT_CONFIG

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "saddle-es" in capsys.readouterr().out


def package_env() -> dict:
    """The environment of a child interpreter that imports this saddle_es."""
    src = os.path.dirname(os.path.dirname(saddle_es.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_entry_points_pass_on_exit_codes(tmp_path):
    # the installed script is cli.main_entry, and `python -m saddle_es` exits
    # with the code main returns
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8"))
    module, _, name = project["project"]["scripts"]["saddle-es"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main_entry

    def exit_code(*argv):
        return subprocess.run([sys.executable, "-m", "saddle_es", *argv], env=package_env(),
                              cwd=tmp_path, capture_output=True).returncode

    assert exit_code("--version") == EXIT_OK
    assert exit_code("escape", "--a=-1,100", "--b=1", "--sigma-min=1") == EXIT_CONFIG
    assert os.listdir(tmp_path) == []
    assert exit_code("escape", "--a=-1,100", "--b=1", "--sigma0=0.001", "--trials=10",
                     "--budget=1", "--threads=1") == EXIT_CRITERION
    assert sorted(os.listdir(tmp_path)) == ["escape_stats.json", "escape_survival.csv"]


def test_import_defers_numpy_random_and_the_pool():
    # numpy.random costs ~6 MB and ~5 ms to load; the parent process of a
    # threaded escape never needs it, since only its workers derive streams.
    # The executor pool modules are not loaded at startup, nor by a map on
    # forked workers
    code = ("import sys, saddle_es, saddle_es.cli\n"
            "pool = {'concurrent.futures', 'multiprocessing'}\n"
            "print(sorted({'numpy.random', *pool} & set(sys.modules)))\n"
            "assert saddle_es.tasks._map_tasks(abs, [-1, -2], threads=2) == [1, 2]\n"
            "print(sorted(pool & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_escape_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique and np.quantile load numpy.ma (~10 ms); the escape summary
    # reads its survival curve and quantiles off one sort instead
    code = ("import sys\n"
            "from saddle_es.cli import main\n"
            "assert main(['escape', '--a=-1,20', '--b=1', '--trials=50', '--threads=1']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"
    assert sorted(os.listdir(tmp_path)) == ["escape_stats.json", "escape_survival.csv"]


def test_public_callables_take_no_hidden_keywords():
    # a keyword that only the library passes is a second path behind a public name
    checked, hidden = set(), []
    for info in pkgutil.iter_modules(saddle_es.__path__):
        if info.name == "__main__":    # importing it runs the command line
            continue
        module = importlib.import_module(f"saddle_es.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", getattr(obj, attr))
                           for attr, value in vars(obj).items() if not attr.startswith("_")
                           and isinstance(value, (types.FunctionType, classmethod, staticmethod))]
            else:
                members = [(name, obj)] if inspect.isfunction(obj) else []
            for qualname, fn in members:
                checked.add(f"{module.__name__}.{qualname}")
                hidden += [f"{module.__name__}.{qualname}({param})"
                           for param in inspect.signature(fn).parameters if param.startswith("_")]
    assert {"saddle_es.cli.main", "saddle_es.estimators.estimate_constants_report",
            "saddle_es.estimators.DriftEstimate.from_moments"} <= checked
    assert hidden == []


def test_public_surface():
    # every export is a name some pipeline, gate or benchmark uses; adding one
    # is a decision this list makes visible
    public = {name for name, value in vars(saddle_es).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "BUDGET", "GENERATOR_NAME", "NONFINITE", "TARGET", "UNDERFLOW",
        "EsParams", "EsState", "RunTrace", "escape_times", "run",
        "ConstantsEstimationError", "DriftConstants", "DriftEstimate", "GridPointEstimate",
        "GridSpec", "PairingReport", "StepSamples", "closed_form_b1", "closed_form_b2",
        "derive_beta_theta", "drift_w", "estimate_constants_report",
        "one_step_samples", "pairing_check",
        "saddle_success_analytic_2d", "success_probability", "task_rng",
        "EscapeExperimentSpec", "HittingTimeStats", "TailFit", "drift_map",
        "fit_exponential_tail", "run_escape_experiment", "survival_curve",
        "sample_M_plus_0",
        "SaddleProblem",
    }
