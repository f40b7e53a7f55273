"""Command-line front end.

Subcommands: run, escape, drift-map, constants, succ-prob, pairing.
Every command is a pure function of (config, seed) to its output bytes; the
seed defaults to 0, and no environment variable changes a result.

Each long option is declared once, in ``_OPTIONS``, with its parser and help
text.  ``_COMMANDS`` lists the options of each subcommand and gives a default
only where the library has none, or, for --threads, where the command's default
differs from the library's; an option left unset stays None, so the library's
own default applies.  ``_resolve`` takes for each option its flag value, else
its value in the JSON config file (--config; unknown keys are rejected and null
leaves an option unset), else its default, and runs the option's parser on it,
so a config value is checked exactly like a flag.  --threads defaults to the
CPUs the process may use, and a negative seed, from --seed or the config file,
is rejected there, before any work.

Exit codes: 0 success / criteria met, 1 configuration error or failed write (an
empty output path or one in a missing directory is rejected before any work), 2
criterion not met (censored run, nonpositive interval, pairing violation), 3
step-size underflow, 4 constants estimation failure.

Every JSON record names its command, problem, master seed and stream generator;
``_record`` writes them, and the library's result types hold results only.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__, es
from .es import (
    BUDGET,
    GENERATOR_NAME,
    TARGET,
    UNDERFLOW,
    EsParams,
    EsState,
    run,
)
from .estimators import (
    CONFIDENCE,
    PAIRING_EPSILON,
    ConstantsEstimationError,
    GridSpec,
    _describe_point,
    estimate_constants_report,
    pairing_check,
    saddle_success_analytic_2d,
    success_probability,
)
from .experiments import EscapeExperimentSpec, run_escape_experiment, drift_map
from .normalization import sample_M_plus_0
from .objective import SaddleProblem
from .serialize import drift_map_to_csv, survival_to_csv, trace_to_csv, write_json
from .tasks import _replay_hint, _usable_cpus, task_rng

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CRITERION = 2
EXIT_UNDERFLOW = 3
EXIT_CONSTANTS = 4
# a terminal reason's exit code; escape exits with the highest among its trials
_EXIT = {TARGET: EXIT_OK, BUDGET: EXIT_CRITERION, UNDERFLOW: EXIT_UNDERFLOW}

# escape lists at most this many trials that did not escape
_LIST_FAILED = 10

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option parsers: each takes a flag string or a JSON config value
# ---------------------------------------------------------------------------

def _int(value) -> int:
    """An integer from a decimal string or an integral JSON number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _seed(value) -> int:
    """A master seed: a non-negative integer, as numpy's SeedSequence takes."""
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return seed


def _float(value) -> float:
    """A finite float from a number or a numeric string."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            x = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ValueError(f"expected a finite number, got {value!r}")


def _floats(value) -> list:
    """Finite floats from a comma-separated string or a JSON list."""
    parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
    if not isinstance(parts, list) or not parts:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return [_float(p) for p in parts]


def _switch(value) -> bool:
    """A switch: the bare flag, or JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _str(value) -> str:
    """A name."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _path(value) -> str:
    """An output file path in an existing directory, checked before any work."""
    if not _str(value):
        raise ValueError("expected a file path, got ''")
    directory = os.path.dirname(value)
    if directory and not os.path.isdir(directory):
        raise ValueError(f"no such directory {directory!r}")
    if os.path.isdir(value):
        raise ValueError(f"{value!r} is a directory")
    return value


def _default(fn, name: str):
    """The library's default for parameter ``name`` of ``fn``, for an option
    whose value the command needs itself: to write it out, or to pair it."""
    return inspect.signature(fn).parameters[name].default


# every long option but --config: its parser and help text
_OPTIONS = {
    "a": (_floats, "comma-separated coefficients, e.g. -1,20"),
    "b": (_int, "split index (number of negative coefficients)"),
    "seed": (_seed, "master seed (default: 0)"),
    "m0": (_floats, "comma-separated initial mean"),
    "sigma0": (_float, "initial step size"),
    "alpha": (_float, "step-size factor on success, > 1"),
    "budget": (_int, "iteration budget of a run"),
    "record-every": (_int, "trace every k-th iteration and every acceptance"),
    "trace-out": (_path, "trace CSV path"),
    "summary-out": (_path, "summary JSON path"),
    "w0": (_float, "W value of the initial mean"),
    "trials": (_int, "number of independent trials"),
    "threads": (_int, "worker processes; results do not depend on it (default: the "
                      "CPUs this process may use)"),
    "stats-out": (_path, "statistics JSON path"),
    "survival-out": (_path, "survival CSV path"),
    "quantity": (_str, "drift quantity: V, W or Phi"),
    "beta": (_float, "weight for the combined potential"),
    "n": (_int, "Monte Carlo sample size per estimate"),
    "w-values": (_floats, "comma-separated W values of the mean grid"),
    "sigma-grid-min": (_float, "smallest sigma~ of the log-spaced grid"),
    "sigma-grid-max": (_float, "largest sigma~ of the log-spaced grid"),
    "sigma-grid-points": (_int, "number of sigma~ grid points"),
    "map-out": (_path, "drift map CSV path"),
    "check-positive": (_switch, "exit 2 unless every CI lower bound is positive"),
    "constants-out": (_path, "constants JSON path"),
    "w": (_float, "W value of the mean on the compact shell"),
    "sigma": (_float, "normalized step size"),
    "at-saddle": (_switch, "sample from the saddle point itself (compares to the d=2 "
                           "closed form)"),
    "radii": (_floats, "comma-separated sphere radii"),
    "out": (_path, "output path"),
}

_REQUIRED = object()
# --threads never changes output bytes, so a command runs on every CPU it may use
# unless told otherwise; the library keeps threads=1, so a library call stays
# serial in the caller's process (spies, tracemalloc, pools of its own)
_CPUS = object()
_COMMON = {"a": _REQUIRED, "b": _REQUIRED, "seed": 0}
_GRID = dict.fromkeys(("w-values", "sigma-grid-min", "sigma-grid-max", "sigma-grid-points"))

# subcommand: (help, {option: default}), options in --help order.  main looks
# the command function cmd_<name> up by name at each call, so a wrapper that a
# profiler sets on this module is the function that runs
_COMMANDS = {
    "run": ("single seeded run; writes trace CSV + summary JSON", {
        **_COMMON, "m0": _REQUIRED, "sigma0": _REQUIRED, "alpha": None, "budget": None,
        "record-every": _default(run, "record_every"),
        "trace-out": "run_trace.csv", "summary-out": "run_summary.json"}),
    "escape": ("escape-time experiment; writes stats JSON + survival CSV", {
        **_COMMON, "w0": None, "sigma0": None, "alpha": None, "budget": None, "trials": None,
        "threads": _CPUS, "stats-out": "escape_stats.json", "survival-out": "escape_survival.csv"}),
    "drift-map": ("drift estimates over the (w, sigma~) grid; writes CSV", {
        **_COMMON, "alpha": None, "quantity": "W", "beta": None, "n": None, **_GRID,
        "threads": _CPUS, "map-out": "drift_map.csv", "check-positive": False}),
    "constants": ("estimate the drift constants; writes JSON record", {
        **_COMMON, "alpha": None, "n": _default(estimate_constants_report, "n"),
        **_GRID, "threads": _CPUS, "constants-out": "constants.json"}),
    "succ-prob": ("Monte Carlo success probability at one state", {
        **_COMMON, "w": None, "sigma": None, "n": 1_000_000, "at-saddle": False,
        "out": "succ_prob.json"}),
    "pairing": ("mirror-pairing inequality check; writes JSON report", {
        **_COMMON, "w": _REQUIRED, "radii": "0.1,1,10", "n": 100_000, "out": "pairing.json"}),
}


def _load_config(ns) -> dict:
    if ns.config is None:
        return {}
    if not ns.config:
        raise ConfigError("--config: expected a file path, got ''")
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a single JSON object")
    unknown = sorted(set(config) - set(_COMMANDS[ns.command][1]))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return config


def _resolve(ns) -> None:
    """Set each option of the command to its parsed flag, config or default
    value, and ``ns.problem`` to the saddle that --a and --b describe."""
    config = _load_config(ns)
    for key, default in _COMMANDS[ns.command][1].items():
        dest = key.replace("-", "_")
        value = getattr(ns, dest)
        if value is None:
            value = config.get(key)
        if value is None:
            value = default
        if value is _REQUIRED:
            raise ConfigError(f"missing required option --{key}")
        if value is _CPUS:
            value = _usable_cpus()
        if value is not None:
            try:
                value = _OPTIONS[key][0](value)
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
        setattr(ns, dest, value)
    ns.problem = SaddleProblem(a=ns.a, b=ns.b)


def _given(**kwargs) -> dict:
    """The keyword arguments whose option is set; the library defaults the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _grid(ns) -> GridSpec:
    """GridSpec.default() with each given grid option in place of its part."""
    default = GridSpec.default()
    s = default.sigma_values
    axis = {"start": s[0], "stop": s[-1], "num": s.size,
            **_given(start=ns.sigma_grid_min, stop=ns.sigma_grid_max, num=ns.sigma_grid_points)}
    return GridSpec(w_values=default.w_values if ns.w_values is None else ns.w_values,
                    sigma_values=np.geomspace(**axis))


def _record(ns, path, fields: dict) -> None:
    """Write a command's JSON record: its own ``fields`` plus the provenance
    that every record holds, written here and nowhere else."""
    write_json(path, {**fields, "command": ns.command, "problem": ns.problem.to_dict(),
                      "seed": ns.seed, "generator": GENERATOR_NAME})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(ns) -> int:
    params = EsParams(**_given(alpha=ns.alpha, max_iters=ns.budget))
    rng = np.random.default_rng(ns.seed)
    trace = run(ns.problem, params, EsState(m=np.asarray(ns.m0), sigma=ns.sigma0), rng,
                record_every=ns.record_every)
    trace_to_csv(trace, ns.trace_out)
    final = trace.records[-1]
    _record(ns, ns.summary_out, {
        "reason": trace.reason, "t_final": trace.t_final, "t_escape": trace.t_escape,
        "f_final": final.f_value, "sigma_final": final.sigma,
        "n_accepts": trace.n_accepts, "n_rejects": trace.n_rejects,
        "params": {"alpha": params.alpha, "max_iters": params.max_iters,
                   "sigma_min": es._SIGMA_MIN},
        "m0": ns.m0, "sigma0": ns.sigma0, "record_every": ns.record_every})
    print(f"run: reason={trace.reason} t={trace.t_final} f={final.f_value!r} "
          f"-> {ns.trace_out}, {ns.summary_out}")
    return _EXIT[trace.reason]


def cmd_escape(ns) -> int:
    spec = EscapeExperimentSpec(
        problem=ns.problem, params=EsParams(**_given(alpha=ns.alpha)), master_seed=ns.seed,
        **_given(w0=ns.w0, sigma_tilde0=ns.sigma0, trials=ns.trials, budget=ns.budget))
    stats = run_escape_experiment(spec, threads=ns.threads)
    _record(ns, ns.stats_out, {**stats.to_dict(), "budget": spec.budget,
                               "alpha": spec.params.alpha, "w0": spec.w0,
                               "sigma0": spec.sigma_tilde0})
    survival_to_csv(stats, ns.survival_out)
    print(f"escape: escaped={stats.n_escaped}/{stats.trials} censored={stats.n_censored} "
          f"underflow={stats.n_underflow} -> {ns.stats_out}, {ns.survival_out}")
    failed = [k for k, reason in enumerate(stats.reasons) if reason != TARGET]
    for k in failed[:_LIST_FAILED]:
        print(f"escape: trial {k} reason={stats.reasons[k]} t={stats.times[k]}; "
              f"{_replay_hint(spec.master_seed, 'trial', k)}", file=sys.stderr)
    if len(failed) > _LIST_FAILED:
        print(f"escape: {len(failed) - _LIST_FAILED} more trials did not escape", file=sys.stderr)
    return max(_EXIT[reason] for reason in set(stats.reasons))


def cmd_drift_map(ns) -> int:
    grid = _grid(ns)
    rows = drift_map(ns.problem, EsParams(**_given(alpha=ns.alpha)), ns.quantity, grid=grid,
                     master_seed=ns.seed, beta=ns.beta,
                     threads=ns.threads, **_given(n=ns.n))
    drift_map_to_csv(rows, ns.map_out)
    n_positive = sum(1 for r in rows if r.est.ci_low > 0.0)
    print(f"drift-map: quantity={ns.quantity} rows={len(rows)} "
          f"ci_low>0 at {n_positive}/{len(rows)} points -> {ns.map_out}")
    if ns.check_positive and n_positive != len(rows):
        k = min(range(len(rows)), key=lambda k: rows[k].est.ci_low)
        point = _describe_point(rows[k], ns.seed, *divmod(k, grid.sigma_values.size))
        print(f"drift-map: lowest ci_low at {point}", file=sys.stderr)
        return EXIT_CRITERION
    return EXIT_OK


def cmd_constants(ns) -> int:
    try:
        constants = estimate_constants_report(
            ns.problem, EsParams(**_given(alpha=ns.alpha)), grid=_grid(ns), n=ns.n,
            master_seed=ns.seed, threads=ns.threads).constants
    except ConstantsEstimationError as exc:
        print(f"constants estimation failed: {exc}", file=sys.stderr)
        return EXIT_CONSTANTS
    _record(ns, ns.constants_out, {**constants.to_dict(), "n": ns.n})
    print(f"constants: C={constants.C!r} theta={constants.theta!r} -> {ns.constants_out}")
    return EXIT_OK


def cmd_succ_prob(ns) -> int:
    problem = ns.problem
    rng = np.random.default_rng(ns.seed)
    payload = {"n": ns.n}
    if ns.at_saddle:
        if ns.w is not None or ns.sigma is not None:
            raise ConfigError("succ-prob takes --w and --sigma or --at-saddle, not both")
        # at the saddle the rate does not depend on the step size (scale invariance)
        est = success_probability(problem, EsState(np.zeros(problem.d), 1.0), ns.n, rng)
        payload["at_saddle"] = True
        if problem.d == 2:
            analytic = saddle_success_analytic_2d(problem)
            payload["analytic"] = analytic
            payload["abs_error"] = abs(est.mean - analytic)
    else:
        if ns.w is None or ns.sigma is None:
            raise ConfigError("succ-prob needs --w and --sigma (or --at-saddle)")
        state = EsState(sample_M_plus_0(problem, ns.w), ns.sigma)
        est = success_probability(problem, state, ns.n, rng)
        payload["w"] = ns.w
        payload["sigma"] = ns.sigma
    payload.update({"estimate": est.mean, "stderr": est.stderr,
                    "ci_low": est.ci_low, "ci_high": est.ci_high,
                    "confidence": CONFIDENCE})
    _record(ns, ns.out, payload)
    print(f"succ-prob: estimate={est.mean!r} stderr={est.stderr!r} -> {ns.out}")
    return EXIT_OK


def cmd_pairing(ns) -> int:
    m_tilde = sample_M_plus_0(ns.problem, ns.w)
    results = []
    for i, radius in enumerate(ns.radii):
        report = pairing_check(ns.problem, m_tilde, radius, ns.n, task_rng(ns.seed, "pairing", i))
        results.append({"radius": radius, "violations": report.violations,
                        "min_margin": report.min_margin, "n_pairs": report.n_pairs})
    total = sum(r["violations"] for r in results)
    _record(ns, ns.out, {"w": ns.w, "n": ns.n, "epsilon": PAIRING_EPSILON, "results": results,
                         "total_violations": total})
    print(f"pairing: w={ns.w} radii={ns.radii} violations={total} -> {ns.out}")
    return EXIT_OK if total == 0 else EXIT_CRITERION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddle-es",
        description="(1+1) evolution strategy on diagonal quadratic saddles: "
                    "runs, escape-time experiments, drift maps, constants.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in options:
            parse, text = _OPTIONS[key]
            if parse is _switch:
                p.add_argument(f"--{key}", action="store_const", const=True, help=text)
            else:
                p.add_argument(f"--{key}", help=text)
        p.add_argument("--config", help="JSON config file; flags override its entries")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve(ns)
        return globals()[f"cmd_{ns.command.replace('-', '_')}"](ns)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())
