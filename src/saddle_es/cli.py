"""Command-line front end.

Subcommands: run, escape, drift-map, constants, succ-prob, pairing, levels.
Every command is a pure function of (config, seed) to its output bytes; the
default seed comes from the SADDLE_ES_SEED environment variable (0 if unset).
Options may also come from a JSON config file (--config); explicit flags
override the file, and unknown config keys are rejected.

Exit codes: 0 success / criteria met, 1 configuration error, 2 criterion not
met (censored run, nonpositive interval, pairing violation), 3 step-size
underflow, 4 constants estimation failure, 5 non-finite mean (run only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .es import (
    BUDGET,
    GENERATOR_NAME,
    NONFINITE,
    TARGET,
    UNDERFLOW,
    EsParams,
    EsState,
    run,
    target_reached,
)
from .estimators import (
    ConstantsEstimationError,
    GridSpec,
    _describe_point,
    estimate_constants_report,
    pairing_check,
    saddle_success_analytic_2d,
    saddle_success_mc,
    success_probability,
    task_rng,
)
from .experiments import ESCAPED, EscapeExperimentSpec, run_escape_experiment, drift_map
from .normalization import NormalizedState, sample_M_plus_0
from .objective import SaddleProblem
from .serialize import drift_map_to_csv, survival_to_csv, trace_to_csv, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CRITERION = 2
EXIT_UNDERFLOW = 3
EXIT_CONSTANTS = 4
EXIT_NONFINITE = 5

# escape lists at most this many trials that did not escape
_LIST_FAILED = 10

SEED_ENV_VAR = "SADDLE_ES_SEED"


class ConfigError(ValueError):
    pass


def _float_list(value) -> list:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
        if not parts:
            raise ConfigError(f"expected comma-separated numbers, got {value!r}")
        return [float(p) for p in parts]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    raise ConfigError(f"expected a list of numbers, got {value!r}")


def _opt(ns, config: dict, key: str, default=None, required: bool = False):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(ns, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    if required and default is None:
        raise ConfigError(f"missing required option --{key}")
    return default


def _load_config(ns) -> dict:
    path = getattr(ns, "config", None)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a single JSON object")
    unknown = sorted(set(config) - ns.config_keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return config


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _problem(ns, config) -> SaddleProblem:
    a = _opt(ns, config, "a", required=True)
    b = _opt(ns, config, "b", required=True)
    return SaddleProblem(a=np.asarray(_float_list(a), dtype=float), b=int(b))


def _seed(ns, config) -> int:
    seed = _opt(ns, config, "seed")
    return int(seed) if seed is not None else _default_seed()


def _grid(ns, config) -> GridSpec:
    w_values = _opt(ns, config, "w-values")
    sigma_min = float(_opt(ns, config, "sigma-grid-min", 1e-4))
    sigma_max = float(_opt(ns, config, "sigma-grid-max", 1e3))
    sigma_points = int(_opt(ns, config, "sigma-grid-points", 36))
    w = np.asarray(_float_list(w_values), dtype=float) if w_values is not None \
        else np.linspace(0.0, 1.0, 11)
    return GridSpec(w_values=w, sigma_values=np.geomspace(sigma_min, sigma_max, sigma_points))


def _add_grid(p: argparse.ArgumentParser) -> None:
    """Sample size, confidence and the (w, sigma~) grid options that _grid reads."""
    p.add_argument("--n", type=int)
    p.add_argument("--confidence", type=float)
    p.add_argument("--w-values", help="comma-separated W values of the mean grid")
    p.add_argument("--sigma-grid-min", type=float)
    p.add_argument("--sigma-grid-max", type=float)
    p.add_argument("--sigma-grid-points", type=int)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    m0 = _float_list(_opt(ns, config, "m0", required=True))
    sigma0 = float(_opt(ns, config, "sigma0", required=True))
    params = EsParams(alpha=float(_opt(ns, config, "alpha", 1.5)),
                      max_iters=int(_opt(ns, config, "budget", 100_000)),
                      sigma_min=float(_opt(ns, config, "sigma-min", 1e-300)))
    seed = _seed(ns, config)
    record_every = int(_opt(ns, config, "record-every", 100))
    trace_out = _opt(ns, config, "trace-out", "run_trace.csv")
    summary_out = _opt(ns, config, "summary-out", "run_summary.json")

    rng = np.random.default_rng(seed)
    trace = run(problem, params, EsState(m=np.asarray(m0), sigma=sigma0), rng,
                stop=target_reached, record_every=record_every)
    trace_to_csv(trace, trace_out)
    summary = trace.summary_dict(seed=seed, params=params, problem=problem)
    summary["command"] = "run"
    summary["m0"] = m0
    summary["sigma0"] = sigma0
    summary["record_every"] = record_every
    write_json(summary_out, summary)
    print(f"run: reason={trace.reason} t={trace.t_final} f={trace.records[-1].f_value!r} "
          f"-> {trace_out}, {summary_out}")
    return {TARGET: EXIT_OK, BUDGET: EXIT_CRITERION, UNDERFLOW: EXIT_UNDERFLOW,
            NONFINITE: EXIT_NONFINITE}[trace.reason]


def cmd_escape(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    spec = EscapeExperimentSpec(
        problem=problem,
        params=EsParams(alpha=float(_opt(ns, config, "alpha", 1.5)),
                        sigma_min=float(_opt(ns, config, "sigma-min", 1e-300))),
        w0=float(_opt(ns, config, "w0", 0.0)),
        sigma_tilde0=float(_opt(ns, config, "sigma0", 1.0)),
        trials=int(_opt(ns, config, "trials", 1000)),
        budget=int(_opt(ns, config, "budget", 1_000_000)),
        master_seed=_seed(ns, config),
    )
    threads = int(_opt(ns, config, "threads", 1))
    fit_range = (float(_opt(ns, config, "fit-s-low", 0.01)),
                 float(_opt(ns, config, "fit-s-high", 0.5)))
    stats_out = _opt(ns, config, "stats-out", "escape_stats.json")
    survival_out = _opt(ns, config, "survival-out", "escape_survival.csv")

    stats = run_escape_experiment(spec, threads=threads, fit_s_range=fit_range)
    payload = stats.to_dict()
    payload["command"] = "escape"
    payload["problem"] = problem.to_dict()
    payload["alpha"] = spec.params.alpha
    payload["w0"] = spec.w0
    payload["sigma0"] = spec.sigma_tilde0
    write_json(stats_out, payload)
    survival_to_csv(stats, survival_out)
    print(f"escape: escaped={stats.n_escaped}/{stats.trials} censored={stats.n_censored} "
          f"underflow={stats.n_underflow} -> {stats_out}, {survival_out}")
    failed = [k for k, status in enumerate(stats.statuses) if status != ESCAPED]
    for k in failed[:_LIST_FAILED]:
        print(f"escape: trial {k} {stats.statuses[k]} at t={stats.times[k]}; replay its stream "
              f"with task_rng({spec.master_seed}, \"trial\", {k})", file=sys.stderr)
    if len(failed) > _LIST_FAILED:
        print(f"escape: {len(failed) - _LIST_FAILED} more trials did not escape", file=sys.stderr)
    if stats.n_underflow > 0:
        return EXIT_UNDERFLOW
    if stats.n_censored > 0:
        return EXIT_CRITERION
    return EXIT_OK


def cmd_drift_map(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    params = EsParams(alpha=float(_opt(ns, config, "alpha", 1.5)))
    quantity = str(_opt(ns, config, "quantity", "W"))
    beta = _opt(ns, config, "beta")
    grid = _grid(ns, config)
    seed = _seed(ns, config)
    rows = drift_map(problem, params, quantity, grid=grid,
                     n=int(_opt(ns, config, "n", 100_000)),
                     master_seed=seed,
                     beta=None if beta is None else float(beta),
                     confidence=float(_opt(ns, config, "confidence", 0.99)),
                     threads=int(_opt(ns, config, "threads", 1)))
    map_out = _opt(ns, config, "map-out", "drift_map.csv")
    drift_map_to_csv(rows, map_out)
    n_positive = sum(1 for r in rows if r.est.ci_low > 0.0)
    print(f"drift-map: quantity={quantity} rows={len(rows)} "
          f"ci_low>0 at {n_positive}/{len(rows)} points -> {map_out}")
    if _opt(ns, config, "check-positive", False) and n_positive != len(rows):
        k = min(range(len(rows)), key=lambda k: rows[k].est.ci_low)
        point = _describe_point(rows[k], seed, *divmod(k, grid.sigma_values.size))
        print(f"drift-map: lowest ci_low at {point}", file=sys.stderr)
        return EXIT_CRITERION
    return EXIT_OK


def cmd_constants(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    params = EsParams(alpha=float(_opt(ns, config, "alpha", 1.5)))
    n = int(_opt(ns, config, "n", 100_000))
    seed = _seed(ns, config)
    constants_out = _opt(ns, config, "constants-out", "constants.json")
    try:
        constants = estimate_constants_report(
            problem, params, grid=_grid(ns, config), n=n, master_seed=seed,
            confidence=float(_opt(ns, config, "confidence", 0.99))).constants
    except ConstantsEstimationError as exc:
        print(f"constants estimation failed: {exc}", file=sys.stderr)
        return EXIT_CONSTANTS
    payload = constants.to_dict()
    payload["command"] = "constants"
    payload["problem"] = problem.to_dict()
    payload["n"] = n
    payload["generator"] = GENERATOR_NAME
    write_json(constants_out, payload)
    print(f"constants: C={constants.C!r} theta={constants.theta!r} -> {constants_out}")
    return EXIT_OK


def cmd_succ_prob(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    n = int(_opt(ns, config, "n", 1_000_000))
    seed = _seed(ns, config)
    confidence = float(_opt(ns, config, "confidence", 0.99))
    out = _opt(ns, config, "out", "succ_prob.json")
    rng = np.random.default_rng(seed)
    payload = {"command": "succ-prob", "problem": problem.to_dict(), "n": n,
               "seed": seed, "generator": GENERATOR_NAME}
    if _opt(ns, config, "at-saddle", False):
        est = saddle_success_mc(problem, n, rng, confidence)
        payload["at_saddle"] = True
        if problem.d == 2:
            analytic = saddle_success_analytic_2d(problem)
            payload["analytic"] = analytic
            payload["abs_error"] = abs(est.mean - analytic)
    else:
        w = _opt(ns, config, "w")
        sigma = _opt(ns, config, "sigma")
        if w is None or sigma is None:
            raise ConfigError("succ-prob needs --w and --sigma (or --at-saddle)")
        ns_state = NormalizedState(sample_M_plus_0(problem, float(w)), float(sigma))
        est = success_probability(problem, ns_state, n, rng, confidence)
        payload["w"] = float(w)
        payload["sigma"] = float(sigma)
    payload.update({"estimate": est.mean, "stderr": est.stderr,
                    "ci_low": est.ci_low, "ci_high": est.ci_high,
                    "confidence": est.confidence})
    write_json(out, payload)
    print(f"succ-prob: estimate={est.mean!r} stderr={est.stderr!r} -> {out}")
    return EXIT_OK


def cmd_pairing(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    w = float(_opt(ns, config, "w", required=True))
    radii = _float_list(_opt(ns, config, "radii", "0.1,1,10"))
    n = int(_opt(ns, config, "n", 100_000))
    seed = _seed(ns, config)
    epsilon = float(_opt(ns, config, "epsilon", 1e-9))
    out = _opt(ns, config, "out", "pairing.json")
    m_tilde = sample_M_plus_0(problem, w)
    results = []
    for i, radius in enumerate(radii):
        rng = task_rng(seed, "pairing", i)
        report = pairing_check(problem, m_tilde, radius, n, rng, epsilon)
        results.append({"radius": radius, "violations": report.violations,
                        "min_margin": report.min_margin, "n_pairs": report.n_pairs})
    total = sum(r["violations"] for r in results)
    write_json(out, {"command": "pairing", "problem": problem.to_dict(), "w": w,
                     "n": n, "seed": seed, "generator": GENERATOR_NAME,
                     "epsilon": epsilon, "results": results,
                     "total_violations": total})
    print(f"pairing: w={w} radii={radii} violations={total} -> {out}")
    return EXIT_OK if total == 0 else EXIT_CRITERION


def cmd_levels(ns) -> int:
    config = _load_config(ns)
    problem = _problem(ns, config)
    if problem.d != 2:
        raise ConfigError("levels output is only defined for d = 2")
    extent = float(_opt(ns, config, "extent", 1.0))
    points = int(_opt(ns, config, "points", 101))
    if extent <= 0.0 or points < 2:
        raise ConfigError("need extent > 0 and points >= 2")
    out = _opt(ns, config, "out", "levels.csv")
    axis = np.linspace(-extent, extent, points)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    # one (1, 2) @ (2,) product per point rounds as the single-point dot does
    f = problem.evaluate(x)[:, 0]
    write_csv(out, ["x1", "x2", "f"], zip(x[:, 0, 0], x[:, 0, 1], f))
    print(f"levels: {points}x{points} grid over [-{extent}, {extent}]^2 -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", help="comma-separated coefficients, e.g. -1,20")
    p.add_argument("--b", type=int, help="split index (number of negative coefficients)")
    p.add_argument("--seed", type=int, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--config", help="JSON config file; flags override its entries")


def _set_command(p: argparse.ArgumentParser, func) -> None:
    """Bind a subcommand; its config-file keys are its long options but --config."""
    keys = {opt[2:] for action in p._actions if action.dest not in ("help", "config")
            for opt in action.option_strings if opt.startswith("--")}
    p.set_defaults(func=func, config_keys=keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddle-es",
        description="(1+1) evolution strategy on diagonal quadratic saddles: "
                    "runs, escape-time experiments, drift maps, constants.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single seeded run; writes trace CSV + summary JSON")
    _add_common(p)
    p.add_argument("--m0", help="comma-separated initial mean")
    p.add_argument("--sigma0", type=float, help="initial step size")
    p.add_argument("--alpha", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--sigma-min", type=float)
    p.add_argument("--record-every", type=int)
    p.add_argument("--trace-out")
    p.add_argument("--summary-out")
    _set_command(p, cmd_run)

    p = sub.add_parser("escape", help="escape-time experiment; writes stats JSON + survival CSV")
    _add_common(p)
    p.add_argument("--w0", type=float)
    p.add_argument("--sigma0", type=float, help="initial normalized step size")
    p.add_argument("--alpha", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--sigma-min", type=float)
    p.add_argument("--fit-s-low", type=float)
    p.add_argument("--fit-s-high", type=float)
    p.add_argument("--stats-out")
    p.add_argument("--survival-out")
    _set_command(p, cmd_escape)

    p = sub.add_parser("drift-map", help="drift estimates over the (w, sigma~) grid; writes CSV")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--quantity", choices=["V", "W", "Phi", "v", "w", "phi"])
    p.add_argument("--beta", type=float, help="weight for the combined potential")
    _add_grid(p)
    p.add_argument("--threads", type=int)
    p.add_argument("--map-out")
    p.add_argument("--check-positive", action="store_const", const=True,
                   help="exit 2 unless every CI lower bound is positive")
    _set_command(p, cmd_drift_map)

    p = sub.add_parser("constants", help="estimate the drift constants; writes JSON record")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    _add_grid(p)
    p.add_argument("--constants-out")
    _set_command(p, cmd_constants)

    p = sub.add_parser("succ-prob", help="Monte Carlo success probability at one state")
    _add_common(p)
    p.add_argument("--w", type=float, help="W value of the mean on the compact shell")
    p.add_argument("--sigma", type=float, help="normalized step size")
    p.add_argument("--n", type=int)
    p.add_argument("--confidence", type=float)
    p.add_argument("--at-saddle", action="store_const", const=True,
                   help="sample from the saddle point itself (compares to the d=2 closed form)")
    p.add_argument("--out")
    _set_command(p, cmd_succ_prob)

    p = sub.add_parser("pairing", help="mirror-pairing inequality check; writes JSON report")
    _add_common(p)
    p.add_argument("--w", type=float)
    p.add_argument("--radii", help="comma-separated sphere radii")
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out")
    _set_command(p, cmd_pairing)

    p = sub.add_parser("levels", help="level-set point grid for plotting (d = 2); writes CSV")
    _add_common(p)
    p.add_argument("--extent", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out")
    _set_command(p, cmd_levels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())
