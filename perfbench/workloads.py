"""The benchmark's workloads: saddle-es CLI commands, their output checks and work.

Each workload is one CLI command at a fixed size.  The benchmark seed becomes
the command's ``--seed``.  ``smoke`` overrides shrink a workload to a size that
runs in well under a second, for the benchmark's own test.

The output check of a workload counts *units*: an escape trial, a drift-map
grid point, or a constants record.  A unit fails when it contradicts the
paper's claim: a censored or underflowed trial, a grid point whose confidence
interval reaches zero, or a constants record without C > 0 and theta > 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

D100 = ",".join(["-1"] + ["1"] * 99)

# constants pipeline: 12 bisection steps follow each per-mean sigma~ scan
SIGMA40_BISECT_STEPS = 12


class OutputError(ValueError):
    """An output file is missing or does not parse."""


@dataclass(frozen=True)
class Check:
    units: int      # trials, grid points or constants records checked
    failed: int     # units that contradict the paper's claim
    iters: int      # (1+1)-ES iterations the command performed (see Workload.check)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    options: dict
    smoke: dict = field(default_factory=dict)

    def opts(self, smoke: bool) -> dict:
        return {**self.options, **self.smoke} if smoke else dict(self.options)

    @property
    def threads(self) -> int:
        return int(self.options.get("threads", 1))

    @property
    def outputs(self) -> tuple:
        return OUTPUTS[self.command]

    def argv(self, seed: int, smoke: bool, threads: int | None = None) -> list:
        """saddle-es argv; ``threads`` overrides the workload's worker count."""
        opts = self.opts(smoke)
        if threads is not None and "threads" in opts:
            opts["threads"] = threads
        args = [self.command]
        for key, value in opts.items():
            args.append(f"--{key}" if value is True else f"--{key}={value}")
        return args + [f"--seed={seed}"]

    def check(self, outdir: Path, smoke: bool) -> Check:
        """Claim check plus iteration count of one run's outputs.

        A drift-map or constants sample is one single-step (1+1)-ES iteration,
        so their count is the nominal sample count of the command.
        """
        return CHECKS[self.command](outdir, self.opts(smoke))

    def pool_call(self, seed: int, smoke: bool):
        """Library call on this workload's spec, taking the worker count.

        ``constants`` has no pool; its call is the W-drift map over the
        constants grid at the constants sample size, the task shape a pooled
        constants pipeline would map.
        """
        import numpy as np
        from saddle_es import EsParams, EscapeExperimentSpec, GridSpec, SaddleProblem
        from saddle_es import drift_map, run_escape_experiment

        o = self.opts(smoke)
        problem = SaddleProblem(a=np.array([float(v) for v in o["a"].split(",")]), b=int(o["b"]))
        params = EsParams(alpha=float(o.get("alpha", 1.5)))
        if self.command == "escape":
            spec = EscapeExperimentSpec(problem, params, w0=float(o["w0"]),
                                        sigma_tilde0=float(o["sigma0"]), trials=int(o["trials"]),
                                        budget=int(o["budget"]), master_seed=seed)
            return lambda workers: run_escape_experiment(spec, threads=workers)
        w = o.get("w-values")
        grid = GridSpec(np.array([float(v) for v in w.split(",")]) if w else np.linspace(0.0, 1.0, 11),
                        np.geomspace(1e-4, 1e3, int(o.get("sigma-grid-points", 36))))
        return lambda workers: drift_map(problem, params, o.get("quantity", "W"), grid=grid,
                                         n=int(o.get("n", 100_000)), master_seed=seed,
                                         threads=workers)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc


def _read_csv(path: Path) -> list:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc


def _grid_size(opts: dict) -> tuple:
    w = opts.get("w-values")
    return (len(w.split(",")) if w else 11), int(opts.get("sigma-grid-points", 36))


def check_escape(outdir: Path, opts: dict) -> Check:
    stats = _read_json(outdir / "escape_stats.json")
    rows = _read_csv(outdir / "escape_survival.csv")
    trials, budget = int(stats["trials"]), int(stats["budget"])
    failed = int(stats["n_censored"]) + int(stats["n_underflow"])
    if int(stats["n_escaped"]) + failed != trials:
        raise OutputError("escape counts do not sum to the number of trials")
    # rebuild the iteration count from the survival curve: sum t * dS * trials,
    # counting every trial that did not escape at the budget
    iters, previous, escaped = 0, 1.0, 0
    for row in rows:
        t, s = int(row["t"]), float(row["S"])
        k = round((previous - s) * trials)
        iters += t * k
        escaped += k
        previous = s
    if escaped != int(stats["n_escaped"]):
        raise OutputError("survival curve does not account for every escaped trial")
    iters += (trials - escaped) * budget
    return Check(units=trials, failed=failed, iters=iters)


def check_drift_map(outdir: Path, opts: dict) -> Check:
    rows = _read_csv(outdir / "drift_map.csv")
    w, s = _grid_size(opts)
    if len(rows) != w * s:
        raise OutputError(f"drift map has {len(rows)} rows, expected {w * s}")
    failed = sum(1 for r in rows if not float(r["ci_low"]) > 0.0)
    return Check(units=len(rows), failed=failed, iters=sum(int(r["n"]) for r in rows))


def check_constants(outdir: Path, opts: dict) -> Check:
    record = _read_json(outdir / "constants.json")
    ok = float(record["C"]) > 0.0 and float(record["theta"]) > 0.0
    n = int(record["n"])
    w, s = _grid_size(opts)
    lo, hi = float(opts.get("sigma-grid-min", 1e-4)), float(opts.get("sigma-grid-max", 1e3))
    grid = [lo * (hi / lo) ** (j / (s - 1)) for j in range(s)]
    star = float(record["sigma_tilde_star"])
    w_points = sum(1 for g in grid if g >= star * (1.0 - 1e-9))
    # nominal: sigma~40 scans with bisection, the V map, the W map above sigma~*
    iters = n * w * ((s + SIGMA40_BISECT_STEPS) + s + w_points)
    return Check(units=1, failed=0 if ok else 1, iters=iters)


OUTPUTS = {"escape": ("escape_stats.json", "escape_survival.csv"),
           "drift-map": ("drift_map.csv",),
           "constants": ("constants.json",)}
CHECKS = {"escape": check_escape, "drift-map": check_drift_map, "constants": check_constants}

# Why each workload was chosen: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("constants", "constants", {"a": "-1,20", "b": 1, "alpha": 1.5},
             smoke={"n": 20_000, "w-values": "0,0.5,1", "sigma-grid-points": 12}),
    Workload("drift-map", "drift-map",
             {"a": "-1,20", "b": 1, "quantity": "W", "n": 1_000_000,
              "w-values": "0,0.25,0.5,0.75,1", "sigma-grid-points": 8, "threads": 2,
              "check-positive": True},
             smoke={"n": 20_000, "w-values": "0,1"}),
    Workload("escape-short", "escape",
             {"a": "-1,100", "b": 1, "w0": 0, "sigma0": 1, "trials": 40_000,
              "budget": 1_000_000, "threads": 2},
             smoke={"trials": 2_000}),
    Workload("escape-long", "escape",
             {"a": D100, "b": 1, "w0": 0, "sigma0": 1, "trials": 1_000,
              "budget": 1_000_000, "threads": 1},
             smoke={"trials": 20}),
)}
