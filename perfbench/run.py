#!/usr/bin/env python3
"""Benchmark of the saddle-es CLI: one workload per run.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's CLI command as a subprocess, repeatedly for
at least ``--seconds`` seconds, and prints the end-to-end metrics named in
BENCHMARK.json (medians over the repetitions).  ``--trace 1`` runs the command
once untraced and once in-process under the span recorders of ``tracer.py``,
times each module's public functions on fixed inputs, and prints the per-layer
metrics.  Every run checks the outputs (see ``workloads.py``): the exit code,
the paper's claims, identical bytes across repetitions of one seed, across 1
and 2 workers, and between traced and untraced runs.

The last stdout line is one JSON object {correct, attempted, failed, metrics}.
``attempted`` and ``failed`` count output units (trials, grid points, constants
records); a failed exit code or byte comparison fails every unit of the run, so
failed/attempted is the run's ``failed_frac``.  The line before it holds the
machine facts, output hashes, counts and check results.  ``--smoke`` shrinks
every size for a quick self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
MIN_REPS = 3
SPIN = "for _ in range(4_000_000): pass"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, timeout)."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float


class Bench:
    """State of one benchmark run: work directory, deadline, failures."""

    def __init__(self, workload: workloads.Workload, seed: int, smoke: bool, work: Path):
        self.wl, self.seed, self.smoke, self.work = workload, seed, smoke, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "SADDLE_ES_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failed = 0
        self.problems = []          # whole-run failures: every unit fails
        self.hashes = {}
        self._dirs = 0

    def fail(self, why: str) -> None:
        self.problems.append(why)

    def spawn(self, argvs: list, cwd: Path) -> list:
        """Run the commands concurrently; per command: exit code, wall time, and
        the peak RSS of its process tree (from wait4)."""
        logs, procs = [], []
        try:
            for i, argv in enumerate(argvs):
                logs.append(open(cwd / f"log{i}.txt", "wb"))
                start = time.perf_counter()
                procs.append((start, subprocess.Popen(
                    argv, cwd=cwd, env=self.env, stdout=logs[-1], stderr=subprocess.STDOUT,
                    start_new_session=True)))
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    lambda: [_kill(p) for _, p in procs])
            timer.start()
            results = []
            try:
                for start, p in procs:
                    _, status, usage = os.wait4(p.pid, 0)
                    wall = time.perf_counter() - start
                    p.returncode = os.waitstatus_to_exitcode(status)
                    results.append(Proc(p.returncode, wall, usage.ru_maxrss / 1024.0))
            finally:
                timer.cancel()
        except BaseException:
            for _, p in procs:
                if p.returncode is None:
                    _kill(p)
                    p.wait()
            raise
        finally:
            for log in logs:
                log.close()
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return results

    def newdir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:02d}-{label}"
        path.mkdir()
        return path

    def cli(self, label: str, threads: int | None = None) -> tuple:
        """One untraced run of the workload command; returns (Proc, Check, hashes)."""
        outdir = self.newdir(label)
        argv = [sys.executable, "-m", "saddle_es", *self.wl.argv(self.seed, self.smoke, threads)]
        proc = self.spawn([argv], outdir)[0]
        return (proc, *self.inspect(label, outdir, proc.rc))

    def inspect(self, label: str, outdir: Path, rc: int) -> tuple:
        """Check the outputs of one command run and count its units."""
        if rc != 0:
            self.fail(f"{label}: exit code {rc}")
        try:
            check = self.wl.check(outdir, self.smoke)
        except (workloads.OutputError, KeyError, ValueError) as exc:
            self.fail(f"{label}: {exc}")
            check = None
        hashes = {}
        for name in self.wl.outputs:
            path = outdir / name
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        self.hashes[label] = hashes
        if check is not None:
            self.attempted += check.units
            self.failed += check.failed
        return check, hashes

    def same_bytes(self, what: str, a: dict, b: dict) -> None:
        if a != b:
            self.fail(f"{what} wrote different bytes")

    def setup_s(self) -> float:
        """Median wall time of ``saddle-es --version``: interpreter start,
        imports of numpy and saddle_es, and the argument parser."""
        cwd = self.newdir("setup")
        walls = []
        for _ in range(3 if self.smoke else 9):
            proc = self.spawn([[sys.executable, "-m", "saddle_es", "--version"]], cwd)[0]
            if proc.rc != 0:
                self.fail(f"saddle-es --version: exit code {proc.rc}")
            walls.append(proc.wall_s)
        return statistics.median(walls)

    def machine(self) -> dict:
        cwd = self.newdir("machine")
        spin = [sys.executable, "-c", SPIN]
        one, two = [], []
        for _ in range(1 if self.smoke else 3):
            one.append(self.spawn([spin], cwd)[0].wall_s)
            two.append(max(p.wall_s for p in self.spawn([spin, spin], cwd)))
        one_s, two_s = statistics.median(one), statistics.median(two)
        return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
                "python": platform.python_version(), "numpy": _version("numpy"),
                "loadavg": list(os.getloadavg()),
                "spin_one_s": one_s, "spin_two_s": two_s,
                # cores' worth of throughput two CPU-bound processes get: 2 = two free cores
                "parallel_capacity": 2.0 * one_s / two_s}

    def end_to_end(self, seconds: float) -> tuple:
        setup = self.setup_s()
        reps = []
        start = time.monotonic()
        while len(reps) < (1 if self.smoke else MIN_REPS) or time.monotonic() - start < seconds:
            reps.append(self.cli(f"rep{len(reps)}"))
        for i, (_, _, hashes) in enumerate(reps[1:], 1):
            self.same_bytes(f"repetition {i} of one seed", reps[0][2], hashes)
        if self.wl.threads > 1:
            _, _, hashes = self.cli("1-worker", threads=1)
            self.same_bytes(f"1 worker against {self.wl.threads}", reps[0][2], hashes)
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(p.wall_s for p, _, _ in reps),
            "peak_rss_mb": statistics.median(p.rss_mb for p, _, _ in reps),
            "iters_per_s": statistics.median(c.iters / p.wall_s for p, c, _ in reps if c)
            if all(c for _, c, _ in reps) else 0.0,
        }
        detail = {"reps": len(reps),
                  "rep_wall_s": [p.wall_s for p, _, _ in reps],
                  "iters": reps[0][1].iters if reps[0][1] else None}
        return values, detail

    def per_layer(self) -> tuple:
        proc, check, hashes = self.cli("untraced")
        serial = proc
        if self.wl.threads > 1:
            serial, _, serial_hashes = self.cli("1-worker", threads=1)
            self.same_bytes(f"1 worker against {self.wl.threads}", hashes, serial_hashes)

        outdir = self.newdir("traced")
        probe = [sys.executable, str(HERE / "probe.py")]
        traced = self.spawn([[*probe, "trace", str(outdir / "trace.json"), "--",
                              *self.wl.argv(self.seed, self.smoke, threads=1)]], outdir)[0]
        _, traced_hashes = self.inspect("traced", outdir, traced.rc)
        self.same_bytes("traced run against untraced run", hashes, traced_hashes)
        if not (outdir / "trace.json").is_file():
            raise BenchError(f"traced run wrote no spans: exit code {traced.rc}")
        span = json.loads((outdir / "trace.json").read_text(encoding="utf-8"))

        layer_dir = self.newdir("layers")
        layer_proc = self.spawn([[*probe, "layers", str(layer_dir / "layers.json"), self.wl.name,
                                  str(self.seed), *(["--smoke"] if self.smoke else [])]],
                                layer_dir)[0]
        if layer_proc.rc != 0:
            raise BenchError(f"layer measurements failed: exit code {layer_proc.rc}")
        values = json.loads((layer_dir / "layers.json").read_text(encoding="utf-8"))

        self_s, calls, counts = span["layer_self_s"], span["layer_calls"], span["counts"]
        iters = counts.get("es.iters", 0)
        for layer in LAYERS:
            if layer != "serialize":
                values[f"{layer}.self_s"] = self_s[layer]
        values.update({
            "serialize.write_s": self_s["serialize"],
            "serialize.bytes": counts.get("serialize.bytes", 0),
            "objective.calls": calls["objective"],
            "es.calls": calls["es"],
            "es.iters": iters,
            "es.accept_ratio": counts.get("es.accepts", 0) / iters if iters else 0.0,
            "es.normals_used_frac": counts.get("es.normals_used", 0) / counts["es.normals_drawn"]
            if counts.get("es.normals_drawn") else 0.0,
            "estimators.sample_sets": counts.get("estimators.sample_sets", 0),
            "estimators.samples_drawn": counts.get("estimators.samples_drawn", 0),
            "experiments.tasks": counts.get("experiments.tasks", 0),
            "cli.import_s": span["import_s"],
            "trace.wall_s": traced.wall_s,
            "trace.unattributed_s": traced.wall_s - span["import_s"] - sum(self_s.values()),
            "trace.overhead_frac": traced.wall_s / serial.wall_s - 1.0,
        })
        detail = {"untraced_wall_s": proc.wall_s, "serial_wall_s": serial.wall_s,
                  "spans": span["nodes"]}
        return values, detail


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def load_metrics() -> dict:
    """BENCHMARK.json metric lists: {"end_to_end": {name: unit}, "per_layer": {...}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "saddle_es" / "cli.py").is_file():
        print(f"error: no saddle_es sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_metrics()["per_layer" if args.trace else "end_to_end"]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.smoke, work)
    try:
        facts = bench.machine()
        values, detail = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = max(bench.attempted, 1)
    failed = attempted if bench.problems else bench.failed
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r} {m['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted!r} ({failed} of {attempted} units)")
    for why in bench.problems:
        print(f"FAILED: {why}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": facts, "failed_frac": failed / attempted, "problems": bench.problems,
                      "outputs": bench.hashes, "counts": {k: v for k, v in values.items()
                                                          if isinstance(v, int)},
                      **detail}))
    print(json.dumps({"correct": failed == 0 and bench.attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
