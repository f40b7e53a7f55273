"""Child process of the benchmark: one traced CLI run, or the layer measurements.

    python perfbench/probe.py trace  OUT.json -- <saddle-es argv>
    python perfbench/probe.py layers OUT.json <workload> <seed> [--smoke]

``trace`` imports saddle_es, wraps its modules with ``tracer.Tracer`` and runs
``saddle_es.cli.main`` on the argv in this process; it writes the spans and
counts to OUT.json.  ``layers`` times public functions of each module on fixed
inputs, and the worker pool on the workload's own spec at 1 and 2 workers.
saddle_es must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc

from tracer import Tracer


def trace(out_path: str, argv: list) -> int:
    start = time.perf_counter()
    import saddle_es.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        rc = saddle_es.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": import_s, **tracer.to_dict()}, fh)
    return rc


def per_call(fn, number: int, repeat: int) -> float:
    """Median over ``repeat`` rounds of the seconds per call of ``fn``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def layers(out_path: str, name: str, seed: int, smoke: bool) -> None:
    import numpy as np
    import workloads
    from saddle_es import es, estimators, experiments, normalization, objective

    scale = 64 if smoke else 1
    repeat = 3 if smoke else 7
    rng = np.random.default_rng(seed)
    p2 = objective.SaddleProblem(a=np.array([-1.0, 20.0]), b=1)
    p100 = objective.SaddleProblem(a=np.array([-1.0] + [1.0] * 99), b=1)
    m = {}

    n = (1 << 20) // scale
    m["rng.ns_per_normal"] = per_call(lambda: rng.standard_normal(n), 1, repeat) / n * 1e9
    m["rng.default_rng_us"] = per_call(lambda: np.random.default_rng(seed), 500 // scale + 1, repeat) * 1e6

    x2 = rng.standard_normal(((1 << 18) // scale, 2))
    x100 = rng.standard_normal(((1 << 14) // scale, 100))
    for key, fn, x in (("evaluate_ns_per_point.d2", p2.evaluate, x2),
                       ("evaluate_ns_per_point.d100", p100.evaluate, x100),
                       ("norm_minus_ns_per_point.d2", p2.norm_minus, x2),
                       ("norm_plus_ns_per_point.d2", p2.norm_plus, x2)):
        m[f"objective.{key}"] = per_call(lambda: fn(x), 1, repeat) / len(x) * 1e9
    # computed: evaluate at d=2 reads x, writes and reads its square, writes f
    m["objective.bytes_per_point"] = (x2.nbytes + 2 * np.square(x2).nbytes
                                      + p2.evaluate(x2).nbytes) / len(x2)

    m["normalization.sample_M_plus_0_us"] = per_call(
        lambda: normalization.sample_M_plus_0(p2, 0.5), 2000 // scale, repeat) * 1e6

    # stop=None runs the whole budget; 5000 iterations stay finite on both problems
    def saddle_shell_point(prob):
        point = np.zeros(prob.d)
        point[prob.b] = 1.0 / np.sqrt(prob.a[prob.b])
        return es.EsState(m=point, sigma=1.0)

    iters = 5000 // scale
    for key, prob in (("d2", p2), ("d100", p100)):
        init = saddle_shell_point(prob)
        budget = es.EsParams(max_iters=iters)
        m[f"es.run_us_per_iter.{key}"] = per_call(
            lambda: es.run(prob, budget, init, np.random.default_rng(seed), stop=None,
                           record_every=0), 1, repeat) / iters * 1e6
    one = es.EsParams(max_iters=1)
    init = saddle_shell_point(p2)
    # a trial's fixed cost: its stream plus a one-iteration run
    m["es.trial_fixed_us.d2"] = per_call(
        lambda: es.run(p2, one, init, np.random.default_rng(seed), record_every=0),
        500 // scale + 1, repeat) * 1e6

    n = 200_000 // scale
    ns = normalization.NormalizedState(normalization.sample_M_plus_0(p2, 0.5), 1.0)
    params = es.EsParams()
    for key, fn in (("success_probability", lambda: estimators.success_probability(p2, ns, n, rng)),
                    ("one_step_samples", lambda: estimators.one_step_samples(p2, params, ns, n, rng)),
                    ("drift_w", lambda: estimators.drift_w(p2, params, ns, n, rng))):
        m[f"estimators.{key}_ns_per_sample"] = per_call(fn, 1, repeat) / n * 1e9
    peaks = []
    for k in (1, 2):
        tracemalloc.start()
        estimators.drift_w(p2, params, ns, k * n, rng)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    m["estimators.peak_bytes_per_sample"] = (peaks[1] - peaks[0]) / n

    tracer = Tracer()
    tracer.install()
    try:
        estimators.estimate_constants_report(
            p2, params, n=2_000 if smoke else 10_000, master_seed=seed,
            grid=estimators.GridSpec(np.array([0.0, 1.0]), np.geomspace(1e-4, 1e3, 12))
            if smoke else None)
    finally:
        tracer.uninstall()
    parent = "estimators.estimate_constants_report"
    m["estimators.constants.sigma40_s"] = tracer.total((parent, "estimators.estimate_sigma_40"))
    m["estimators.constants.v_map_s"] = tracer.total((parent, "estimators.drift_v"))
    m["estimators.constants.w_map_s"] = tracer.total((parent, "estimators.drift_w"))

    trials = 40_000 // scale
    times = np.random.default_rng(seed).geometric(1 / 16, size=trials)
    escaped = np.ones(trials, dtype=bool)
    m["experiments.survival_curve_s"] = per_call(
        lambda: experiments.survival_curve(times, escaped), 1, repeat)
    t, s = experiments.survival_curve(times, escaped)
    m["experiments.fit_tail_s"] = per_call(lambda: experiments.fit_exponential_tail(t, s),
                                           20, repeat)

    call = workloads.WORKLOADS[name].pool_call(seed, smoke)
    walls = {}
    for workers in (1, 2):
        cpu, start = cpu_seconds(), time.perf_counter()
        call(workers)
        walls[workers] = (time.perf_counter() - start, cpu_seconds() - cpu)
    m["experiments.pool_speedup_2w"] = walls[1][0] / walls[2][0]
    m["experiments.pool_cpu_util"] = walls[2][1] / (walls[2][0] * 2)

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(m, fh)


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "trace":
        sys.exit(trace(out, sys.argv[sys.argv.index("--") + 1:]))
    layers(out, sys.argv[3], int(sys.argv[4]), "--smoke" in sys.argv[5:])
