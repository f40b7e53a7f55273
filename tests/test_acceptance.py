"""Release-gate checks at the scales the project commits to.

Run with ``pytest tests/test_acceptance.py -v -s``: each check prints one
PASS/FAIL line with its measured numbers.  Sample sizes and tolerances are
fixed here, not calibrated at run time.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np

from saddle_es import es
from saddle_es import (
    EscapeExperimentSpec,
    EsParams,
    EsState,
    SaddleProblem,
    drift_map,
    escape_times,
    estimate_constants_report,
    one_step_samples,
    pairing_check,
    run,
    run_escape_experiment,
    saddle_success_analytic_2d,
    sample_M_plus_0,
    success_probability,
    task_rng,
)
from saddle_es.cli import EXIT_OK, main

MASTER_SEED = 20260810


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def make(a, b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


def test_criterion_01_elitism_and_region_monotonicity():
    t0 = time.perf_counter()
    problems = [make((-1.0, 1.0)), make((-4.0, 1.0)), make((-1.0, 20.0))]
    params = EsParams(alpha=1.5, max_iters=5000)
    spec_rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    runs = 0
    for i in range(1000):
        p = problems[i % 3]
        w0 = float(spec_rng.uniform(0.0, 1.0))
        sigma0 = float(10.0 ** spec_rng.uniform(-2.0, 1.0))
        trace = run(p, params, EsState(m=sample_M_plus_0(p, w0), sigma=sigma0),
                    np.random.default_rng(MASTER_SEED ^ (1000 + i)), record_every=1)
        f = np.array([r.f_value for r in trace.records])
        if np.any(np.diff(f) > 0.0):
            violations += 1
        ranks = np.sign([p.evaluate(r.m) for r in trace.records])
        if np.any(np.diff(ranks) > 0):
            violations += 1
        runs += 1
    elapsed = time.perf_counter() - t0
    report("1 elitism/region monotonicity",
           violations == 0 and runs == 1000 and elapsed < 60.0,
           f"runs={runs} violations={violations} elapsed={elapsed:.1f}s")


def test_criterion_02_coupled_scale_invariance():
    p = make((-1.0, 20.0))
    params = EsParams(alpha=1.5, max_iters=1000)
    spec_rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    diverged = []       # (triple, seed, c, step, f(m) and sigma of both runs before it)
    for i in range(100):
        m0 = spec_rng.standard_normal(2)
        if p.norm_plus(m0) == 0.0:
            m0[1] = 1.0
        sigma0 = float(10.0 ** spec_rng.uniform(-1.0, 1.0))
        c = float(10.0 ** spec_rng.uniform(-3.0, 3.0))
        seed = MASTER_SEED ^ (2000 + i)
        t1 = run(p, params, EsState(m=m0, sigma=sigma0),
                 np.random.default_rng(seed), stop=None, record_every=1)
        t2 = run(p, params, EsState(m=c * m0, sigma=c * sigma0),
                 np.random.default_rng(seed), stop=None, record_every=1)
        assert len(t1.records) == len(t2.records) == 1001
        for r1, r2 in zip(t1.records, t2.records):
            if r1.accepted != r2.accepted:
                worst = math.inf
                diverged.append((i, seed, c, r1.t, q1.f_value, q2.f_value, q1.sigma, q2.sigma))
                break
            scale = c * (float(np.abs(r1.m).max()) + r1.sigma)
            worst = max(worst, float(np.abs(c * r1.m - r2.m).max()) / scale,
                        abs(c * r1.sigma - r2.sigma) / (c * r1.sigma))
            q1, q2 = r1, r2
    detail = f"worst relative deviation={worst:.3e} over 100 triples x 1000 steps"
    if diverged:
        i, seed, c, t, f1, f2, s1, s2 = diverged[0]
        detail += (f"; acceptance differs in {len(diverged)} triples, first in triple {i} "
                   f"(seed={seed}, c={c:.4g}) at step t={t}, from f={f1!r} and {f2!r}, "
                   f"sigma={s1!r} and {s2!r}")
    report("2 coupled scale invariance", worst <= 1e-9, detail)


def test_criterion_03_saddle_success_probability():
    expected = {(-1.0, 1.0): 0.5, (-1.0, 20.0): 0.14005, (-4.0, 1.0): 0.70483}
    details = []
    ok = True
    for i, (a, quoted) in enumerate(expected.items()):
        p = make(a)
        analytic = saddle_success_analytic_2d(p)
        ok &= abs(analytic - quoted) < 5e-6
        est = success_probability(p, EsState(np.zeros(2), 1.0), 1_000_000,
                                  np.random.default_rng(MASTER_SEED ^ (3000 + i)))
        ok &= abs(est.mean - analytic) <= 3.0 * est.stderr
        details.append(f"a={a}: mc={est.mean:.5f} analytic={analytic:.5f} "
                       f"3se={3 * est.stderr:.1e}")
    report("3 saddle success probability (n=1e6)", ok, "; ".join(details))


def test_criterion_04_small_sigma_success_limit():
    p = make((-1.0, 20.0))
    results = {}
    ok = True
    for i, w in enumerate((0.0, 0.25, 0.5, 0.75, 0.9)):
        ns = EsState(sample_M_plus_0(p, w), 1e-4)
        est = success_probability(p, ns, 100_000,
                                  np.random.default_rng(MASTER_SEED ^ (4000 + i)))
        results[w] = est.mean
        ok &= 0.45 <= est.mean <= 0.55
    report("4 small-step success limit (sigma~=1e-4)", ok,
           " ".join(f"w={w}:{v:.3f}" for w, v in results.items()))


def test_criterion_05_step_size_drift():
    t0 = time.perf_counter()
    p = make((-1.0, 20.0))
    params = EsParams(alpha=1.5)
    rep = estimate_constants_report(p, params, n=100_000, master_seed=MASTER_SEED)
    c = rep.constants

    # closed forms, recomputed through a different formula path
    b1_ref = -math.log1p(0.5) / 4.0
    b2_ref = math.log1p(0.5) / 20.0
    ok = abs(c.B1 - b1_ref) <= 1e-12 and abs(c.B2 - b2_ref) <= 1e-12

    below = [row for row in rep.v_map if row.sigma_tilde < c.sigma_tilde_star]
    ok &= len(below) > 0 and all(row.est.ci_low > 0.0 for row in below)

    samples = one_step_samples(p, params, EsState(sample_M_plus_0(p, 0.5), 1.0),
                               100_000, np.random.default_rng(MASTER_SEED ^ 5000))
    v_inc = samples.increments("V")
    rejected = ~samples.accepted
    exact = -0.25 * math.log(1.5)
    ok &= rejected.sum() > 0 and bool(np.all(v_inc[rejected] == exact))
    report("5 step-size drift (alpha=1.5, n=1e5/point)", ok,
           f"sigma*={c.sigma_tilde_star:.4g} points_below={len(below)} "
           f"min_ci_low={min((r.est.ci_low for r in below), default=math.nan):.4f} "
           f"rejection_const={exact!r} elapsed={time.perf_counter() - t0:.0f}s")


def test_criterion_06_mean_drift_positive_everywhere():
    t0 = time.perf_counter()
    p = make((-1.0, 20.0))
    rows = drift_map(p, EsParams(alpha=1.5), "W", n=100_000, master_seed=MASTER_SEED)
    assert len(rows) == 11 * 36
    n_nonpositive = sum(1 for r in rows if r.est.ci_low <= 0.0)

    p_star = saddle_success_analytic_2d(p)
    top = [r for r in rows if r.w == 0.0 and r.sigma_tilde == 1e3]
    assert len(top) == 1
    gap = abs(top[0].est.mean - p_star)
    elapsed = time.perf_counter() - t0
    ok = n_nonpositive == 0 and gap <= 3.0 * top[0].est.stderr and elapsed < 1800.0
    report("6 mean drift positive on 11x36 grid (n=1e5)", ok,
           f"nonpositive={n_nonpositive} apex@1e3 mean={top[0].est.mean:.5f} "
           f"p*={p_star:.5f} gap={gap:.2e} elapsed={elapsed:.0f}s")


def test_criterion_07_mirror_pairing_inequality():
    ok = True
    details = []
    for ai, a in enumerate([(-1.0, 1.0), (-1.0, 20.0)]):
        p = make(a)
        for wi, w in enumerate((0.1, 0.5, 0.9)):
            m_tilde = sample_M_plus_0(p, w)
            for ri, radius in enumerate((0.1, 1.0, 10.0)):
                seed = MASTER_SEED ^ (7000 + 100 * ai + 10 * wi + ri)
                rep = pairing_check(p, m_tilde, radius, 100_000,
                                    np.random.default_rng(seed))
                ok &= rep.violations == 0
                if rep.violations:
                    details.append(f"a={a} w={w} r={radius}: {rep.violations}")
    report("7 mirror-pairing inequality (18 configs, n=1e5)", ok,
           "zero margins below -1e-9" if ok else "; ".join(details))


def test_criterion_08_escape_reliability():
    t0 = time.perf_counter()
    ok = True
    details = []
    for ai, a in enumerate([(-1.0, 1.0), (-1.0, 20.0), (-1.0, 100.0)]):
        for si, sigma0 in enumerate((1e-3, 1.0, 10.0)):
            spec = EscapeExperimentSpec(problem=make(a), params=EsParams(alpha=1.5),
                                        w0=0.0, sigma_tilde0=sigma0, trials=1000,
                                        budget=1_000_000,
                                        master_seed=MASTER_SEED ^ (8000 + 10 * ai + si))
            stats = run_escape_experiment(spec)
            good = stats.escape_fraction == 1.0 and stats.n_underflow == 0
            ok &= good
            if not good:
                details.append(f"a={a} sigma0={sigma0}: escaped={stats.n_escaped} "
                               f"underflow={stats.n_underflow}")
    report("8 escape reliability (9 configs x 1000 trials)", ok,
           ("all escaped, zero underflows" if ok else "; ".join(details)) +
           f" elapsed={time.perf_counter() - t0:.0f}s")


def test_criterion_09_exponential_tail():
    t0 = time.perf_counter()
    spec = EscapeExperimentSpec(problem=make((-1.0, 100.0)), params=EsParams(alpha=1.5),
                                w0=0.0, sigma_tilde0=1.0, trials=10_000,
                                budget=1_000_000, master_seed=MASTER_SEED ^ 9000)
    stats = run_escape_experiment(spec)
    fit = stats.tail
    elapsed = time.perf_counter() - t0
    ok = (stats.escape_fraction == 1.0 and fit is not None
          and fit.r_squared >= 0.95 and fit.rate > 0.0 and elapsed < 3600.0)
    report("9 exponential escape-time tail (1e4 trials)", ok,
           f"lambda={fit.rate:.4f} R2={fit.r_squared:.4f} points={fit.n_points} "
           f"elapsed={elapsed:.0f}s")


def test_criterion_10_constants_pipeline_via_cli(tmp_path):
    t0 = time.perf_counter()
    args = ["constants", "--a=-1,20", "--b=1", "--alpha=1.5",
            f"--seed={MASTER_SEED}"]
    code1 = main(args + [f"--constants-out={tmp_path}/c1.json"])
    code2 = main(args + [f"--constants-out={tmp_path}/c2.json"])
    b1 = (tmp_path / "c1.json").read_bytes()
    b2 = (tmp_path / "c2.json").read_bytes()
    import json
    record = json.loads(b1)
    ok = (code1 == EXIT_OK and code2 == EXIT_OK and b1 == b2
          and record["C"] > 0.0 and record["theta"] > 0.0
          and record["confidence"] == 0.99)
    report("10 constants pipeline (CLI, byte-identical rerun)", ok,
           f"C={record['C']:.4f} theta={record['theta']:.4f} "
           f"beta={record['beta']:.4f} identical={b1 == b2} "
           f"elapsed={time.perf_counter() - t0:.0f}s")


def kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution: the theta-function series
    below lam = 1.18, the alternating series 2 sum (-1)^(j-1) exp(-2 j^2 lam^2)
    above; each converges within a few terms on its side."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        c = math.pi ** 2 / (8.0 * lam * lam)
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * sum(
            math.exp(-(2 * j - 1) ** 2 * c) for j in range(1, 20))
    return 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 20))


def ks_two_sample(x, y) -> tuple:
    """Two-sample Kolmogorov-Smirnov statistic D = sup |F_x - F_y| and its
    asymptotic p-value kolmogorov_sf(sqrt(nm / (n + m)) D).  Tied values, as
    integer escape times have, make the asymptotic p conservative."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate([x, y])
    d = float(np.abs(np.searchsorted(x, at, side="right") / x.size
                     - np.searchsorted(y, at, side="right") / y.size).max())
    return d, kolmogorov_sf(math.sqrt(x.size * y.size / (x.size + y.size)) * d)


def test_kolmogorov_sf_reference_values():
    # the survival function of the Kolmogorov distribution, as scipy.special.kolmogorov
    # gives it
    for lam, q in [(0.3, 0.9999906941986655), (0.5, 0.9639452436648751),
                   (1.0, 0.26999967167735456), (1.18, 0.1234538094297657),
                   (1.36, 0.049485876755377876), (3.0, 3.045995948942526e-08),
                   (10.0, 2.767793053473475e-87)]:
        assert math.isclose(kolmogorov_sf(lam), q, rel_tol=1e-9)
    assert ks_two_sample(np.arange(5), np.arange(5)) == (0.0, 1.0)
    assert ks_two_sample(np.array([1, 2, 3]), np.array([2, 3, 4, 5]))[0] == 0.5


# d: (engine trials, per-trial run trials), all from the shell point at w0 = 0
# with sigma~0 = 1; the sides read disjoint master seeds, so no trial of one
# shares a stream with a trial of the other
LAW_CASES = {3: (4000, 4000), 4: (4000, 4000), 100: (2000, 300)}


def law_spec(d: int) -> EscapeExperimentSpec:
    return EscapeExperimentSpec(problem=make((-1.0,) + (1.0,) * (d - 1)),
                                params=EsParams(alpha=1.5), w0=0.0, sigma_tilde0=1.0,
                                trials=LAW_CASES[d][0], budget=1_000_000,
                                master_seed=MASTER_SEED ^ (11000 + d))


@functools.lru_cache(maxsize=None)
def run_escape_sample(d: int) -> np.ndarray:
    """Escape times of per-trial ``run`` on the full d-dimensional state."""
    spec = law_spec(d)
    params = replace(spec.params, max_iters=spec.budget)
    seed = MASTER_SEED ^ (11500 + d)
    traces = [run(spec.problem, params, spec.initial_state(), task_rng(seed, "trial", k),
                  record_every=0) for k in range(LAW_CASES[d][1])]
    assert all(trace.t_escape is not None for trace in traces)
    return np.array([trace.t_escape for trace in traces])


def test_criterion_11_engine_escape_time_law():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in LAW_CASES:
        stats = run_escape_experiment(law_spec(d))
        dist, p = ks_two_sample(stats.times, run_escape_sample(d))
        ok &= stats.escape_fraction == 1.0 and p >= 1e-3
        details.append(f"d={d}: D={dist:.4f} p={p:.3g}")
    report("11 engine escape-time law equals run's (KS, p >= 0.001)", ok,
           "; ".join(details) + f" elapsed={time.perf_counter() - t0:.0f}s")


class ChiSquareOffByOne:
    """A stream whose chi-square draws have one degree of freedom too many."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size=None, out=None):
        return self.rng.standard_normal(size, out=out)

    def standard_gamma(self, shape, size=None, out=None):
        return self.rng.standard_gamma(np.add(shape, 0.5), size, out=out)


def test_criterion_11_control_off_by_one_chi_square_fails():
    # the lumped chain with chi^2_k in place of chi^2_(k-1); at d=100 the extra
    # degree of freedom out of 99 is too small to detect
    details = []
    ok = True
    for d in (3, 4):
        spec = law_spec(d)
        rngs = [ChiSquareOffByOne(task_rng(spec.master_seed, "trial", k))
                for k in range(spec.trials)]
        reasons, times = escape_times(spec.problem, replace(spec.params, max_iters=spec.budget),
                                      spec.initial_state(), rngs)
        dist, p = ks_two_sample(times, run_escape_sample(d))
        ok &= p < 1e-3
        details.append(f"d={d}: D={dist:.4f} p={p:.3g}")
    report("11 control: an off-by-one chi-square fails the law gate", ok, "; ".join(details))


# the small-sigma~ growth law.  At small sigma~ the success rate is 1/2
# (criterion 4), so ln sigma makes a random walk with steps +ln alpha and
# -c ln alpha, where alpha**-c (c = es._FAILURE_EXPONENT) is the failure
# factor; by Wald's identity each decade by which sigma~0 shrinks then adds
# L(c) = ln 10 / ((1 - c) / 2 ln alpha) iterations to the mean escape time
GROWTH_STARTS = (1e-3, 1e-6, 1e-9, 1e-12)


def growth_law(c: float, alpha: float = 1.5) -> float:
    return math.log(10.0) / ((1.0 - c) / 2.0 * math.log(alpha))


def growth_slope(a, starts, trials: int, budget: int, seed: int) -> tuple:
    """Least-squares slope of the mean escape time against log10(1 / sigma~0)
    over ``starts``, each start from w0 = 0 on its own master seed, and its
    standard error from the per-start sample variances; also the number of
    trials that did not escape."""
    x, means, variances, failed = [], [], [], 0
    for i, sigma0 in enumerate(starts):
        stats = run_escape_experiment(EscapeExperimentSpec(
            problem=make(a), params=EsParams(alpha=1.5), w0=0.0, sigma_tilde0=sigma0,
            trials=trials, budget=budget, master_seed=seed + i))
        x.append(-math.log10(sigma0))
        means.append(stats.times.mean())
        variances.append(stats.times.var(ddof=1) / trials)
        failed += trials - stats.n_escaped
    dx = np.array(x) - np.mean(x)
    sxx = float(dx @ dx)
    return float(dx @ np.array(means)) / sxx, math.sqrt(dx ** 2 @ np.array(variances)) / sxx, failed


def test_criterion_12_small_sigma_growth_law(monkeypatch):
    t0 = time.perf_counter()
    ok = True
    details = []
    for ci, c in enumerate((0.25, 0.5, 0.75)):
        monkeypatch.setattr(es, "_FAILURE_EXPONENT", c)
        for ai, a in enumerate([(-1.0, 20.0), (-1.0, 100.0)]):
            slope, se, failed = growth_slope(a, GROWTH_STARTS, 1000, 1_000_000,
                                             MASTER_SEED ^ (12000 + 100 * ci + 10 * ai))
            z = (slope - growth_law(c)) / se
            ok &= failed == 0 and abs(z) <= 3.0
            details.append(f"c={c} a2={a[1]:g}: {slope:.2f}+-{se:.2f} (L={growth_law(c):.2f}, "
                           f"z={z:+.2f}, failed={failed})")
    report("12 small-sigma~ growth law (6 configs x 4 starts x 1000 trials)", ok,
           "; ".join(details) + f" elapsed={time.perf_counter() - t0:.1f}s")


def test_criterion_12_control_null_drift_fails(monkeypatch):
    # at c = 1 the walk of ln sigma has no drift and escape times grow far
    # faster than L(1/4) per decade; the budget censors some trials, which
    # only holds the slope down
    monkeypatch.setattr(es, "_FAILURE_EXPONENT", 1.0)
    slope, se, failed = growth_slope((-1.0, 20.0), (1e-3, 1e-6), 300, 5000,
                                     MASTER_SEED ^ 12900)
    z = (slope - growth_law(0.25)) / se
    report("12 control: a null step-size drift fails the growth-law gate", abs(z) > 3.0,
           f"c=1.0 a2=20: {slope:.1f}+-{se:.1f} per decade (L(1/4)={growth_law(0.25):.2f}, "
           f"z={z:+.2f}, failed={failed})")
