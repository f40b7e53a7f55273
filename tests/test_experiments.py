import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import MASTER_SEED

from saddle_es import (
    BUDGET,
    EscapeExperimentSpec,
    EsParams,
    GridSpec,
    SaddleProblem,
    drift_map,
    fit_exponential_tail,
    run,
    run_escape_experiment,
    survival_curve,
    task_rng,
)
from saddle_es.es import TARGET, UNDERFLOW, _batch_trials
from saddle_es.experiments import _map_tasks


def problem(a=(-1.0, 20.0), b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


def spec(a=(-1.0, 20.0), **kw):
    defaults = dict(problem=problem(a), params=EsParams(alpha=1.5),
                    w0=0.0, sigma_tilde0=1.0, trials=50, budget=100_000,
                    master_seed=7)
    defaults.update(kw)
    return EscapeExperimentSpec(**defaults)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            spec(trials=0)
        with pytest.raises(ValueError):
            spec(budget=0)
        with pytest.raises(ValueError):
            spec(sigma_tilde0=0.0)
        with pytest.raises(ValueError):
            spec(w0=-0.5)
        with pytest.raises(ValueError):
            spec(master_seed=-1)

    def test_initial_state_on_shell(self):
        s = spec(w0=0.5)
        p = s.problem
        m0 = s.initial_state().m
        assert p.norm_plus(m0) == pytest.approx(1.0, rel=1e-12)
        assert p.norm_minus(m0) == pytest.approx(0.5, rel=1e-12)


class TestEscapeExperiment:
    def test_all_trials_escape(self):
        stats = run_escape_experiment(spec())
        assert stats.n_escaped == stats.trials == 50
        assert stats.escape_fraction == 1.0
        assert stats.n_underflow == 0
        assert not stats.premature_convergence_detected

    def test_counts_sum_to_trials(self):
        stats = run_escape_experiment(spec(budget=5))
        assert stats.n_escaped + stats.n_censored + stats.n_underflow == stats.trials

    def test_budget_one_censors(self):
        # a tiny relative step cannot cross the level set in one iteration
        stats = run_escape_experiment(spec(a=(-1.0, 100.0), sigma_tilde0=1e-3,
                                           budget=1, trials=20))
        assert stats.n_censored == 20
        assert stats.times.tolist() == [1] * 20

    def test_start_inside_negative_region(self):
        stats = run_escape_experiment(spec(w0=1.2, trials=10))
        assert stats.n_escaped == 10
        assert stats.times.tolist() == [0] * 10

    def test_bit_identical_rerun(self):
        s = spec(trials=30)
        s1 = run_escape_experiment(s)
        s2 = run_escape_experiment(s)
        assert s1.times.tolist() == s2.times.tolist()
        assert s1.statuses == s2.statuses
        assert s1.to_dict() == s2.to_dict()

    def test_threads_do_not_change_results(self):
        s = spec(trials=24)
        seq = run_escape_experiment(s, threads=1)
        par = run_escape_experiment(s, threads=2)
        assert seq.times.tolist() == par.times.tolist()
        assert seq.statuses == par.statuses

    def test_master_seeds_give_distinct_escape_times(self):
        times = {tuple(np.sort(run_escape_experiment(
                     spec(a=(-1.0, 100.0), trials=200, master_seed=seed)).times))
                 for seed in range(8)}
        assert len(times) == 8

    def test_underflow_counted_separately(self):
        # sigma_min just below sigma0 turns the first net shrink into underflow
        s = spec(trials=40, params=EsParams(alpha=1.5, sigma_min=0.999),
                 sigma_tilde0=1.0)
        stats = run_escape_experiment(s)
        assert stats.n_underflow > 0
        assert stats.premature_convergence_detected
        assert stats.n_escaped + stats.n_censored + stats.n_underflow == 40

    def test_survival_curve_is_nonincreasing(self):
        stats = run_escape_experiment(spec(trials=200))
        assert np.all(np.diff(stats.survival_s) <= 0.0)
        assert stats.survival_s[0] <= 1.0

    def test_quantiles_present_for_escapes(self):
        stats = run_escape_experiment(spec(trials=100))
        assert set(stats.quantiles) == {"p10", "p50", "p90", "p99"}
        assert stats.quantiles["p10"] <= stats.quantiles["p99"]


def run_per_trial(s):
    """(status, time) of each trial from its own ``run``, as escape trials ran
    before the batched engine."""
    params = replace(s.params, max_iters=s.budget)
    out = []
    for k in range(s.trials):
        trace = run(s.problem, params, s.initial_state(), task_rng(s.master_seed, "trial", k),
                    record_every=0)
        out.append({TARGET: ("escaped", trace.t_escape),
                    UNDERFLOW: ("underflow", trace.t_final),
                    BUDGET: ("censored", s.budget)}[trace.reason])
    return out


def batched(s, threads=1):
    stats = run_escape_experiment(s, threads=threads)
    return list(zip(stats.statuses, stats.times.tolist()))


class TestEngineMatchesRun:
    @pytest.mark.parametrize("ai,a", enumerate([(-1.0, 1.0), (-1.0, 20.0), (-1.0, 100.0)]))
    def test_criterion_8_configs(self, ai, a):
        for si, sigma0 in enumerate((1e-3, 1.0, 10.0)):
            s = spec(a, sigma_tilde0=sigma0, trials=1000, budget=1_000_000,
                     master_seed=MASTER_SEED ^ (8000 + 10 * ai + si))
            assert batched(s) == run_per_trial(s)

    def test_criterion_9(self):
        s = spec((-1.0, 100.0), trials=10_000, budget=1_000_000, master_seed=MASTER_SEED ^ 9000)
        assert batched(s) == run_per_trial(s)

    def test_censored(self):
        s = spec((-1.0, 100.0), sigma_tilde0=1e-3, budget=5, trials=200)
        result = batched(s)
        assert result == run_per_trial(s)
        assert {status for status, _ in result} == {"censored"}

    def test_underflow(self):
        s = spec((-1.0, 1.0), params=EsParams(alpha=1.5, sigma_min=0.5), sigma_tilde0=0.55,
                 trials=300)
        result = batched(s)
        assert result == run_per_trial(s)
        assert {status for status, _ in result} == {"escaped", "underflow"}

    def test_start_inside_negative_region(self):
        s = spec(w0=1.2, trials=20)
        assert batched(s) == run_per_trial(s) == [("escaped", 0)] * 20

    def test_d100(self):
        s = spec((-1.0,) + (1.0,) * 99, trials=300, budget=1_000_000, master_seed=3)
        assert batched(s) == run_per_trial(s)

    def test_threads_with_partial_batch(self):
        s = spec(trials=_batch_trials(2) + 37)
        one = run_escape_experiment(s, threads=1)
        two = run_escape_experiment(s, threads=2)
        assert one.statuses == two.statuses
        assert one.times.tolist() == two.times.tolist()
        assert one.to_dict() == two.to_dict()
        assert one.survival_rows() == two.survival_rows()


class TestSurvivalAndTail:
    def test_survival_values(self):
        times = np.array([1, 1, 2, 5])
        t, s = survival_curve(times, np.array([True, True, True, True]))
        assert t.tolist() == [1, 2, 5]
        assert s.tolist() == [0.5, 0.25, 0.0]

    def test_censored_trials_hold_curve_up(self):
        times = np.array([1, 10_000])
        t, s = survival_curve(times, np.array([True, False]))
        assert t.tolist() == [1]
        assert s.tolist() == [0.5]

    def test_geometric_tail_recovered(self):
        rng = np.random.default_rng(0)
        q = 0.05
        times = rng.geometric(q, size=20_000)
        t, s = survival_curve(times, np.ones(times.size, dtype=bool))
        fit = fit_exponential_tail(t, s, (0.01, 0.5))
        assert fit.rate == pytest.approx(-math.log(1 - q), rel=0.05)
        assert fit.r_squared > 0.99
        assert fit.rate >= 0.0

    def test_too_few_points_gives_nan(self):
        fit = fit_exponential_tail(np.array([1, 2]), np.array([0.4, 0.2]))
        assert math.isnan(fit.rate)
        assert fit.n_points == 2

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_tail(np.array([1, 2, 3]), np.array([0.5, 0.4, 0.3]),
                                 s_range=(0.5, 0.1))


class TestDriftMap:
    GRID = GridSpec(w_values=np.array([0.0, 0.5, 1.0]),
                    sigma_values=np.geomspace(1e-3, 1e2, 8))

    def test_shape_and_order(self):
        rows = drift_map(problem(), EsParams(), "W", grid=self.GRID, n=2000,
                         master_seed=3)
        assert len(rows) == 3 * 8
        assert [r.w for r in rows[:8]] == [0.0] * 8
        assert [r.sigma_tilde for r in rows[:8]] == self.GRID.sigma_values.tolist()

    def test_reproducible_and_thread_invariant(self):
        kw = dict(grid=self.GRID, n=2000, master_seed=4)
        r1 = drift_map(problem(), EsParams(), "V", threads=1, **kw)
        r2 = drift_map(problem(), EsParams(), "V", threads=2, **kw)
        assert r1 == r2

    def test_quantity_validation(self):
        with pytest.raises(ValueError):
            drift_map(problem(), EsParams(), "X", grid=self.GRID, n=2000)

    def test_phi_uses_fallback_beta(self):
        rows = drift_map(problem(), EsParams(), "Phi", grid=self.GRID, n=2000,
                         master_seed=5)
        assert len(rows) == 24

    def test_case_insensitive_quantity(self):
        kw = dict(grid=self.GRID, n=2000, master_seed=6)
        assert drift_map(problem(), EsParams(), "w", **kw) == \
               drift_map(problem(), EsParams(), "W", **kw)



class TestMapTasks:
    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its sizes, maps in this process."""

        made = []

        def __init__(self, max_workers, mp_context):
            self.max_workers = max_workers
            self.made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            self.chunksize = chunksize
            return map(fn, iterable)

    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.SerialPool)
        self.SerialPool.made = []
        return self.SerialPool.made

    def test_no_more_workers_than_tasks(self, pools):
        # a fork pool starts all max_workers processes at the first submit
        assert _map_tasks(lambda x: x * x, [1, 2, 3], threads=1000) == [1, 4, 9]
        assert [(p.max_workers, p.chunksize) for p in pools] == [(3, 1)]

    def test_chunks_follow_worker_count(self, pools):
        assert _map_tasks(lambda x: -x, list(range(40)), threads=2) == [-x for x in range(40)]
        assert [(p.max_workers, p.chunksize) for p in pools] == [(2, 2)]

    def test_single_task_or_thread_runs_inline(self, pools):
        assert _map_tasks(str, [5], threads=8) == ["5"]
        assert _map_tasks(str, [5, 6], threads=1) == ["5", "6"]
        assert pools == []
