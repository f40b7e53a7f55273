import math

import numpy as np
import pytest

from saddle_es import (
    DEFAULT_SIGMA0_SWEEP,
    EscapeExperimentSpec,
    EsParams,
    EsState,
    GridSpec,
    SaddleProblem,
    default_budget,
    drift_map,
    fit_exponential_tail,
    post_escape_monotonicity,
    run,
    run_escape_experiment,
    run_sigma0_sweep,
    survival_curve,
    target_reached,
)
from saddle_es.es import TraceRecord


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


class TestSigma0Sweep:
    def test_default_sweep_points(self):
        assert DEFAULT_SIGMA0_SWEEP == (1e-3, 1e-1, 1.0, 10.0)

    def test_sweep_runs_each_point(self):
        results = run_sigma0_sweep(spec(trials=10), sigma0_values=(0.1, 1.0))
        assert set(results) == {0.1, 1.0}
        for stats in results.values():
            assert stats.n_escaped == 10


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


class TestPostEscapeMonotonicity:
    def _escaped_trace(self):
        p = problem()
        return p, run(p, EsParams(max_iters=100_000),
                      EsState(m=np.array([0.0, 1.0 / math.sqrt(20.0)]), sigma=1.0),
                      np.random.default_rng(11), stop=target_reached, record_every=1)

    def test_true_on_real_escape(self):
        p, trace = self._escaped_trace()
        assert trace.t_escape is not None
        assert post_escape_monotonicity(p, trace)

    def test_rejects_trace_without_escape(self):
        p = problem()
        trace = run(p, EsParams(max_iters=3),
                    EsState(m=np.array([0.0, 1.0]), sigma=1e-6),
                    np.random.default_rng(0))
        assert trace.t_escape is None
        with pytest.raises(ValueError):
            post_escape_monotonicity(p, trace)

    def test_false_on_injected_f_increase(self):
        p, trace = self._escaped_trace()
        last = trace.records[-1]
        trace.records.append(TraceRecord(t=last.t + 1, m=last.m * 0.5,
                                         sigma=last.sigma,
                                         f_value=last.f_value * 0.25,
                                         accepted=True))
        # still negative but larger than the escape value: 0.25*f > f for f < 0
        assert not post_escape_monotonicity(p, trace)

    def test_false_on_region_backslide(self):
        p, trace = self._escaped_trace()
        last = trace.records[-1]
        bad_m = np.array([0.0, 1.0])
        trace.records.append(TraceRecord(t=last.t + 1, m=bad_m, sigma=last.sigma,
                                         f_value=last.f_value, accepted=True))
        assert not post_escape_monotonicity(p, trace)


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


class TestDefaultBudget:
    def test_scales_with_conditioning(self):
        assert default_budget(problem((-1.0, 1.0))) == 100_000
        assert default_budget(problem((-1.0, 20.0))) == 200_000
        assert default_budget(problem((-1.0, 100.0))) == 1_000_000
