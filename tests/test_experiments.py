import ast
import math
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import MASTER_SEED

import saddle_es.es
import saddle_es.estimators
import saddle_es.objective
import saddle_es.tasks
from saddle_es import (
    BUDGET,
    EscapeExperimentSpec,
    EsParams,
    EsState,
    GridSpec,
    SaddleProblem,
    drift_map,
    drift_w,
    escape_times,
    fit_exponential_tail,
    run,
    run_escape_experiment,
    sample_M_plus_0,
    survival_curve,
    task_rng,
)
from saddle_es.es import TARGET, UNDERFLOW, _batch_trials
from saddle_es.estimators import _drifts, _increment
from saddle_es.experiments import _quantile, _survival
from saddle_es.serialize import drift_map_to_csv
from saddle_es.tasks import _map_tasks, _usable_cpus


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

    @pytest.mark.parametrize("field", ["w0", "sigma_tilde0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_start(self, field, value):
        with pytest.raises(ValueError, match=field):
            spec(**{field: value})

    @pytest.mark.parametrize("a,f", [((-1.0, 20.0), -1.1102230246251565e-16),
                                     ((-3.0, 7.0), -4.440892098500626e-16)])
    def test_rejects_shell_start_that_rounds_negative(self, a, f):
        # the shell point at w0 = 1 lies on the cone f = 0, and here rounding
        # puts it below: every trial would count as escaped at t = 0
        with pytest.raises(ValueError, match=rf"w0=1\.0 has f={f!r} < 0"):
            spec(a, w0=1.0)

    @pytest.mark.parametrize("a", [(-1.0, 100.0), (-1.0,) + (1.0,) * 99])
    def test_shell_start_that_rounds_nonnegative_runs(self, a):
        s = spec(a, w0=1.0, trials=10)
        assert s.problem.evaluate(s.initial_state().m) >= 0.0
        stats = run_escape_experiment(s)
        assert stats.n_escaped == 10 and min(stats.times) > 0

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
        assert not stats.to_dict()["premature_convergence_detected"]

    def test_counts_sum_to_trials(self):
        stats = run_escape_experiment(spec(budget=5))
        assert stats.n_escaped + stats.n_censored + stats.n_underflow == stats.trials

    def test_budget_one_censors(self):
        # a tiny relative step cannot cross the level set in one iteration
        stats = run_escape_experiment(spec(a=(-1.0, 100.0), sigma_tilde0=1e-3,
                                           budget=1, trials=20))
        assert stats.n_censored == 20
        assert stats.times.tolist() == [1] * 20

    def test_budget_replaces_params_max_iters(self):
        # from sigma~0 = 1e-12 the mean escape time is about 170, and no trial
        # can escape within 50 iterations
        stats = run_escape_experiment(spec(params=EsParams(max_iters=5), budget=50,
                                           sigma_tilde0=1e-12, trials=20))
        assert stats.n_censored == 20
        assert stats.times.tolist() == [50] * 20

    def test_start_inside_negative_region(self):
        stats = run_escape_experiment(spec(w0=1.2, trials=10))
        assert stats.n_escaped == 10
        assert stats.times.tolist() == [0] * 10

    def test_bit_identical_rerun(self):
        s = spec(trials=30)
        s1 = run_escape_experiment(s)
        s2 = run_escape_experiment(s)
        assert s1.times.tolist() == s2.times.tolist()
        assert s1.reasons == s2.reasons
        assert s1.to_dict() == s2.to_dict()

    def test_threads_do_not_change_results(self):
        s = spec(trials=24)
        seq = run_escape_experiment(s, threads=1)
        par = run_escape_experiment(s, threads=2)
        assert seq.times.tolist() == par.times.tolist()
        assert seq.reasons == par.reasons

    def test_master_seeds_give_distinct_escape_times(self):
        times = {tuple(np.sort(run_escape_experiment(
                     spec(a=(-1.0, 100.0), trials=200, master_seed=seed)).times))
                 for seed in range(8)}
        assert len(times) == 8

    def test_underflow_counted_separately(self, monkeypatch):
        # a floor just below sigma0 turns the first net shrink into underflow
        monkeypatch.setattr(saddle_es.es, "_SIGMA_MIN", 0.999)
        s = spec(trials=40, params=EsParams(alpha=1.5), sigma_tilde0=1.0)
        stats = run_escape_experiment(s)
        assert stats.n_underflow > 0
        assert stats.to_dict()["premature_convergence_detected"]
        assert stats.n_escaped + stats.n_censored + stats.n_underflow == 40

    def test_survival_curve_is_nonincreasing(self):
        stats = run_escape_experiment(spec(trials=200))
        assert np.all(np.diff(stats.survival_s) <= 0.0)
        assert stats.survival_s[0] <= 1.0

    def test_quantiles_present_for_escapes(self):
        stats = run_escape_experiment(spec(trials=100))
        assert set(stats.quantiles) == {"p10", "p50", "p90", "p99"}
        assert stats.quantiles["p10"] <= stats.quantiles["p99"]

    def test_quantiles_are_numpy_quantiles_of_escaped_times(self):
        stats = run_escape_experiment(spec(a=(-1.0, 100.0), trials=300, budget=20))
        escaped = stats.times[np.array(stats.reasons) == TARGET]
        assert stats.n_censored > 0 and escaped.size == stats.n_escaped
        # the sample tells the 0.99 quantile from the 0.999 one
        assert np.quantile(escaped, 0.99) != np.quantile(escaped, 0.999)
        assert stats.quantiles == {f"p{round(q * 100)}": float(np.quantile(escaped, q))
                                   for q in (0.1, 0.5, 0.9, 0.99)}


def run_per_trial(s):
    """(reason, time) of each trial from its own ``run``, as escape trials ran
    before the batched engine."""
    params = replace(s.params, max_iters=s.budget)
    traces = [run(s.problem, params, s.initial_state(), task_rng(s.master_seed, "trial", k),
                  record_every=0) for k in range(s.trials)]
    return [(trace.reason, trace.t_final) for trace in traces]


def batched(s, threads=1):
    stats = run_escape_experiment(s, threads=threads)
    return list(zip(stats.reasons, stats.times.tolist()))


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
        assert {reason for reason, _ in result} == {BUDGET}

    def test_underflow(self, monkeypatch):
        monkeypatch.setattr(saddle_es.es, "_SIGMA_MIN", 0.5)
        s = spec((-1.0, 1.0), params=EsParams(alpha=1.5), sigma_tilde0=0.55, trials=300)
        result = batched(s)
        assert result == run_per_trial(s)
        assert {reason for reason, _ in result} == {TARGET, UNDERFLOW}

    def test_start_inside_negative_region(self):
        s = spec(w0=1.2, trials=20)
        assert batched(s) == run_per_trial(s) == [(TARGET, 0)] * 20

    def test_d100(self):
        # distinct coefficients: no axis group is lumped into a radius
        s = spec((-1.0,) + tuple(1 + j / 1000 for j in range(99)), trials=300, budget=1_000_000,
                 master_seed=3)
        assert batched(s) == run_per_trial(s)

    # (a, sigma~0): a=(-1, 1, 1) lumps its last two axes into a radius; every
    # trial of a=(-1, 1 x 9) from sigma~0 = 1e-6 lives past t = 64, so it
    # draws the 64-row refills of a grown schedule
    @pytest.mark.parametrize("a,sigma0", [((-1.0, 1.0, 1.0), 1.0), ((-1.0,) + (1.0,) * 9, 1e-6)],
                             ids=["d3", "d10"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_grouped_trial_replays_on_its_stream(self, monkeypatch, threads, a, sigma0):
        # run does not replay a grouped problem's trials; the engine does, from
        # the trial's one stream, and batches of three give the same results
        s = spec(a, sigma_tilde0=sigma0, trials=60)
        stats = run_escape_experiment(s, threads=threads)
        params = replace(s.params, max_iters=s.budget)
        for k in range(s.trials):
            reasons, times = escape_times(s.problem, params, s.initial_state(),
                                          [task_rng(s.master_seed, "trial", k)])
            assert (reasons[0], times[0]) == (stats.reasons[k], stats.times[k])
        assert set(stats.reasons) == {TARGET}
        if sigma0 < 1.0:
            assert stats.times.min() > 64
        monkeypatch.setattr(saddle_es.es, "_batch_trials", lambda width: 3)
        assert batched(s, threads) == list(zip(stats.reasons, stats.times.tolist()))
        assert batched(s) != run_per_trial(s)

    def test_threads_with_partial_batch(self):
        # each worker runs one contiguous trial range; 7 and 1,061 trials split
        # unevenly over 2 and 3 workers, and 1,061 leaves a partly filled
        # last slice of streams
        for trials in (7, _batch_trials(2) + 37):
            s = spec(trials=trials)
            one = run_escape_experiment(s, threads=1)
            for threads in (2, 3):
                split = run_escape_experiment(s, threads=threads)
                assert split.reasons == one.reasons
                assert split.times.tolist() == one.times.tolist()
                assert split.to_dict() == one.to_dict()
                assert split.survival_t.tolist() == one.survival_t.tolist()
                assert split.survival_s.tolist() == one.survival_s.tolist()

    def test_streams_held_stay_bounded(self, monkeypatch):
        # a counting stream source: every generator derived for the engine is
        # wrapped, and a wrapper counts itself while anything holds it
        size = _batch_trials(2)
        s = spec(trials=10 * size)
        expected = batched(s)
        held = {"now": 0, "peak": 0}
        chunks = []
        derive = saddle_es.tasks._task_rngs

        class Counted:
            def __init__(self, rng):
                self.rng = rng
                held["now"] += 1
                held["peak"] = max(held["peak"], held["now"])

            def __del__(self):
                held["now"] -= 1

            def standard_normal(self, *args, **kwargs):
                return self.rng.standard_normal(*args, **kwargs)

        def counted(*args):
            rngs = derive(*args)
            chunks.append(len(rngs))
            return [Counted(rng) for rng in rngs]

        monkeypatch.setattr(saddle_es.tasks, "_task_rngs", counted)
        assert batched(s) == expected
        # one batch's streams, never all 10,240: none outlives its batch
        assert sum(chunks) == s.trials and max(chunks) <= size
        assert held["peak"] <= size


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
        fit = fit_exponential_tail(t, s)
        assert fit.rate == pytest.approx(-math.log(1 - q), rel=0.05)
        assert fit.r_squared > 0.99
        assert fit.rate >= 0.0

    def test_sorted_readings_equal_numpy_bitwise(self):
        # the escape summary reads its quantiles and survival curve off one sort
        # instead of calling np.quantile and np.unique, which load numpy.ma
        rng = np.random.default_rng(31)
        qs = [0.1, 0.5, 0.9, 0.99, 0.0, 1.0, *rng.random(4)]
        for n in (1, 2, 3, 7, 100, 1001):
            for high in (3, 10**6):    # heavy ties, then mostly distinct times
                times = rng.integers(1, high, size=n)
                escaped = np.sort(times)
                for q in qs:
                    got = _quantile(escaped, float(q))
                    assert got.hex() == float(np.quantile(times, q)).hex(), (n, high, q)
                t, s = _survival(escaped, n + 5)
                t_values = np.unique(times)
                counts = np.searchsorted(escaped, t_values, side="right")
                assert np.array_equal(t, t_values) and t.dtype == int
                assert np.array_equal(s, 1.0 - counts / (n + 5))

    def test_too_few_points_gives_nan(self):
        fit = fit_exponential_tail(np.array([1, 2]), np.array([0.4, 0.2]))
        assert math.isnan(fit.rate)
        assert fit.n_points == 2

    def test_fit_range_is_fixed_and_closed(self):
        # the fit takes the points with 0.01 <= S <= 0.5, both ends included, and
        # its record writes that range
        s = np.array([0.6, 0.5, 0.3, 0.1, 0.05, 0.01, 0.005])
        fit = fit_exponential_tail(np.arange(1, 8), s)
        assert fit.n_points == 5
        assert fit.to_dict()["s_range"] == [0.01, 0.5]


class TestDriftMap:
    GRID = GridSpec(w_values=np.array([0.0, 0.5, 1.0]),
                    sigma_values=np.geomspace(1e-3, 1e2, 8))

    def test_shape_and_order(self):
        rows = drift_map(problem(), EsParams(), "W", grid=self.GRID, n=2000,
                         master_seed=3)
        assert len(rows) == 3 * 8
        assert [r.w for r in rows[:8]] == [0.0] * 8
        assert [r.sigma_tilde for r in rows[:8]] == self.GRID.sigma_values.tolist()

    @pytest.mark.parametrize("quantity", ["V", "W", "Phi"])
    def test_reproducible_and_thread_invariant(self, quantity):
        # threads=2 runs the rows on forked workers, which send back only the estimates
        kw = dict(grid=self.GRID, n=2000, master_seed=4, beta=0.3 if quantity == "Phi" else None)
        r1 = drift_map(problem(), EsParams(), quantity, threads=1, **kw)
        r2 = drift_map(problem(), EsParams(), quantity, threads=2, **kw)
        assert r1 == r2

    @pytest.mark.parametrize("quantity", ["V", "W", "Phi"])
    def test_rows_equal_point_estimators_on_row_streams(self, quantity):
        # every point of a row replays the row's draws at its own sigma~
        p, params = problem(), EsParams()
        beta = 0.3 if quantity == "Phi" else None
        rows = drift_map(p, params, quantity, grid=self.GRID, n=2000, master_seed=8, beta=beta)
        for k, row in enumerate(rows):
            i, j = divmod(k, 8)
            ns = EsState(sample_M_plus_0(p, float(self.GRID.w_values[i])),
                         float(self.GRID.sigma_values[j]))
            _, (est,) = _drifts(p, params, ns.m, [ns.sigma], 2000,
                                task_rng(8, "row", i), (_increment(quantity, beta),))[0]
            assert (row.w, row.sigma_tilde, row.est) == (
                self.GRID.w_values[i], self.GRID.sigma_values[j], est)
            if quantity == "W":
                # the public one-sigma entry gives the map's point, bit for bit
                assert drift_w(p, params, ns, 2000, task_rng(8, "row", i)) == row.est

    @pytest.mark.parametrize("quantity", ["V", "W"])
    def test_thread_invariant_bytes_at_d100(self, quantity, tmp_path):
        # above d=2 f and norm_plus sum several columns, in a fixed order
        grid = GridSpec(w_values=np.array([0.0, 1.0]), sigma_values=self.GRID.sigma_values)
        files = []
        for threads in (1, 2):
            rows = drift_map(problem((-1.0,) + (1.0,) * 99), EsParams(), quantity, grid=grid,
                             n=1000, master_seed=9, threads=threads)
            drift_map_to_csv(rows, tmp_path / f"map{threads}.csv")
            files.append((tmp_path / f"map{threads}.csv").read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("beta", [None, 0.3])
    def test_quantity_validation(self, beta):
        # an unknown quantity is reported as such, with or without beta
        with pytest.raises(ValueError, match="^quantity must be one of V, W, Phi$"):
            drift_map(problem(), EsParams(), "X", grid=self.GRID, n=2000, beta=beta)

    @pytest.mark.parametrize("quantity", ["Phi", "phi"])
    def test_phi_requires_beta(self, quantity):
        with pytest.raises(ValueError, match="a Phi map needs beta"):
            drift_map(problem(), EsParams(), quantity, grid=self.GRID, n=2000, master_seed=5)
        rows = drift_map(problem(), EsParams(), quantity, grid=self.GRID, n=2000,
                         master_seed=5, beta=0.0)
        assert rows == drift_map(problem(), EsParams(), "W", grid=self.GRID, n=2000,
                                 master_seed=5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_nonfinite_beta_rejected_before_any_row(self, beta, monkeypatch):
        # a Phi map drew every row with such a beta and then failed on a NaN stderr
        def no_tasks(*args):
            raise AssertionError("a grid row ran")

        monkeypatch.setattr("saddle_es.experiments._map_tasks", no_tasks)
        with pytest.raises(ValueError, match=f"^beta must be finite, got {beta}$"):
            drift_map(problem(), EsParams(), "Phi", grid=self.GRID, n=2000, beta=beta)

    @pytest.mark.parametrize("quantity", ["V", "W", "w"])
    @pytest.mark.parametrize("beta", [0.0, 5.0, -1.0, math.nan])
    def test_beta_without_phi_rejected_before_any_row(self, quantity, beta, monkeypatch):
        # a V or W map ignored beta, so a run meant as a Phi map got a W map
        def no_tasks(*args):
            raise AssertionError("a grid row ran")

        monkeypatch.setattr("saddle_es.experiments._map_tasks", no_tasks)
        message = f"^beta weights V in a Phi map only; a {quantity} map takes none$"
        with pytest.raises(ValueError, match=message):
            drift_map(problem(), EsParams(), quantity, grid=self.GRID, n=2000, beta=beta)

    def test_case_insensitive_quantity(self):
        kw = dict(grid=self.GRID, n=2000, master_seed=6)
        assert drift_map(problem(), EsParams(), "w", **kw) == \
               drift_map(problem(), EsParams(), "W", **kw)



class TwoArgError(Exception):
    """Pickles, but unpickling calls TwoArgError(a) and fails."""

    def __init__(self, a, b):
        super().__init__(a)


class TestMapTasks:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers that _map_tasks forks; conftest's autouse
        fixture fails a test that leaves any of them running or unreaped."""
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.mark.parametrize("threads, n_tasks", [(1000, 3), (3, 7), (2, 40)])
    def test_one_worker_per_task_up_to_threads(self, forks, threads, n_tasks):
        # worker w runs tasks w, w + workers, ...; uneven shares keep task order
        results = _map_tasks(lambda k: (k * k, os.getpid()), list(range(n_tasks)), threads)
        workers = min(threads, n_tasks)
        assert len(forks) == workers
        assert results == [(k * k, forks[k % workers]) for k in range(n_tasks)]

    def test_single_task_or_thread_runs_inline(self, forks):
        assert _map_tasks(str, [5], threads=8) == ["5"]
        assert _map_tasks(str, [5, 6], threads=1) == ["5", "6"]
        assert forks == []

    def test_lowest_failing_task_is_raised(self, forks):
        # task 3 fails in worker 0, which is read first; task 1 fails in worker 1
        def task(k):
            if k in (1, 3):
                raise KeyError(k)
            return k

        with pytest.raises(KeyError) as info:
            _map_tasks(task, list(range(7)), threads=3)
        assert info.value.args == (1,)
        assert len(forks) == 3

    @pytest.mark.parametrize("where", ["local", "module"])
    def test_exception_that_does_not_pickle_is_sent_as_its_repr(self, forks, where):
        # a local class does not pickle; TwoArgError pickles but does not unpickle
        class LocalError(TwoArgError):
            pass

        error = {"local": LocalError, "module": TwoArgError}[where]

        def task(k):
            raise error(k, "b")

        with pytest.raises(RuntimeError, match=rf"^{error.__name__}\(0\)$"):
            _map_tasks(task, [0, 1], threads=2)

    def test_worker_killed_without_a_result_is_named(self, forks):
        def task(k):
            if k == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return k

        with pytest.raises(RuntimeError, match=r"worker 1 of 2 ended without a result "
                                               r"\(killed by signal 9\)"):
            _map_tasks(task, list(range(4)), threads=2)

    def test_workers_hold_no_read_end(self, forks, monkeypatch):
        # a worker holding a read end would block forever on a result larger
        # than the pipe's buffer once the parent died
        read_fds, pipe = [], os.pipe

        def recorded_pipe():
            fds = pipe()
            read_fds.append(fds[0])
            return fds

        def open_read_fds(k):
            still_open = []
            for fd in read_fds:
                try:
                    os.fstat(fd)
                except OSError:
                    continue
                still_open.append(fd)
            return still_open

        monkeypatch.setattr(os, "pipe", recorded_pipe)
        assert _map_tasks(open_read_fds, [0, 1, 2], threads=3) == [[], [], []]
        assert len(read_fds) == 3

    def test_interrupt_kills_and_reaps_the_workers(self, forks):
        class Interrupt(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Interrupt):
                _map_tasks(time.sleep, [60, 60], threads=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert len(forks) == 2

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    @pytest.mark.parametrize("threads", [0, -4])
    @pytest.mark.parametrize("tasks", [[], [5], [5, 6, 7]])
    def test_threads_below_one_rejected(self, forks, threads, tasks):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            _map_tasks(str, tasks, threads=threads)
        assert forks == []


def test_tasks_module_imports_no_saddle_es_module():
    # estimators and experiments import tasks, so an import back would be a cycle
    tree = ast.parse(Path(saddle_es.tasks.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "numpy" in modules
    assert not [m for m in modules if m.startswith((".", "saddle_es"))], modules


@pytest.mark.parametrize("module", [saddle_es.objective, saddle_es.estimators])
def test_sample_kernel_makes_no_blas_call(module):
    # BLAS starts helper threads that compete with the forked workers for the
    # cores, and its rounding of a point depends on the batch around it
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            calls.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in {"dot", "matmul", "inner", "vdot", "tensordot"}:
                calls.append(f"line {node.lineno}: {name}")
    assert not calls, calls
