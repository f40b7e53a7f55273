from dataclasses import replace

import numpy as np
import pytest

from saddle_es import (
    BUDGET,
    TARGET,
    UNDERFLOW,
    EsParams,
    EsState,
    SaddleProblem,
    escape_times,
    run,
)
from saddle_es.es import _f


def problem(a=(-1.0, 1.0), b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


class FixedDraws:
    """Stand-in generator whose every draw vector is a chosen z; for exact-value tests."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.broadcast_to(self.z, size).copy()
        out[...] = self.z
        return out


def one_step(p, params, state, rng):
    """run for exactly one iteration; returns (accepted, final state)."""
    trace = run(p, replace(params, max_iters=1), state, rng, stop=None, record_every=1)
    return trace.n_accepts == 1, trace.final_state


class TestParamsAndState:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            EsParams(alpha=1.0)
        with pytest.raises(ValueError):
            EsParams(alpha=0.5)

    def test_sigma_min_positive(self):
        with pytest.raises(ValueError):
            EsParams(sigma_min=0.0)

    def test_state_sigma_positive(self):
        with pytest.raises(ValueError):
            EsState(m=np.zeros(2), sigma=0.0)


class TestSampleOffspring:
    # the offspring m + sigma * z is observable as the new mean when it is accepted
    @staticmethod
    def expected_mean(p, state, z):
        x = state.m + state.sigma * z
        return x if p.evaluate(x) <= p.evaluate(state.m) else state.m

    def test_affine_transform_of_draws(self):
        p = problem()
        state = EsState(m=np.array([3.0, 2.0]), sigma=0.5)
        for seed in range(11, 21):
            z = np.random.default_rng(seed).standard_normal(2)
            _, new = one_step(p, EsParams(), state, np.random.default_rng(seed))
            assert np.array_equal(new.m, self.expected_mean(p, state, z))

    def test_zero_mean_unit_sigma_returns_draws(self):
        p = problem()
        accepted = 0
        for seed in range(12, 22):
            z = np.random.default_rng(seed).standard_normal(2)
            acc, new = one_step(p, EsParams(), EsState(m=np.zeros(2), sigma=1.0),
                                np.random.default_rng(seed))
            assert np.array_equal(new.m, z if acc else np.zeros(2))
            accepted += acc
        assert 0 < accepted < 10

    def test_degenerate_sigma_limit(self):
        # sigma > 0 is required, but the affine contract sends offspring -> m
        state = EsState(m=np.array([3.0, 2.0]), sigma=1e-300)
        _, new = one_step(problem(), EsParams(sigma_min=1e-310), state,
                          np.random.default_rng(13))
        assert new.m == pytest.approx(state.m, abs=1e-290)

    def test_consumes_exactly_d_draws(self):
        # iteration t reads normals t*d .. t*d + d-1 of the stream
        p = problem((-1.0, 20.0, 5.0))
        state = EsState(m=np.array([0.1, 0.2, 0.3]), sigma=0.5)
        trace = run(p, EsParams(max_iters=3), state, np.random.default_rng(14), stop=None,
                    record_every=1)
        z = np.random.default_rng(14).standard_normal((3, 3))
        for rec, zt in zip(trace.records[1:], z):
            m = self.expected_mean(p, state, zt)
            sigma = state.sigma * (1.5 if rec.accepted else 1.5 ** -0.25)
            state = EsState(m=m, sigma=sigma, t=state.t + 1)
            assert np.array_equal(rec.m, state.m)
            assert rec.sigma == state.sigma


class TestStep:
    def test_reject_shrinks_by_quarter_power(self):
        p = problem()
        params = EsParams(alpha=2.0)
        # mean far inside the positive region with a tiny relative step size:
        # find a seed whose first draw is rejected
        state = EsState(m=np.array([0.0, 1.0]), sigma=0.1)
        for seed in range(100):
            accepted, new = one_step(p, params, state, np.random.default_rng(seed))
            if not accepted:
                break
        assert not accepted
        assert new.sigma == pytest.approx(2.0 ** -0.25 * 0.1, rel=1e-15)
        assert np.array_equal(new.m, state.m)

    def test_accept_grows_by_alpha(self):
        p = problem()
        params = EsParams(alpha=2.0)
        state = EsState(m=np.array([0.0, 1.0]), sigma=0.1)
        for seed in range(100):
            accepted, new = one_step(p, params, state, np.random.default_rng(seed))
            if accepted:
                break
        assert accepted
        assert new.sigma == 0.2
        z = np.random.default_rng(seed).standard_normal(2)
        assert np.array_equal(new.m, state.m + 0.1 * z)

    def test_exact_tie_counts_as_success(self):
        # offspring (1.5, 1.5) has f = 0 exactly, tying f(m) = 0
        p = problem()
        params = EsParams(alpha=2.0)
        state = EsState(m=np.array([1.0, 1.0]), sigma=1.0)
        accepted, new = one_step(p, params, state, FixedDraws([0.5, 0.5]))
        assert accepted
        assert new.sigma == 2.0
        assert np.array_equal(new.m, [1.5, 1.5])

    def test_fixed_draw_offspring(self):
        # f(4, 2) = -12 <= f(3, 2) = -5, so the offspring becomes the mean
        accepted, new = one_step(problem(), EsParams(alpha=2.0),
                                 EsState(m=np.array([3.0, 2.0]), sigma=0.5),
                                 FixedDraws([2.0, 0.0]))
        assert accepted
        assert np.array_equal(new.m, [4.0, 2.0])

    def test_one_accept_four_rejects_balances(self):
        # chain real steps until exactly 1 accept and 4 rejects were applied,
        # re-rolling the seed whenever a step would exceed either quota
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=2.0)
        state = EsState(m=np.array([0.0, 1.0]), sigma=1.0)
        accepts = rejects = seed = 0
        while accepts < 1 or rejects < 4:
            accepted, new = one_step(p, params, state, np.random.default_rng(seed))
            seed += 1
            if (accepted and accepts >= 1) or (not accepted and rejects >= 4):
                continue
            accepts += accepted
            rejects += not accepted
            state = new
        assert state.sigma == pytest.approx(1.0, rel=1e-12)

    def test_iteration_counter_advances(self):
        p = problem()
        _, new = one_step(p, EsParams(), EsState(m=np.array([0.0, 1.0]), sigma=1.0, t=7),
                          np.random.default_rng(0))
        assert new.t == 8

    def test_underflow_precondition(self):
        p = problem()
        params = EsParams(sigma_min=1.0)
        with pytest.raises(ValueError):
            one_step(p, params, EsState(m=np.array([0.0, 1.0]), sigma=0.5),
                     np.random.default_rng(0))


class TestRun:
    def test_budget_zero_keeps_initial_state_only(self):
        p = problem()
        trace = run(p, EsParams(max_iters=0), EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                    np.random.default_rng(0))
        assert trace.reason == BUDGET
        assert len(trace.records) == 1
        assert trace.t_final == 0

    def test_initial_state_already_negative(self):
        p = problem()
        trace = run(p, EsParams(), EsState(m=np.array([2.0, 1.0]), sigma=1.0),
                    np.random.default_rng(0))
        assert trace.reason == TARGET
        assert trace.t_final == 0
        assert trace.t_escape == 0

    def test_escapes_for_many_seeds(self):
        p = problem()
        params = EsParams(max_iters=100_000)
        for seed in range(50):
            trace = run(p, params, EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                        np.random.default_rng(seed))
            assert trace.reason == TARGET
            assert p.evaluate(trace.final_state.m) < 0.0

    def test_matches_manual_stepping(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5, max_iters=200)
        init = EsState(m=np.array([0.3, 0.2]), sigma=0.7)
        trace = run(p, params, init, np.random.default_rng(99), stop=None, record_every=1)

        # reference loop: one offspring per iteration from d fresh normals
        m, sigma = init.m, init.sigma
        rng = np.random.default_rng(99)
        for t, rec in enumerate(trace.records[1:], 1):
            x = m + sigma * rng.standard_normal(2)
            accepted = p.evaluate(x) <= p.evaluate(m)
            m, sigma = (x, sigma * 1.5) if accepted else (m, sigma * 1.5 ** -0.25)
            assert rec.t == t
            assert np.array_equal(rec.m, m)
            assert rec.sigma == sigma
            assert rec.accepted == accepted
        assert t == 200

    def test_elitism_monotonicity(self):
        p = problem((-1.0, 20.0))
        for seed in range(20):
            trace = run(p, EsParams(max_iters=2000), EsState(m=np.array([0.0, 0.5]), sigma=0.3),
                        np.random.default_rng(seed), record_every=1)
            f = trace.f_values()
            assert np.all(np.diff(f) <= 0.0)

    def test_region_monotonicity(self):
        p = problem((-1.0, 20.0))
        for seed in range(20):
            trace = run(p, EsParams(max_iters=2000), EsState(m=np.array([0.0, 0.5]), sigma=0.3),
                        np.random.default_rng(seed), record_every=1)
            ranks = [p.classify(r.m).value for r in trace.records]
            assert np.all(np.diff(ranks) <= 0)

    def test_step_size_ledger(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5, max_iters=3000)
        init = EsState(m=np.array([0.0, 0.5]), sigma=0.25)
        trace = run(p, params, init, np.random.default_rng(5), stop=None)
        lhs = np.log(trace.final_state.sigma) - np.log(init.sigma)
        rhs = (trace.n_accepts - 0.25 * trace.n_rejects) * np.log(params.alpha)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_coupled_scale_invariance(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5, max_iters=500)
        rng_spec = np.random.default_rng(17)
        for _ in range(10):
            m0 = rng_spec.standard_normal(2)
            if p.norm_plus(m0) == 0.0:
                continue
            sigma0 = float(rng_spec.uniform(0.1, 2.0))
            c = float(rng_spec.uniform(1e-3, 1e3))
            t1 = run(p, params, EsState(m=m0, sigma=sigma0),
                     np.random.default_rng(1234), stop=None, record_every=1)
            t2 = run(p, params, EsState(m=c * m0, sigma=c * sigma0),
                     np.random.default_rng(1234), stop=None, record_every=1)
            assert len(t1.records) == len(t2.records)
            for r1, r2 in zip(t1.records, t2.records):
                assert r1.accepted == r2.accepted
                np.testing.assert_allclose(c * r1.m, r2.m, rtol=1e-9, atol=1e-12)
                assert c * r1.sigma == pytest.approx(r2.sigma, rel=1e-9)

    def test_underflow_terminates_with_reason(self):
        p = problem((-1.0, 20.0))
        # sigma_min just below sigma0: a single net shrink ends the run
        params = EsParams(alpha=1.5, max_iters=10_000, sigma_min=0.999)
        for seed in range(50):
            trace = run(p, params, EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                        np.random.default_rng(seed))
            if trace.reason == UNDERFLOW:
                assert trace.final_state.sigma < params.sigma_min
                break
        else:
            pytest.fail("no underflow observed in 50 seeds")

    def test_decimated_trace_contains_accepts_and_final(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5, max_iters=400)
        trace = run(p, params, EsState(m=np.array([0.0, 0.5]), sigma=0.2),
                    np.random.default_rng(3), stop=None, record_every=100)
        ts = [r.t for r in trace.records]
        assert ts == sorted(ts)
        accept_ts = [r.t for r in trace.records if r.accepted]
        assert len(accept_ts) == trace.n_accepts
        assert trace.records[-1].t == trace.t_final == 400

    def test_custom_stop_condition(self):
        p = problem()
        stop = lambda prob, state: state.sigma > 10.0
        trace = run(p, EsParams(alpha=2.0, max_iters=10_000),
                    EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                    np.random.default_rng(8), stop=stop)
        assert trace.reason == TARGET
        assert trace.final_state.sigma > 10.0

    def test_dimension_mismatch_rejected(self):
        p = problem()
        with pytest.raises(ValueError):
            run(p, EsParams(), EsState(m=np.zeros(3), sigma=1.0), np.random.default_rng(0))


class TestEscapeTimes:
    @pytest.mark.parametrize("d", [2, 3, 8, 9, 17, 100])
    def test_f_bits_do_not_depend_on_row_count(self, d):
        rng = np.random.default_rng(d)
        a = rng.uniform(-5.0, 50.0, size=d)
        for n in (1, 7, 3000):
            sq = np.square(rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3))
            rows = np.array([_f(row, a) for row in sq])
            assert np.array_equal(_f(sq, a), rows)

    def test_matches_run_on_each_stream(self):
        # all three terminal reasons occur; the budget of 20 ends mid-block and
        # the iteration counter starts at 5
        p = problem((-1.0, 20.0, 5.0))
        params = EsParams(max_iters=20, sigma_min=0.2)
        init = EsState(m=np.array([0.1, 0.5, 0.2]), sigma=0.3, t=5)
        reasons, times = escape_times(p, params, init,
                                      [np.random.default_rng(s) for s in range(200)])
        expected = []
        for s in range(200):
            trace = run(p, params, init, np.random.default_rng(s), record_every=0)
            expected.append((trace.reason, trace.t_final))
        assert list(zip(reasons, times.tolist())) == expected
        assert set(reasons) == {TARGET, BUDGET, UNDERFLOW}

    def test_exact_ties_accept(self):
        # every offspring m + sigma * (0.5, 0.5) from (1, 1) ties f(m) = 0; were
        # ties rejected, sigma would fall below sigma_min at t=5
        p = problem()
        params = EsParams(alpha=2.0, max_iters=10, sigma_min=0.5)
        init = EsState(m=np.array([1.0, 1.0]), sigma=1.0)
        reasons, times = escape_times(p, params, init, [FixedDraws([0.5, 0.5])])
        trace = run(p, params, init, FixedDraws([0.5, 0.5]), record_every=0)
        assert (reasons[0], times[0]) == (trace.reason, trace.t_final) == (BUDGET, 10)

    def test_negative_start_zero_budget_and_no_streams(self):
        p = problem()
        rngs = [np.random.default_rng(s) for s in range(3)]
        reasons, times = escape_times(p, EsParams(), EsState(m=np.array([2.0, 1.0]), sigma=1.0,
                                                             t=4), rngs)
        assert reasons == [TARGET] * 3 and times.tolist() == [4] * 3
        reasons, times = escape_times(p, EsParams(max_iters=0),
                                      EsState(m=np.array([0.0, 1.0]), sigma=1.0), rngs)
        assert reasons == [BUDGET] * 3 and times.tolist() == [0] * 3
        reasons, times = escape_times(p, EsParams(), EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                                      [])
        assert reasons == [] and times.size == 0

    def test_checks_start_like_run(self):
        p = problem()
        with pytest.raises(ValueError):
            escape_times(p, EsParams(sigma_min=1.0), EsState(m=np.array([0.0, 1.0]), sigma=0.5),
                         [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            escape_times(p, EsParams(), EsState(m=np.zeros(3), sigma=1.0),
                         [np.random.default_rng(0)])
