import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from saddle_es import (
    BUDGET,
    NONFINITE,
    TARGET,
    UNDERFLOW,
    EscapeExperimentSpec,
    EsParams,
    EsState,
    SaddleProblem,
    closed_form_b1,
    es,
    escape_times,
    run,
    run_escape_experiment,
)
from saddle_es.es import _f, _lumped


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


class LumpedFixedDraws(FixedDraws):
    """FixedDraws for the lumped chain: z holds the reduced state's normals, and
    every chi-square draw is zero."""

    def standard_gamma(self, shape, size=None, out=None):
        out[...] = 0.0
        return out


class Recorded:
    """A stream that records each call: ("normal", out.shape) and ("gamma",
    out.shape, shape), then draws from ``rng``."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        self.calls.append(("normal", z.shape))
        return z

    def standard_gamma(self, shape, size=None, out=None):
        self.calls.append(("gamma", out.shape, np.asarray(shape).tolist()))
        return self.rng.standard_gamma(shape, size, out=out)


class Draws:
    """A seeded generator for the batch tests.  With ``ties``, every third draw
    vector is zero: that offspring is the mean itself, an exact tie.  The zeros
    follow the draw count, so ``run`` and the engine, which draw in different
    block shapes, see the same vectors.  Drawing past ``limit`` vectors fails
    the test, so a trial that misses its budget cannot run on forever."""

    def __init__(self, seed, d, ties, limit=256):
        self.rng = np.random.default_rng(seed)
        self.d, self.ties, self.limit = d, ties, limit
        self.rows = 0

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        rows = z.reshape(-1, self.d)
        if self.ties:
            rows[(self.rows + np.arange(len(rows))) % 3 == 0] = 0.0
        self.rows += len(rows)
        assert self.rows <= self.limit, "a trial drew past its budget"
        return z


def digest(reasons, times):
    """SHA-256 of the times (int64, little-endian) and then the comma-joined reasons."""
    h = hashlib.sha256(np.asarray(times, dtype="<i8").tobytes())
    h.update(",".join(reasons).encode())
    return h.hexdigest()


@pytest.fixture(params=[0.25, 1.0])
def failure_exponent(request, monkeypatch):
    """The paper's failure exponent 1/4 and a patched 1: every reader must follow it."""
    monkeypatch.setattr(es, "_FAILURE_EXPONENT", request.param)
    return request.param


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

    def test_alpha_bounded(self):
        EsParams(alpha=es._ALPHA_MAX)
        for alpha in (es._ALPHA_MAX * 10.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                EsParams(alpha=alpha)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_state_sigma_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            EsState(m=np.zeros(2), sigma=sigma)


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

    def test_degenerate_sigma_limit(self, monkeypatch):
        # sigma > 0 is required, but the affine contract sends offspring -> m
        monkeypatch.setattr(es, "_SIGMA_MIN", 1e-310)
        state = EsState(m=np.array([3.0, 2.0]), sigma=1e-300)
        _, new = one_step(problem(), EsParams(), state, np.random.default_rng(13))
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
            state = EsState(m=m, sigma=sigma)
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

    def test_reject_reads_the_one_failure_exponent(self, failure_exponent):
        # f(0, 1.1) = 1.21 > f(0, 1) = 1
        state = EsState(m=np.array([0.0, 1.0]), sigma=0.1)
        accepted, new = one_step(problem(), EsParams(alpha=2.0), state, FixedDraws([0.0, 1.0]))
        assert not accepted
        assert new.sigma == 0.1 * 2.0 ** -failure_exponent
        assert closed_form_b1(2.0) == -failure_exponent * math.log(2.0)

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

    def test_underflow_precondition(self, monkeypatch):
        monkeypatch.setattr(es, "_SIGMA_MIN", 1.0)
        with pytest.raises(ValueError, match="step-size floor 1$"):
            one_step(problem(), EsParams(), EsState(m=np.array([0.0, 1.0]), sigma=0.5),
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

    def test_huge_start_step_size_shrinks_back(self):
        # offspring at sigma = 1e300 overflow to f = nan or +inf and are
        # rejected until the step size is small enough to make progress
        p = problem((-1.0, 20.0))
        for seed in range(3):
            trace = run(p, EsParams(max_iters=10_000), EsState(m=np.array([0.0, 1.0]), sigma=1e300),
                        np.random.default_rng(seed), record_every=0)
            assert trace.reason == TARGET
            assert trace.final_state.sigma < 1e160

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
            f = [r.f_value for r in trace.records]
            assert np.all(np.diff(f) <= 0.0)

    def test_region_monotonicity(self):
        p = problem((-1.0, 20.0))
        for seed in range(20):
            trace = run(p, EsParams(max_iters=2000), EsState(m=np.array([0.0, 0.5]), sigma=0.3),
                        np.random.default_rng(seed), record_every=1)
            ranks = [np.sign(p.evaluate(r.m)) for r in trace.records]
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

    def test_underflow_terminates_with_reason(self, monkeypatch):
        p = problem((-1.0, 20.0))
        # a floor just below sigma0: a single net shrink ends the run
        monkeypatch.setattr(es, "_SIGMA_MIN", 0.999)
        params = EsParams(alpha=1.5, max_iters=10_000)
        for seed in range(50):
            trace = run(p, params, EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                        np.random.default_rng(seed))
            if trace.reason == UNDERFLOW:
                assert trace.final_state.sigma < 0.999
                break
        else:
            pytest.fail("no underflow observed in 50 seeds")

    @pytest.mark.parametrize("budget,rows", [(200, [8, 8, 16, 32, 64, 64, 8]), (1, [1])])
    def test_draws_on_the_refill_schedule(self, budget, rows):
        # run draws as an escape batch refills, never past its budget: a
        # one-iteration run draws one row
        p = problem((-1.0, 20.0, 5.0))
        stream = Recorded(np.random.default_rng(3))
        trace = run(p, EsParams(max_iters=budget), EsState(m=np.array([0.1, 0.5, 0.2]), sigma=0.3),
                    stream, stop=False, record_every=0)
        assert (trace.reason, trace.t_final) == (BUDGET, budget)
        assert stream.calls == [("normal", (k, 3)) for k in rows]

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

    def test_dimension_mismatch_rejected(self):
        p = problem()
        with pytest.raises(ValueError):
            run(p, EsParams(), EsState(m=np.zeros(3), sigma=1.0), np.random.default_rng(0))

    @pytest.mark.parametrize("stop", [None, False])
    def test_nonfinite_mean_ends_with_reason(self, stop):
        # without the stop at f < 0 the mean escapes, then reaches f = -inf
        # (through an overflow in the offspring's squares) long before the
        # budget; the run used to end as "budget" with f = -inf, or raise on
        # the overflow warning
        p = problem((-1.0, 20.0))
        trace = run(p, EsParams(max_iters=200_000), EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                    np.random.default_rng(0), stop=stop, record_every=0)
        assert trace.reason == NONFINITE
        assert trace.records[-1].f_value == -np.inf
        assert trace.t_escape < trace.t_final < 200_000

    def test_nonfinite_start_rejected(self):
        # 20 * (1e200)**2 overflows to inf
        p = problem((-1.0, 20.0))
        start = EsState(m=np.array([0.0, 1e200]), sigma=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            run(p, EsParams(), start, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite"):
            escape_times(p, EsParams(), start, [np.random.default_rng(0)])


class TestEscapeTimes:
    @pytest.mark.parametrize("d", [2, 3, 8, 9, 17, 100])
    def test_f_bits_do_not_depend_on_row_count(self, d):
        rng = np.random.default_rng(d)
        a = rng.uniform(-5.0, 50.0, size=d)
        for n in (1, 7, 3000):
            sq = np.square(rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3))
            rows = np.array([_f(row, a) for row in sq])
            assert np.array_equal(_f(sq, a), rows)

    def test_lumped_state(self):
        # lone axes keep their signed coordinates, in axis order, and each group
        # of k axes then keeps its radius and draws chi^2_(k-1)
        a, y, shape = _lumped(problem((-3.0, -3.0, -1.0, 20.0, 5.0, 20.0, 20.0), b=3),
                              np.array([0.3, -0.4, 0.7, 2.0, -1.0, 3.0, 6.0]))
        assert a.tolist() == [-1.0, 5.0, -3.0, 20.0]
        assert y.tolist() == [0.7, -1.0, 0.5, 7.0]
        assert shape.tolist() == [0.5, 1.0]
        # distinct coefficients: the reduced state is the mean
        p = problem((-1.0, 20.0, 5.0))
        m = np.array([0.1, -0.5, 0.2])
        a, y, shape = _lumped(p, m)
        assert a.tolist() == p.a.tolist() and y.tolist() == m.tolist() and shape.size == 0

    # (a, D, the gamma shapes or None): distinct coefficients; one radius; two
    # radii of different k
    LAYOUTS = [((-1.0, 20.0, 5.0), 3, None),
               ((-1.0, 20.0, 20.0), 2, 0.5),
               ((-3.0, -3.0, -1.0, 20.0, 5.0, 20.0, 20.0), 4, [0.5, 1.0])]

    @staticmethod
    def layout(rows, d, shape):
        """The calls of refills of the given row counts: an (rows, D) block of
        normals and then, only with a group, an (rows, G) block of gammas."""
        calls = []
        for r in rows:
            calls.append(("normal", (r, d)))
            if shape is not None:
                calls.append(("gamma", (r, np.size(shape)), shape))
        return calls

    @pytest.mark.parametrize("a,d,shape", LAYOUTS, ids=["distinct", "radius", "radii"])
    def test_draw_layout_per_refill(self, a, d, shape):
        # refills grow with the batch's iteration count t, min(max(t, 8), 64,
        # budget left) rows each: from t = 0, 8, 16 and 32 a budget of 50 gives
        # 8, 8, 16 and 18 rows, the last cutting a 32-row block.  Each trial
        # replays alone on its stream, whatever its batch
        p = problem(a, b=a.count(-3.0) + 1)
        params = EsParams(max_iters=50)
        init = EsState(m=np.array([0.0] * p.b + [1.0] * (p.d - p.b)), sigma=1e-6)
        streams = [Recorded(np.random.default_rng(s)) for s in range(20)]
        reasons, times = escape_times(p, params, init, streams)
        assert set(reasons) == {BUDGET}
        for stream in streams:
            assert stream.calls == self.layout([8, 8, 16, 18], d, shape)
        alone = [escape_times(p, params, replace(init, sigma=0.5), [np.random.default_rng(s)])
                 for s in range(20)]
        together = escape_times(p, params, replace(init, sigma=0.5),
                                [np.random.default_rng(s) for s in range(20)])
        assert [(r[0], t[0]) for r, t in alone] == list(zip(*together))

    @pytest.mark.parametrize("a,d,shape", LAYOUTS[1:], ids=["radius", "radii"])
    def test_refills_double_up_to_the_cap(self, a, d, shape):
        # zero draws make every offspring a tie, so a grouped trial runs to its
        # budget of 600: 13 refills, about log2(64 / 8) + 600 / 64, where
        # 8-row refills would take 75
        p = problem(a, b=a.count(-3.0) + 1)
        init = EsState(m=np.array([0.0] * p.b + [1.0] * (p.d - p.b)), sigma=1e-3)
        stream = Recorded(LumpedFixedDraws(np.zeros(d)))
        reasons, times = escape_times(p, EsParams(max_iters=600), init, [stream])
        assert (reasons, times.tolist()) == ([BUDGET], [600])
        assert stream.calls == self.layout([8, 8, 16, 32] + [64] * 8 + [24], d, shape)
        # the guard a re-pinned layout must still pass: far fewer than 75 refills
        assert len(stream.calls) <= 2 * 16

    def test_matches_run_on_each_stream(self, failure_exponent, monkeypatch):
        # all three terminal reasons occur (the floor is lower under the faster
        # shrink); the budget of 20 ends mid-block
        monkeypatch.setattr(es, "_SIGMA_MIN", 0.2 if failure_exponent == 0.25 else 0.02)
        p = problem((-1.0, 20.0, 5.0))
        params = EsParams(max_iters=20)
        init = EsState(m=np.array([0.1, 0.5, 0.2]), sigma=0.3)
        reasons, times = escape_times(p, params, init,
                                      [np.random.default_rng(s) for s in range(200)])
        expected = []
        for s in range(200):
            trace = run(p, params, init, np.random.default_rng(s), record_every=0)
            expected.append((trace.reason, trace.t_final))
        assert list(zip(reasons, times.tolist())) == expected
        assert set(reasons) == {TARGET, BUDGET, UNDERFLOW}

    # (d, a, m, sigma, max_iters, step-size floor): both budgets end mid-block;
    # distinct coefficients, so the engine steps every axis as run does
    BATCHES = [(3, (-1.0, 20.0, 5.0), (0.1, 0.5, 0.2), 0.3, 20, 0.2),
                (100, (-1.0,) + tuple(1 + j / 1000 for j in range(99)), (0.5, 0.55) + (0.0,) * 98,
                 0.1, 45, 0.01)]

    @pytest.mark.parametrize("d,a,m,sigma,max_iters,floor", BATCHES)
    def test_batches_match_run(self, monkeypatch, d, a, m, sigma, max_iters, floor):
        # batches of three for 40 trials: 14 batches, the last of one trial;
        # every fourth trial draws a zero vector at iterations 1, 4, 7, ..., an
        # exact tie that it accepts
        monkeypatch.setattr(es, "_batch_trials", lambda d: 3)
        monkeypatch.setattr(es, "_SIGMA_MIN", floor)
        p = problem(a)
        params = EsParams(max_iters=max_iters)
        init = EsState(m=np.array(m), sigma=sigma)

        def streams():
            return [Draws(s, d, ties=s % 4 == 0) for s in range(40)]

        reasons, times = escape_times(p, params, init, streams())
        traces = [run(p, params, init, rng, record_every=0) for rng in streams()]
        assert list(zip(reasons, times.tolist())) == [(t.reason, t.t_final) for t in traces]
        assert set(reasons) == {TARGET, BUDGET, UNDERFLOW}
        # the budget ends trials in more than one batch
        assert len({k // 3 for k, reason in enumerate(reasons) if reason == BUDGET}) >= 2

    # pinned results (numpy 2.4 streams): any change to a trial's reason or time
    # changes its digest
    @pytest.mark.parametrize("a,trials,expected", [
        ((-1.0, 100.0), 2000, "c6944476963f248e8fdcaebe76b9c76667b2b7717c66ebc7703af2b941eba378"),
        ((-1.0,) + (1.0,) * 99, 20,
         "17fbd7e465dd7a6298f67994c7e8d7a86bfd700d1a236c641377cd6f2b9a49b5")], ids=["d2", "d100"])
    def test_experiment_digest(self, a, trials, expected):
        stats = run_escape_experiment(EscapeExperimentSpec(problem(a), EsParams(), trials=trials,
                                                           master_seed=5))
        # the digests were pinned on the words escaped, censored and underflow
        words = {TARGET: "escaped", BUDGET: "censored", UNDERFLOW: "underflow"}
        assert digest([words[r] for r in stats.reasons], stats.times) == expected

    def test_grouped_digest(self, monkeypatch):
        # run is no reference for a grouped problem.  Batches of three; target,
        # budget (at 21, cutting the 16-row block from t = 16) and underflow
        # all occur
        monkeypatch.setattr(es, "_batch_trials", lambda width: 3)
        monkeypatch.setattr(es, "_SIGMA_MIN", 0.1)
        p = problem((-3.0, -3.0, -1.0, 20.0, 5.0, 20.0, 20.0), b=3)
        init = EsState(m=np.array([0.1, -0.1, 0.05, 0.3, -0.2, 0.1, 0.2]), sigma=0.3)
        reasons, times = escape_times(p, EsParams(max_iters=21), init,
                                      [np.random.default_rng(s) for s in range(40)])
        assert Counter(reasons) == {TARGET: 26, BUDGET: 12, UNDERFLOW: 2}
        assert digest(reasons, times) == \
            "a216433c0b8bc397756d75926f86c32cb50436f95d2616d5425794341173c312"

    def test_escape_to_minus_inf_is_target(self):
        # offspring squares near 1e308 overflow: an accepted f = -inf is an
        # escape under the default stop, in run and in the engine alike
        p = problem((-1.0, 20.0))
        params = EsParams(max_iters=50)
        init = EsState(m=np.array([0.0, 1e153]), sigma=1e154)
        reasons, times = escape_times(p, params, init,
                                      [np.random.default_rng(s) for s in range(40)])
        traces = [run(p, params, init, np.random.default_rng(s), record_every=0)
                  for s in range(40)]
        assert list(zip(reasons, times.tolist())) == [(t.reason, t.t_final) for t in traces]
        assert set(reasons) == {TARGET}
        assert any(t.records[-1].f_value == -np.inf for t in traces)

    def test_group_escape_to_minus_inf_is_target(self, monkeypatch):
        # a=(-1, 20, 20) lumps its last two axes into one radius, whose offspring
        # squares overflow as in the test above.  Every trial escapes within its
        # budget, so no step size overflowed (a trial at sigma = inf accepts
        # nothing), and no numpy warning escaped (they fail the suite)
        p = problem((-1.0, 20.0, 20.0))
        params = EsParams(max_iters=200)
        init = EsState(m=np.array([0.0, 1e153, 0.0]), sigma=1e154)
        offspring = []

        def recorded_f(sq, a):
            offspring.append(_f(sq, a))
            return offspring[-1]

        monkeypatch.setattr(es, "_f", recorded_f)
        reasons, times = escape_times(p, params, init,
                                      [np.random.default_rng(s) for s in range(40)])
        assert set(reasons) == {TARGET} and times.max() < 200
        assert any(np.isneginf(fx).any() for fx in offspring)
        # one step whose negative square overflows while the radius' stays
        # finite: the offspring at f = -inf is accepted and ends the trial
        offspring.clear()
        reasons, times = escape_times(p, params, init, [LumpedFixedDraws([2.0, -0.1])])
        assert (reasons, times.tolist()) == ([TARGET], [1])
        assert offspring == [-np.inf]

    def test_wider_than_a_batch_buffer(self):
        # d = 9,000 distinct coefficients exceed _NORMALS / 8 draws per row: one
        # trial per batch, each ending as run does, by target or budget
        d = 9000
        p = SaddleProblem(a=np.concatenate([[-1.0], 1.0 + np.arange(d - 1) / d]), b=1)
        params = EsParams(max_iters=12)
        init = EsState(m=np.concatenate([[1.0, 1.0], np.zeros(d - 2)]), sigma=3e-4)
        reasons, times = escape_times(p, params, init,
                                      [np.random.default_rng(s) for s in range(3)])
        traces = [run(p, params, init, np.random.default_rng(s), record_every=0)
                  for s in range(3)]
        assert list(zip(reasons, times.tolist())) == [(t.reason, t.t_final) for t in traces]
        assert set(reasons) == {TARGET, BUDGET}

    def test_exact_ties_accept(self, monkeypatch):
        # every offspring m + sigma * (0.5, 0.5) from (1, 1) ties f(m) = 0; were
        # ties rejected, sigma would fall below the floor at t=5
        monkeypatch.setattr(es, "_SIGMA_MIN", 0.5)
        p = problem()
        params = EsParams(alpha=2.0, max_iters=10)
        init = EsState(m=np.array([1.0, 1.0]), sigma=1.0)
        reasons, times = escape_times(p, params, init, [FixedDraws([0.5, 0.5])])
        trace = run(p, params, init, FixedDraws([0.5, 0.5]), record_every=0)
        assert (reasons[0], times[0]) == (trace.reason, trace.t_final) == (BUDGET, 10)

    def test_negative_start_zero_budget_and_no_streams(self):
        p = problem()
        rngs = [np.random.default_rng(s) for s in range(3)]
        reasons, times = escape_times(p, EsParams(), EsState(m=np.array([2.0, 1.0]), sigma=1.0),
                                      rngs)
        assert reasons == [TARGET] * 3 and times.tolist() == [0] * 3
        reasons, times = escape_times(p, EsParams(max_iters=0),
                                      EsState(m=np.array([0.0, 1.0]), sigma=1.0), rngs)
        assert reasons == [BUDGET] * 3 and times.tolist() == [0] * 3
        reasons, times = escape_times(p, EsParams(), EsState(m=np.array([0.0, 1.0]), sigma=1.0),
                                      [])
        assert reasons == [] and times.size == 0

    def test_checks_start_like_run(self, monkeypatch):
        p = problem()
        monkeypatch.setattr(es, "_SIGMA_MIN", 1.0)
        with pytest.raises(ValueError, match="step-size floor"):
            escape_times(p, EsParams(), EsState(m=np.array([0.0, 1.0]), sigma=0.5),
                         [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            escape_times(p, EsParams(), EsState(m=np.zeros(3), sigma=1.0),
                         [np.random.default_rng(0)])
