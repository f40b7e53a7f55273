import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from saddle_es import (
    DriftEstimate,
    EsParams,
    EsState,
    GridSpec,
    SaddleProblem,
    StepSamples,
    closed_form_b1,
    closed_form_b2,
    drift_map,
    drift_w,
    estimate_constants_report,
    one_step_samples,
    pairing_check,
    saddle_success_analytic_2d,
    sample_M_plus_0,
    success_probability,
    task_rng,
)
from saddle_es import estimators
from saddle_es.estimators import (DriftConstants, _drifts, _increment, _scalars, _sigma_40,
                                  _success_curve)
from saddle_es.tasks import _STAGES, _task_rngs, _TaskStreams


def one_sigma(p, params, ns, n, rng, *increments):
    """``_drifts`` at the one step size of ns: (hit count, [estimate of each
    increment]) over the same n steps."""
    return _drifts(p, params, ns.m, [ns.sigma], n, rng, increments)[0]


def drift(quantity, p, params, ns, n, rng, beta=None):
    """One point's drift estimate of "V", "W" or "Phi" through the increment table."""
    return one_sigma(p, params, ns, n, rng, _increment(quantity, beta))[1][0]


def hits(p, m_tilde, sigma, n, rng):
    """Success count of n draws from rng at step size sigma, by success_probability."""
    return round(success_probability(p, EsState(m_tilde, sigma), n, rng).mean * n)


def sigma_40(p, m_tilde, sigma_grid, n, seed, row=0):
    """_sigma_40 on the success counts of the row's stream, measured by
    success_probability rather than by the grid pass."""
    sigmas = [float(s) for s in sigma_grid]
    counts = [hits(p, m_tilde, s, n, task_rng(seed, "row", row)) for s in sigmas]
    return _sigma_40(p, m_tilde, sigmas, counts, n, seed, row)


# Uniform-angle Monte Carlo oracle for the probability of the negative double
# cone, 4e7 angles per problem, seed 20260810 (computed independently of the
# closed form; stderr ~ (p(1-p)/n)^0.5).
ANGLE_ORACLE = {
    (-1.0, 1.0): (0.500078, 7.91e-05),
    (-1.0, 20.0): (0.140152, 5.49e-05),
    (-4.0, 1.0): (0.704860, 7.21e-05),
    (-1.0, 100.0): (0.063531, 3.86e-05),
}


def problem(a=(-1.0, 20.0), b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


def apex(p):
    return sample_M_plus_0(p, 0.0)


def normalized(p, m, sigma):
    """(m, sigma) divided by norm_plus(m)."""
    scale = p.norm_plus(m)
    return EsState(m / scale, sigma / scale)


def sample_estimate(values):
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    return DriftEstimate.from_moments(values.size, float(mean),
                                      float(np.square(values - mean).sum()))


class TestDriftEstimate:
    def test_binomial_stderr_formula_exact(self):
        est = DriftEstimate.from_binomial(137, 1000)
        p_hat = 137 / 1000
        assert est.stderr == math.sqrt(p_hat * (1 - p_hat) / 1000)

    def test_interval_brackets_mean(self):
        est = sample_estimate(np.random.default_rng(0).standard_normal(500))
        assert est.ci_low <= est.mean <= est.ci_high
        assert est.n == 500

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            DriftEstimate(mean=0.0, stderr=-1.0, n=10, ci_low=-1.0, ci_high=1.0)
        with pytest.raises(ValueError):
            DriftEstimate(mean=5.0, stderr=1.0, n=10, ci_low=-1.0, ci_high=1.0)
        with pytest.raises(ValueError):
            sample_estimate([1.0])

    def test_z_is_the_two_sided_99_percent_quantile(self):
        # exact quantile 2.5758293035489007...; the stdlib's inverse CDF lands
        # one ulp below the nearest double
        assert estimators.CONFIDENCE == 0.99
        assert estimators._Z == pytest.approx(2.5758293035489004, rel=1e-15)
        est = sample_estimate(np.random.default_rng(1).standard_normal(500))
        assert est.ci_high - est.mean == estimators._Z * est.stderr

    @pytest.mark.parametrize("n", [1000, 100_000])
    @pytest.mark.parametrize("k", [0, 1, 137, "n"])
    def test_wilson_bounds_are_score_equation_roots(self, k, n):
        # the Wilson bounds solve (p_hat - p)**2 = z**2 p (1 - p) / n; bisect for
        # each root on the side of p_hat where it lies
        k = n if k == "n" else k
        p_hat, z = k / n, estimators._Z

        def root(outside, inside):
            # score(outside) >= 0 >= score(inside)
            score = lambda p: (p_hat - p) ** 2 - z * z * p * (1.0 - p) / n
            for _ in range(200):
                mid = 0.5 * (outside + inside)
                outside, inside = (mid, inside) if score(mid) >= 0.0 else (outside, mid)
            return inside

        est = DriftEstimate.from_binomial(k, n)
        assert est.ci_low == pytest.approx(root(0.0, p_hat), rel=1e-9, abs=1e-15)
        assert est.ci_high == pytest.approx(root(1.0, p_hat), rel=1e-9, abs=1e-15)

    def test_binomial_interval_keeps_width_at_zero_and_n_hits(self):
        for hits in (0, 1000):
            est = DriftEstimate.from_binomial(hits, 1000)
            assert 0.0 <= est.ci_low < est.ci_high <= 1.0


class TestTaskSeed:
    def test_negative_master_rejected(self):
        with pytest.raises(ValueError):
            task_rng(-1, "trial", 0)

    def test_distinct_within_stage(self):
        draws = {task_rng(42, "row", i).integers(1 << 62) for i in range(1000)}
        assert len(draws) == 1000

    def test_distinct_across_master_seeds_and_stages(self):
        keys = [(seed, stage, i) for seed in range(8)
                for stage in ("trial", "pairing", "row")
                for i in range(4)]
        draws = {task_rng(*key).integers(1 << 62) for key in keys}
        assert len(draws) == len(keys)

    @pytest.mark.parametrize("stage, stage_id", [("trial", 4), ("pairing", 5), ("row", 6)])
    def test_stage_ids_pinned(self, stage, stage_id):
        # a changed id would change every output seeded through the stage
        ref = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(stage_id, 2, 3)))
        assert task_rng(9, stage, 2, 3).integers(1 << 62, size=4).tolist() == \
            ref.integers(1 << 62, size=4).tolist()

    def test_retired_stage_ids_stay_unused(self):
        # ids 0 to 3 seeded the streams of earlier versions
        assert set(_STAGES) == {"trial", "pairing", "row"}
        assert not {0, 1, 2, 3} & set(_STAGES.values())

    # 2**32 - 1 and 2**32 are one- and two-word seeds, 2**64 - 1 fills two
    # words, 2**70 + 12345 needs three, and 2**128 and 2**200 + 99 need five and
    # seven: more words than SeedSequence's pool of four
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 12345,
                                      2**128, 2**200 + 99])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (1000, 3048), (2**32 - 3, 2**32)])
    def test_batched_streams_equal_task_rng(self, seed, lo, hi):
        for stage in _STAGES:
            rngs = _task_rngs(seed, stage, lo, hi)
            assert len(rngs) == hi - lo
            for k, rng in zip(range(lo, hi), rngs):
                ref = task_rng(seed, stage, k)
                assert rng.bit_generator.state == ref.bit_generator.state
            for k in {lo, hi - 1}:
                assert rngs[k - lo].integers(1 << 62, size=3).tolist() == \
                    task_rng(seed, stage, k).integers(1 << 62, size=3).tolist()

    def test_batched_streams_empty_range(self):
        assert _task_rngs(3, "trial", 5, 5) == []

    def test_lazy_streams_slice_to_task_rng(self):
        streams = _TaskStreams(3, "trial", 10, 20)
        assert len(streams) == 10
        for part, ks in ((streams[2:5], range(12, 15)), (streams[8:50], range(18, 20)),
                         (streams[4:4], range(0))):
            assert [rng.bit_generator.state for rng in part] == \
                [task_rng(3, "trial", k).bit_generator.state for k in ks]
        for key in (0, slice(0, 10, 2)):
            with pytest.raises(TypeError, match="contiguous slices"):
                streams[key]

    def test_batched_streams_reject_negative_master(self):
        with pytest.raises(ValueError):
            _task_rngs(-1, "trial", 0, 1)

    def test_batched_streams_take_one_word_indices_only(self):
        # task_rng(seed, stage, 2**32) has a two-word index, which the batch
        # form does not derive
        with pytest.raises(ValueError):
            _task_rngs(3, "trial", 2**32 - 1, 2**32 + 1)


class TestSaddleSuccess:
    def test_symmetric_problem_exact_half(self):
        assert saddle_success_analytic_2d(problem((-1.0, 1.0))) == 0.5

    @pytest.mark.parametrize("a", [(-1.0, 20.0), (-4.0, 1.0), (-1.0, 100.0)])
    def test_analytic_matches_angle_oracle(self, a):
        value, stderr = ANGLE_ORACLE[a]
        assert abs(saddle_success_analytic_2d(problem(a)) - value) < 4.0 * stderr

    def test_mc_matches_analytic(self):
        p = problem((-1.0, 20.0))
        est = success_probability(p, EsState(np.zeros(2), 1.0), 200_000,
                                  np.random.default_rng(5))
        assert abs(est.mean - saddle_success_analytic_2d(p)) < 3.0 * est.stderr

    def test_closed_form_requires_2d(self):
        p = SaddleProblem(a=np.array([-1.0, 1.0, 1.0]), b=1)
        with pytest.raises(ValueError):
            saddle_success_analytic_2d(p)


class TestSuccessProbability:
    def test_small_sigma_limit_near_half(self):
        p = problem((-1.0, 20.0))
        for w in (0.0, 0.5):
            ns = EsState(sample_M_plus_0(p, w), 1e-4)
            est = success_probability(p, ns, 100_000, np.random.default_rng(7))
            assert 0.45 <= est.mean <= 0.55

    def test_large_sigma_approaches_saddle_value(self):
        p = problem((-1.0, 20.0))
        ns = EsState(apex(p), 1e4)
        est = success_probability(p, ns, 100_000, np.random.default_rng(8))
        assert abs(est.mean - saddle_success_analytic_2d(p)) < 4.0 * est.stderr

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            success_probability(problem(), EsState(apex(problem()), 1.0), 99,
                                np.random.default_rng(0))

    def test_scale_invariance_bitwise_for_power_of_two(self):
        # unit plus-block coefficient makes the mean an exact fixed point of
        # normalization, so a power-of-two rescaling round-trips bitwise
        p = problem((-1.0, 1.0))
        ns = EsState(np.array([0.5, 1.0]), 0.7)
        scaled = normalized(p, 4.0 * ns.m, 4.0 * ns.sigma)
        assert np.array_equal(scaled.m, ns.m)
        assert scaled.sigma == ns.sigma
        e1 = success_probability(p, ns, 10_000, np.random.default_rng(9))
        e2 = success_probability(p, scaled, 10_000, np.random.default_rng(9))
        assert e1 == e2

    def test_drift_scale_invariance_bitwise_for_power_of_two(self):
        p = problem((-1.0, 1.0))
        ns = EsState(np.array([0.5, 1.0]), 0.7)
        scaled = normalized(p, 4.0 * ns.m, 4.0 * ns.sigma)
        e1 = drift_w(p, EsParams(), ns, 2000, np.random.default_rng(19))
        e2 = drift_w(p, EsParams(), scaled, 2000, np.random.default_rng(19))
        assert e1 == e2


class TestStepSamples:
    def test_rejection_branch_is_exact_constant(self):
        # essentially-never-successful regime: huge step size, tiny success cone
        p = problem((-1.0, 1e8))
        params = EsParams(alpha=1.5)
        ns = EsState(apex(p), 1e4)
        samples = one_step_samples(p, params, ns, 5000, np.random.default_rng(10))
        v = samples.increments("V")
        rejected = ~samples.accepted
        assert rejected.sum() > 4900
        assert np.all(v[rejected] == -0.25 * math.log(1.5))

    def test_w_increment_capped_at_one(self):
        p = problem((-1.0, 20.0))
        ns = EsState(apex(p), 1e3)
        samples = one_step_samples(p, EsParams(), ns, 20_000, np.random.default_rng(11))
        assert np.all(samples.increments("W") <= 1.0)

    def test_w_increment_bounds_inside_shell(self):
        # increments lie in (-1, 1]: W of the source state is < 1 and rejections give 0
        p = problem((-1.0, 20.0))
        ns = EsState(sample_M_plus_0(p, 0.9), 1.0)
        samples = one_step_samples(p, EsParams(), ns, 20_000, np.random.default_rng(12))
        inc = samples.increments("W")
        assert np.all(inc > -1.0) and np.all(inc <= 1.0)

    def test_norm_plus_zero_successor(self):
        # semi-norms are stored for the accepted offspring only
        synthetic = StepSamples(accepted=np.array([True, False]),
                                norm_minus=np.array([1.0]),
                                norm_plus=np.array([0.0]),
                                w0=0.5, alpha=1.5)
        with pytest.raises(ValueError, match="zero positive-block semi-norm"):
            synthetic.increments("V")
        # the truncated W path absorbs the same successor at the cap
        assert synthetic.increments("W")[0] == 1.0


class TestDriftV:
    def test_alpha_two_closed_forms(self):
        assert closed_form_b1(2.0) == pytest.approx(-0.173287, abs=1e-6)
        assert closed_form_b2(2.0) == pytest.approx(0.034657, abs=1e-6)

    def test_near_b1_when_success_is_rare(self):
        p = problem((-1.0, 1e8))
        ns = EsState(apex(p), 1e4)
        est = drift("V", p, EsParams(alpha=1.5), ns, 5000, np.random.default_rng(13))
        assert est.mean == pytest.approx(closed_form_b1(1.5), abs=0.02)

    def test_small_sigma_growth_beats_half_b2(self):
        p = problem((-1.0, 20.0))
        ns = EsState(apex(p), 1e-3)
        est = drift("V", p, EsParams(alpha=1.5), ns, 10_000, np.random.default_rng(14))
        assert est.ci_low > 0.5 * closed_form_b2(1.5)

    def test_sample_floor(self):
        p = problem()
        with pytest.raises(ValueError):
            drift("V", p, EsParams(), EsState(apex(p), 1.0), 999, np.random.default_rng(0))

    def test_rejects_unnormalized_state(self):
        p = problem((-1.0, 20.0))
        with pytest.raises(ValueError, match=r"^state is not normalized: norm_plus\(m_tilde\) = "):
            drift_w(p, EsParams(), EsState(np.array([1.5, 1.0]), 1.0), 1000,
                    np.random.default_rng(0))


class TestDriftW:
    def test_large_sigma_reaches_saddle_value(self):
        p = problem((-1.0, 1.0))
        ns = EsState(apex(p), 1e3)
        est = drift_w(p, EsParams(alpha=1.5), ns, 20_000, np.random.default_rng(15))
        assert abs(est.mean - 0.5) < 3.0 * est.stderr

    def test_positive_at_spot_checks(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        for i, (w, sigma) in enumerate([(0.0, 1e-4), (0.5, 0.1), (0.9, 10.0), (1.0, 1.0)]):
            ns = EsState(sample_M_plus_0(p, w), sigma)
            est = drift_w(p, params, ns, 20_000, np.random.default_rng(100 + i))
            assert est.ci_low > 0.0, (w, sigma)


class TestDriftPhi:
    def test_beta_zero_equals_w_drift(self):
        p = problem((-1.0, 20.0))
        ns = EsState(sample_M_plus_0(p, 0.5), 0.5)
        a = drift("Phi", p, EsParams(), ns, 5000, np.random.default_rng(16), beta=0.0)
        b = drift_w(p, EsParams(), ns, 5000, np.random.default_rng(16))
        assert a == b

    def test_linearity_in_beta_on_shared_samples(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = EsState(sample_M_plus_0(p, 0.25), 0.5)
        phi1 = drift("Phi", p, params, ns, 5000, np.random.default_rng(17), beta=1.0)
        phi2 = drift("Phi", p, params, ns, 5000, np.random.default_rng(17), beta=2.0)
        v = drift("V", p, params, ns, 5000, np.random.default_rng(17))
        assert phi2.mean - phi1.mean == pytest.approx(v.mean, rel=1e-9)

    @pytest.mark.parametrize("quantity", ["Phi", "phi"])
    def test_negative_beta_rejected(self, quantity):
        with pytest.raises(ValueError, match="^beta must be nonnegative$"):
            _increment(quantity, -1.0)

    def test_positive_below_hitting_threshold(self):
        # with beta from the constants pipeline, the combined drift is positive
        # wherever phi <= 1; beyond that threshold the process has already hit
        # its target set and the drift turns negative (a success resets the
        # normalized step size to order one)
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        constants = estimate_constants_report(p, params, grid=TestConstants.SMALL_GRID,
                                              n=5000, master_seed=61).constants
        grid = GridSpec(w_values=np.linspace(0.0, 1.0, 5),
                        sigma_values=np.geomspace(1e-4, 1e3, 12))
        checked = 0
        for i, w in enumerate(grid.w_values):
            m = sample_M_plus_0(p, float(w))
            for j, s in enumerate(grid.sigma_values):
                ns = EsState(m, float(s))
                # phi = beta * V + W with V = log(sigma~) and W = norm_minus(m~) = w
                if constants.beta * math.log(s) + w > 1.0:
                    continue
                est = drift("Phi", p, params, ns, 20_000, task_rng(62, "row", i),
                            beta=constants.beta)
                assert est.ci_low > 0.0, (w, s)
                checked += 1
        assert checked >= 20

    def test_negative_far_beyond_hitting_threshold(self):
        p = problem((-1.0, 20.0))
        ns = EsState(apex(p), 1e3)
        est = drift("Phi", p, EsParams(alpha=1.5), ns, 20_000, np.random.default_rng(63),
                    beta=0.46)
        assert est.ci_high < 0.0


def increment_outcome(quantity, beta):
    """What ``_increment`` should do with a (quantity, beta) pair: the message it
    raises, or None where it gives an increment."""
    if quantity.lower() not in ("v", "w", "phi"):
        return "quantity must be one of V, W, Phi"
    if quantity.lower() != "phi":
        return None if beta is None else \
            f"beta weights V in a Phi map only; a {quantity} map takes none"
    if beta is None:
        return "a Phi map needs beta (the constants record gives beta = -C / (2 B1))"
    if not math.isfinite(beta):
        return f"beta must be finite, got {beta!r}"
    return "beta must be nonnegative" if beta < 0.0 else None


class TestIncrementTable:
    @pytest.mark.parametrize("beta", [None, 0.0, 0.3, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("quantity", ["V", "W", "Phi", "phi", "X"])
    def test_pairs(self, quantity, beta):
        message = increment_outcome(quantity, beta)
        if message is None:
            # a valid pair gives its quantity's per-sample changes: two accepted
            # offspring around one rejection
            samples = StepSamples(accepted=np.array([True, False, True]),
                                  norm_minus=np.array([0.5, 0.25]),
                                  norm_plus=np.array([0.5, 2.0]), w0=0.5, alpha=1.5)
            v = np.array([math.log(1.5 / 0.5), closed_form_b1(1.5), math.log(1.5 / 2.0)])
            w = np.array([0.5, 0.0, 0.125 - 0.5])
            expected = {"v": v, "w": w}.get(quantity.lower())
            np.testing.assert_allclose(samples.increments(quantity, beta),
                                       (beta * v + w) if expected is None else expected,
                                       rtol=1e-12, atol=1e-15)
        else:
            with pytest.raises(ValueError) as raised:
                _increment(quantity, beta)
            assert str(raised.value) == message
            with pytest.raises(ValueError) as raised:
                StepSamples(np.array([False, False]), np.empty(0), np.empty(0),
                            0.5, 1.5).increments(quantity, beta)
            assert str(raised.value) == message

    def test_each_drift_check_is_made_once_in_estimators(self):
        # drift_w, drift_map, the constants pass and StepSamples all draw on the
        # one table
        files = Path(estimators.__file__).parent.glob("*.py")
        text = {f.name: f.read_text(encoding="utf-8") for f in files}
        for message in ("beta must be nonnegative", "quantity must be one of V, W, Phi",
                        "a Phi map needs beta", "beta weights V in a Phi map only"):
            assert {name: t.count(message) for name, t in text.items() if message in t} == \
                   {"estimators.py": 1}


class TestSigma40:
    GRID = np.geomspace(1e-4, 1e3, 36).tolist()
    N = 20_000

    def crossing(self, p, m, z):
        """Success counts of the draws z over the grid, and the first failing index."""
        counts = [hits(p, m, s, self.N, FixedDraws(z)) for s in self.GRID]
        return counts, next(j for j, h in enumerate(counts) if h / self.N < 0.4)

    @pytest.mark.parametrize("a,b,w", [((-1.0, 20.0), 1, 0.5), ((-1.0, 100.0), 1, 0.0),
                                       ((-1.0, -3.0, 2.0, 5.0, 20.0), 2, 1.0)])
    def test_step_function_equals_brute_force_count(self, a, b, w):
        p = problem(a, b)
        m = sample_M_plus_0(p, w)
        z = np.random.default_rng(81).standard_normal((self.N, p.d))
        counts, j = self.crossing(p, m, z)
        lo, hi = self.GRID[j - 1], self.GRID[j]
        positions, changes = _success_curve(p, m, lo, hi, self.N, FixedDraws(z))
        count = counts[j - 1]
        assert count + changes.sum() == counts[j]
        assert lo < positions[0] and positions[-1] <= hi and np.all(np.diff(positions) > 0)
        assert np.all(changes != 0)

        def curve(s):
            return count + int(changes[positions <= s].sum())

        # 50 random step sizes in the cell, and both sides of its first steps
        random = lo * (hi / lo) ** np.random.default_rng(82).uniform(0.0, 1.0, 50)
        edges = positions[:5].tolist() + np.nextafter(positions[:5], 0.0).tolist()
        for s in random.tolist() + edges:
            assert curve(s) == hits(p, m, s, self.N, FixedDraws(z)), s

    def test_sigma_40_is_the_last_passing_step_size(self, monkeypatch):
        p = problem((-1.0, 20.0))
        m = sample_M_plus_0(p, 0.5)
        z = np.random.default_rng(83).standard_normal((self.N, p.d))
        counts, j = self.crossing(p, m, z)
        streams = []

        def replay(*key):
            streams.append(key)
            return FixedDraws(z)

        monkeypatch.setattr(estimators, "task_rng", replay)
        value = _sigma_40(p, m, self.GRID, counts, self.N, 7, 3)
        assert streams == [(7, "row", 3)]
        assert self.GRID[j - 1] <= value < self.GRID[j]
        assert hits(p, m, value, self.N, FixedDraws(z)) / self.N >= 0.4
        assert hits(p, m, math.nextafter(value, math.inf), self.N, FixedDraws(z)) / self.N < 0.4
        # and the rate never dipped below 0.4 between the last passing grid point and it
        positions, _ = _success_curve(p, m, self.GRID[j - 1], self.GRID[j], self.N,
                                      FixedDraws(z))
        for s in [self.GRID[j - 1]] + positions[positions <= value].tolist():
            assert hits(p, m, s, self.N, FixedDraws(z)) / self.N >= 0.4

    def no_replay(self, monkeypatch):
        def replay(*key):
            raise AssertionError("the row's stream was replayed")

        monkeypatch.setattr(estimators, "task_rng", replay)

    def test_all_failing_grid_rejected(self, monkeypatch):
        p = problem((-1.0, 100.0))
        grid = np.geomspace(10.0, 1e3, 8).tolist()
        counts = [hits(p, apex(p), s, 5000, task_rng(0, "row", 2)) for s in grid]
        self.no_replay(monkeypatch)
        with pytest.raises(ValueError, match="extend the grid downward") as info:
            _sigma_40(p, apex(p), grid, counts, 5000, 0, 2)
        assert str(info.value).endswith(
            f'Row 2: w=0.0 sigma~=10.0 rate={counts[0] / 5000!r} n=5000; replay its stream '
            'with task_rng(0, "row", 2) at sigma index 0')

    def test_never_crossed_returns_inf(self, monkeypatch):
        p = problem((-1.0, 1.0))
        counts = [hits(p, apex(p), s, self.N, task_rng(21, "row", 0)) for s in self.GRID]
        assert min(counts) / self.N >= 0.4
        self.no_replay(monkeypatch)
        assert _sigma_40(p, apex(p), self.GRID, counts, self.N, 21, 0) == math.inf

    def test_finite_crossing_is_bracketed(self):
        p = problem((-1.0, 100.0))
        value = sigma_40(p, apex(p), self.GRID, self.N, 22)
        assert 1e-4 < value < 1e3
        # the success rate at the crossing sits near the threshold
        est = success_probability(p, EsState(apex(p), value), 100_000,
                                  np.random.default_rng(23))
        assert abs(est.mean - 0.4) < 0.05


class TestGridSpec:
    @pytest.mark.parametrize("sigma_values", [
        pytest.param(np.geomspace(1e-4, 1e3, 7), id="coarse"),
        pytest.param(np.geomspace(1e3, 1e-4, 8), id="descending"),
        pytest.param(np.linspace(0.0, 1.0, 8), id="nonpositive"),
    ])
    def test_rejects_bad_sigma_grid(self, sigma_values):
        with pytest.raises(ValueError, match="sigma grid"):
            GridSpec(np.array([0.0, 1.0]), sigma_values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_w(self, bad):
        # a NaN w passed the [0, 1] test and failed later, inside a worker
        with pytest.raises(ValueError, match=f"^w values must be finite, got {bad!r}$"):
            GridSpec(np.array([0.0, bad]), np.geomspace(1e-4, 1e3, 8))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_sigma(self, bad):
        # sigma~ = inf made a grid point of its own and broke the constants pipeline
        sigmas = np.append(np.geomspace(1e-4, 1e3, 8), bad)
        with pytest.raises(ValueError, match=f"^sigma values must be finite, got {bad!r}$"):
            GridSpec(np.array([0.0, 1.0]), sigmas)


class TestConstants:
    SMALL_GRID = GridSpec(w_values=np.array([0.0, 0.5, 1.0]),
                          sigma_values=np.geomspace(1e-4, 1e3, 12))

    def test_beta_theta_arithmetic(self):
        constants = DriftConstants(alpha=2.0, C=0.1, sigma_tilde_40=1.0, sigma_tilde_star=0.1)
        assert constants.beta == pytest.approx(0.288539, abs=1e-6)
        assert constants.theta == pytest.approx(0.01, rel=1e-12)
        # with beta = -C/(2 B1) the second branch is C/2
        assert 0.1 + constants.beta * closed_form_b1(2.0) == pytest.approx(0.05, rel=1e-12)
        assert constants.to_dict()["beta"] == constants.beta
        assert constants.to_dict()["theta"] == constants.theta

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 10.0])
    def test_theta_is_a_tenth_of_c(self, alpha):
        # B2 / (-2 B1) = 1/10 for every alpha, so theta = min(C/10, C/2) never
        # takes its second branch
        for c in (1e-3, 0.09399, 0.5, 7.0):
            constants = DriftConstants(alpha=alpha, C=c, sigma_tilde_40=1.0, sigma_tilde_star=0.1)
            assert constants.theta == pytest.approx(c / 10.0, rel=1e-12)
            assert c + constants.beta * constants.B1 == pytest.approx(c / 2.0, rel=1e-12)

    def test_pipeline_on_ill_conditioned_problem(self):
        p = problem((-1.0, 20.0))
        constants = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                              n=5000, master_seed=31).constants
        assert constants.B1 == closed_form_b1(1.5)
        assert constants.B2 == closed_form_b2(1.5)
        assert constants.C > 0.0
        assert constants.theta > 0.0
        assert constants.beta == pytest.approx(-constants.C / (2 * constants.B1), rel=1e-15)
        assert 1e-4 <= constants.sigma_tilde_star <= 1e3
        assert constants.sigma_tilde_40 < constants.sigma_tilde_star

    def test_reproducible(self):
        p = problem((-1.0, 20.0))
        c1 = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                       n=3000, master_seed=32).constants
        c2 = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                       n=3000, master_seed=32).constants
        assert c1 == c2

    def test_threads_do_not_change_report(self):
        # threads=2 maps the grid rows, each with its sigma~40, on forked workers
        p = problem((-1.0, 20.0))
        kw = dict(grid=self.SMALL_GRID, n=3000, master_seed=33)
        one = estimate_constants_report(p, EsParams(alpha=1.5), threads=1, **kw)
        two = estimate_constants_report(p, EsParams(alpha=1.5), threads=2, **kw)
        assert two.sigma_40_by_w == one.sigma_40_by_w
        assert two.v_map == one.v_map
        assert two.w_map == one.w_map
        assert two.constants == one.constants

    def test_maps_equal_drift_maps(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        rep = estimate_constants_report(p, params, grid=self.SMALL_GRID, n=3000,
                                        master_seed=34)
        kw = dict(grid=self.SMALL_GRID, n=3000, master_seed=34)
        assert rep.v_map == drift_map(p, params, "V", **kw)
        star = rep.constants.sigma_tilde_star
        assert rep.w_map == [row for row in drift_map(p, params, "W", **kw)
                             if row.sigma_tilde >= star]

    def test_sigma_40_equals_scan_of_row_stream(self):
        p = problem((-1.0, 20.0))
        rep = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                        n=3000, master_seed=35)
        for i, w in enumerate(self.SMALL_GRID.w_values):
            m = sample_M_plus_0(p, float(w))
            assert rep.sigma_40_by_w[i] == sigma_40(p, m, self.SMALL_GRID.sigma_values, 3000,
                                                    35, row=i)

    def test_shared_hits_equal_success_probability(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = EsState(sample_M_plus_0(p, 0.5), 0.3)
        n = (1 << 18) + 3000    # seventeen blocks at d=2
        shared, (v, w) = one_sigma(p, params, ns, n, task_rng(36, "row", 1),
                                   _increment("V"), _increment("W"))
        assert shared / n == success_probability(p, ns, n, task_rng(36, "row", 1)).mean
        assert v == drift("V", p, params, ns, n, task_rng(36, "row", 1))
        assert w == drift_w(p, params, ns, n, task_rng(36, "row", 1))

    def count_normals(self, monkeypatch):
        """Wrap every stream the estimators derive in a normal-counting generator;
        returns the counts by stream key."""
        drawn = {}

        class Counting:
            def __init__(self, *key):
                self.key, self.rng = key, task_rng(*key)

            def standard_normal(self, shape):
                drawn[self.key] = drawn.get(self.key, 0) + math.prod(shape)
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(estimators, "task_rng", Counting)
        return drawn

    def test_constants_draw_at_most_two_passes_per_row(self, monkeypatch):
        # one pass for every sigma~ of a row, and one replay for its sigma~40
        drawn = self.count_normals(monkeypatch)
        rep = estimate_constants_report(problem((-1.0, 20.0)), EsParams(alpha=1.5),
                                        grid=self.SMALL_GRID, n=3000, master_seed=37)
        assert all(math.isfinite(s) for s in rep.sigma_40_by_w)    # every row replays
        assert set(drawn) == {(37, "row", i) for i in range(3)}
        assert all(count <= 2 * 3000 * 2 for count in drawn.values())

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    def test_drift_map_draws_one_pass_per_row(self, monkeypatch, a, b):
        drawn = self.count_normals(monkeypatch)
        p = problem(a, b)
        drift_map(p, EsParams(), "W", grid=self.SMALL_GRID, n=3000, master_seed=38)
        assert drawn == {(38, "row", i): 3000 * p.d for i in range(3)}

    def test_sigma_40_is_the_minimum_over_rows(self, monkeypatch):
        # stubbed per-row crossings; the w=0.5 row crosses first
        crossings = [0.05, 0.002, 2.0]
        monkeypatch.setattr(estimators, "_sigma_40",
                            lambda p, m, sigmas, hits, n, seed, row: crossings[row])
        rep = estimate_constants_report(problem((-1.0, 20.0)), EsParams(alpha=1.5),
                                        grid=self.SMALL_GRID, n=3000, master_seed=38)
        assert rep.sigma_40_by_w == crossings
        assert rep.constants.sigma_tilde_40 == 0.002


class TestPairing:
    def test_worked_example(self):
        # the draw (-2, -1) points from m~ = (0.5, 1) to z = (0.3, 0.9) on the
        # sphere of radius sqrt(0.05); z succeeds with W(z) = 1/3 < 1/2, and
        # its mirror (0.7, 0.9) gives the margin 1/3 + 7/9 - 1 = 1/9
        p = problem((-1.0, 1.0))
        report = pairing_check(p, np.array([0.5, 1.0]), math.sqrt(0.05), 1,
                               FixedDraws(np.array([[-2.0, -1.0]])))
        assert (report.n_pairs, report.violations) == (1, 0)
        assert report.min_margin == pytest.approx(0.3 / 0.9 + 0.7 / 0.9 - 1.0, rel=1e-12)
        assert report.min_margin == pytest.approx(0.1111, abs=1e-4)

    def test_apex_has_empty_set(self):
        p = problem((-1.0, 20.0))
        report = pairing_check(p, apex(p), 1.0, 10_000, np.random.default_rng(41))
        assert report.n_pairs == 0
        assert report.violations == 0
        assert report.min_margin == math.inf

    @pytest.mark.parametrize("a", [(-1.0, 1.0), (-1.0, 20.0)])
    @pytest.mark.parametrize("radius", [0.1, 1.0, 10.0])
    def test_no_violations(self, a, radius):
        p = problem(a)
        m_tilde = sample_M_plus_0(p, 0.9)
        report = pairing_check(p, m_tilde, radius, 20_000, np.random.default_rng(42))
        assert report.violations == 0
        assert report.min_margin >= -1e-9

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_radius(self, radius):
        # a non-finite radius would sample no pair and report a pass
        p = problem()
        message = f"^radius must be positive and finite, got {radius}$"
        with pytest.raises(ValueError, match=message):
            pairing_check(p, apex(p), radius, 100, np.random.default_rng(0))


def mask_reference(p, params, ns, z):
    """Accepted mask, semi-norms and V/W increments of the draws z, built with
    boolean-mask gathers and scatters."""
    x = ns.m + ns.sigma * z
    acc = p.evaluate(x) <= p.evaluate(ns.m)
    nm, npl = p.norm_minus(x)[acc], p.norm_plus(x)[acc]
    log_alpha = math.log(params.alpha)
    v = np.full(z.shape[0], -0.25 * log_alpha)
    v[acc] = log_alpha - np.log(npl)
    w = np.zeros(z.shape[0])
    w[acc] = np.minimum(nm / npl - p.norm_minus(ns.m), 1.0)
    return acc, nm, npl, v, w


def whole_array_reference(p, params, ns, n, seed):
    """Whole-array reference: all n one-step samples at once, mean and stderr of
    each increment array as numpy computes them, and the success count."""
    acc, _, _, v, w = mask_reference(p, params, ns,
                                     np.random.default_rng(seed).standard_normal((n, p.d)))
    ref = {name: (float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(n)))
           for name, inc in (("V", v), ("W", w), ("Phi", 0.7 * v + w))}
    ref["success"] = (int(np.count_nonzero(acc)) / n, None)
    return ref


class TestBlockKernel:
    ESTIMATORS = {
        "V": lambda p, params, ns, n, rng: drift("V", p, params, ns, n, rng),
        "W": lambda p, params, ns, n, rng: drift_w(p, params, ns, n, rng),
        "Phi": lambda p, params, ns, n, rng: drift("Phi", p, params, ns, n, rng, beta=0.7),
        "success": lambda p, params, ns, n, rng: success_probability(p, ns, n, rng),
    }

    # part of one d=2 block, exactly one full block, sixteen full blocks, 33 blocks
    @pytest.mark.parametrize("n", [5000, estimators._NORMALS // 4, 1 << 18, (1 << 19) + 1000])
    def test_matches_whole_array_formulas(self, n):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = EsState(sample_M_plus_0(p, 0.5), 0.5)
        ref = whole_array_reference(p, params, ns, n, 71)
        for name, estimator in self.ESTIMATORS.items():
            est = estimator(p, params, ns, n, np.random.default_rng(71))
            mean, stderr = ref[name]
            assert est.n == n
            if stderr is None:
                # a hit count does not depend on how the draws are blocked
                assert est.mean == mean, name
            else:
                # pooled moments round differently from numpy's whole-array ones
                assert est.mean == pytest.approx(mean, rel=1e-12), name
                assert est.stderr == pytest.approx(stderr, rel=1e-12), name

    def test_drift_memory_is_flat_in_n(self):
        p = problem((-1.0, 20.0))
        ns = EsState(sample_M_plus_0(p, 0.5), 0.5)
        peaks = []
        for n in (1 << 19, 1 << 21):
            tracemalloc.start()
            drift_w(p, EsParams(), ns, n, np.random.default_rng(72))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]

    SIZES = (1, 2, 999, 1 << 15, (1 << 15) + 1, 1 << 19, 10**6 + 7)

    @pytest.mark.parametrize("n,d", [(n, d) for n in SIZES for d in (2, 3, 100)]
                             + [(n, d) for n in SIZES[:3] for d in (1 << 16, (1 << 16) + 1)])
    def test_blocks_are_fewest_near_equal_and_capped(self, n, d):
        sizes = estimators._blocks(n, d)
        assert sum(sizes) == n and min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        rows = max(sizes)
        assert (rows * d <= 1 << 16 and rows <= 1 << 14) or rows == 1
        # one block fewer cannot hold n rows within the caps; rows longer than
        # the normals cap come one per block
        assert (len(sizes) - 1) * max((1 << 16) // max(d, 4), 1) < n

    @pytest.mark.parametrize("unblocked", [False, True])
    @pytest.mark.parametrize("d", [2, 10, 100])
    def test_peak_memory_is_flat_in_d(self, d, unblocked, monkeypatch):
        p = problem((-1.0,) + (1.0,) * (d - 1))
        # about half the offspring are accepted at every d
        ns = EsState(sample_M_plus_0(p, 0.5), 0.2 / d)
        # 2^21 normals per call: 16 MiB drawn at once, 4x the bound, so the
        # control that draws each call in one block goes over it
        n = (1 << 21) // d
        if unblocked:
            monkeypatch.setattr(estimators, "_NORMALS", 1 << 30)
        increments = (_increment("V"), _increment("W"))
        calls = (lambda rng: one_sigma(p, EsParams(), ns, n, rng, *increments),
                 # a grid row: every block is ordered once for all 36 sigma~
                 lambda rng: estimators._drifts(p, EsParams(), ns.m,
                                                GridSpec.default().sigma_values.tolist(), n, rng,
                                                increments),
                 lambda rng: success_probability(p, ns, n, rng))
        for call in calls:
            tracemalloc.start()
            call(np.random.default_rng(76))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert (peak > 4 << 20) if unblocked else (peak < 4 << 20), (d, peak)

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    def test_block_size_does_not_change_counts(self, monkeypatch, a, b):
        p = problem(a, b)
        params = EsParams(alpha=1.5)
        ns = EsState(sample_M_plus_0(p, 0.5), 0.3)
        n = 100_000

        def counts():
            hits = one_sigma(p, params, ns, n, np.random.default_rng(77), _increment("W"))[0]
            return (hits, success_probability(p, ns, n, np.random.default_rng(77)),
                    pairing_check(p, ns.m, 0.3, n, np.random.default_rng(77)))

        default, blocks = counts(), len(estimators._blocks(n, p.d))
        monkeypatch.setattr(estimators, "_NORMALS", 1 << 12)
        assert len(estimators._blocks(n, p.d)) > blocks
        assert counts() == default


def slice_order(p, m, z):
    """The draws' rows in the drift kernel's order: falling rows (Q > 0 > 2G) by
    threshold -2G/Q, the rows with 2G <= 0 and Q <= 0, then rising rows
    (Q < 0 < 2G) by threshold, each sort stable."""
    g2, q = _scalars(p, m, len(z), FixedDraws(z))[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -g2 / q
    falls = np.flatnonzero((q > 0.0) & (g2 < 0.0))
    rises = np.flatnonzero((q < 0.0) & (g2 > 0.0))
    return np.concatenate([falls[np.argsort(t[falls], kind="stable")],
                           np.flatnonzero((q <= 0.0) & (g2 <= 0.0)),
                           rises[np.argsort(t[rises], kind="stable")]])


class TestMaskEdges:
    """With no row, every row and about half the rows accepted, the kernel accepts
    what direct evaluation accepts, its increments scatter the accepted rows'
    values as boolean-mask indexing does, and the block drift pools their
    moments, summed in the kernel's threshold order, bit for bit."""

    N = 4000

    def draws(self, p, case):
        n, d, b = self.N, p.d, p.b
        if case == "none":
            # a unit step along every positive axis raises f above f(m~)
            z = np.zeros((n, d))
            z[:, b:] = 1.0
            return z
        if case == "all":
            # every offspring lands on m~, and a tie is accepted
            return np.zeros((n, d))
        return np.random.default_rng(73).standard_normal((n, d))

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    @pytest.mark.parametrize("case", ["none", "all", "half"])
    def test_kernel_equals_mask_reference(self, a, b, case):
        p = problem(a, b)
        params = EsParams(alpha=1.5)
        ns = EsState(sample_M_plus_0(p, 0.5), 1e-3)
        z = self.draws(p, case)
        acc, nm, npl, _, _ = mask_reference(p, params, ns, z)
        hits = int(np.count_nonzero(acc))
        assert {"none": hits == 0, "all": hits == self.N,
                "half": 0.3 * self.N < hits < 0.7 * self.N}[case]

        samples = one_step_samples(p, params, ns, self.N, FixedDraws(z))
        assert_bitwise(samples.accepted, acc)
        np.testing.assert_allclose(samples.norm_minus, nm, rtol=1e-10)
        np.testing.assert_allclose(samples.norm_plus, npl, rtol=1e-10)
        v = np.full(self.N, closed_form_b1(1.5))
        v[acc] = math.log(1.5) - np.log(samples.norm_plus)
        w = np.zeros(self.N)
        w[acc] = np.minimum(samples.norm_minus / samples.norm_plus - samples.w0, 1.0)
        assert_bitwise(samples.increments("V"), v)
        assert_bitwise(samples.increments("W"), w)

        drift_hits, estimates = one_sigma(p, params, ns, self.N, FixedDraws(z),
                                          _increment("V"), _increment("W"))
        assert drift_hits == hits
        order = slice_order(p, ns.m, z)
        for est, ref, rejected in zip(estimates, (v, w), (closed_form_b1(1.5), 0.0)):
            accepted = ref[order][acc[order]]
            expected = DriftEstimate.from_moments(self.N, *pooled_moments(self.N - hits, rejected,
                                                                          accepted))
            assert_bitwise([est.mean, est.stderr, est.ci_low, est.ci_high],
                           [expected.mean, expected.stderr, expected.ci_low, expected.ci_high])


def block_arrays(block):
    """The per-sample arrays of a ``_scalars`` block: 2G, Q, then the rows of
    semi-norm numbers (each block's R, where it has one, and the steps on the
    mean's coordinates)."""
    g2, q, x, _ = block
    return [g2, q, *x]


class TestRowKernel:
    """The kernel's per-sample numbers against direct evaluation of f and the
    semi-norms at the offspring x = m~ + sigma~ z, on fixed draws."""

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    @pytest.mark.parametrize("sigma", [1e-4, 1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
    def test_matches_direct_evaluation(self, a, b, sigma, w):
        p = problem(a, b)
        m = sample_M_plus_0(p, w)
        z = np.random.default_rng(78).standard_normal((4000, p.d))
        samples = one_step_samples(p, EsParams(), EsState(m, sigma), len(z),
                                   FixedDraws(z))
        x = m + sigma * z
        g2, q = 2.0 * (z @ (p.a * m)), np.square(z) @ p.a
        # acceptance is equal away from ties of f(x) and f(m~)
        tie = np.abs(g2 + sigma * q) <= 1e-12 * (np.abs(g2) + sigma * np.abs(q))
        direct = p.evaluate(x) <= p.evaluate(m)
        assert np.array_equal(samples.accepted[~tie], direct[~tie])
        both = samples.accepted & direct
        rows = both[samples.accepted]
        for kernel, norm in ((samples.norm_minus, p.norm_minus), (samples.norm_plus, p.norm_plus)):
            if np.all(m != 0.0):
                # the mean is nonzero on every coordinate: the very operations
                # of direct evaluation
                assert_bitwise(kernel[rows], norm(x[both]))
            np.testing.assert_allclose(kernel[rows], norm(x[both]), rtol=1e-10)

    def test_small_semi_norm_does_not_cancel(self):
        # offspring whose positive block nearly vanishes: its semi-norm keeps the
        # bits of direct evaluation, where an expansion around the mean cancels
        # to zero or below and ends the V drift in a ValueError
        p = problem((-1.0, 20.0))
        m, sigma = sample_M_plus_0(p, 0.3), 0.1584893192461114
        shift = np.array([1e-9, 1e-12, 1e-15, -1e-12])
        z = np.column_stack([np.full(4, 0.1), -(m[1] + shift) / sigma])
        samples = one_step_samples(p, EsParams(), EsState(m, sigma), 4, FixedDraws(z))
        assert samples.accepted.all()
        x = m + sigma * z
        assert_bitwise(samples.norm_plus, p.norm_plus(x))
        assert np.all(samples.norm_plus > 0.0) and np.all(samples.norm_plus < 1e-7)
        assert np.all(np.isfinite(samples.increments("V")))

class TestKernelBits:
    """A sample's numbers do not depend on the block it is drawn in."""

    @pytest.mark.parametrize("d", [2, 5, 100])
    def test_row_bits_do_not_depend_on_block_size(self, d):
        p = problem((-1.0, *np.geomspace(1.0, 20.0, d - 1)))
        m = sample_M_plus_0(p, 0.5)
        z = np.random.default_rng(75).standard_normal((1000, d))
        whole = block_arrays(_scalars(p, m, len(z), FixedDraws(z)))
        for lo, hi in ((0, 1), (3, 4), (0, 7), (500, 1000)):
            part = block_arrays(_scalars(p, m, hi - lo, FixedDraws(z[lo:hi])))
            assert len(part) == len(whole)
            for x, y in zip(part, whole):
                assert_bitwise(x, y[lo:hi])


class TestSlices:
    """The drift kernel's ordered block holds, at every step size, exactly the
    samples the threshold rule accepts as one slice, also where -2G/Q lands on a
    grid step size or 1 or 2 ulps beside it; the success counts, the drift pass,
    the success curve and sigma~40 read the same rule there."""

    GRID = np.geomspace(0.01, 5.0, 8)

    def near_ties(self, p, m, rng):
        """Draws whose -2G/Q, as the kernel computes it, lies within 2 ulps of a
        grid step size: roots of 2G + sigma Q = 0 in the last coordinate, and
        the 32 representable values to either side of each."""
        j, rows = p.d - 1, []
        for sigma in self.GRID:
            for _ in range(6):
                z = rng.standard_normal(p.d)
                z[j] = 0.0
                g2, q = _scalars(p, m, 1, FixedDraws(z[None]))[:2]
                a, b, c = sigma * p.a[j], 2.0 * p.a[j] * m[j], g2[0] + sigma * q[0]
                if b * b < 4.0 * a * c:
                    continue
                for root in np.roots([a, b, c]).real:
                    tries = np.tile(z, (65, 1))
                    tries[:, j] = root + np.arange(-32, 33) * np.spacing(root)
                    rows.append(tries)
        z = np.concatenate(rows)
        g2, q = _scalars(p, m, len(z), FixedDraws(z))[:2]
        below, above = np.nextafter(self.GRID, 0.0), np.nextafter(self.GRID, math.inf)
        # row k: every grid step size moved by k - 2 ulps
        targets = np.array([np.nextafter(below, 0.0), below, self.GRID, above,
                            np.nextafter(above, math.inf)])
        with np.errstate(divide="ignore", invalid="ignore"):
            tie = (-g2 / q)[:, None, None] == targets
        assert tie.any(axis=(0, 2)).all()
        return z[tie.any(axis=(1, 2))]

    def zero_rows(self, p, m):
        """Rows with 2G = 0 (z = 0 on the mean's coordinates) and with Q = 0
        (-a_0 z_0**2 = a_b z_b**2 in floating point) of either sign of 2G."""
        rows = []
        for other in (0.0, 0.7, 2.0):
            z = np.zeros(p.d)
            z[[k for k in range(p.d) if m[k] == 0.0]] = other
            rows.append(z)
        for z_b in np.linspace(0.5, 2.0, 61):
            square = -p.a[p.b] * z_b * z_b / p.a[0]
            for z_0 in math.sqrt(square) + np.arange(-3, 4) * np.spacing(math.sqrt(square)):
                if p.a[0] * (z_0 * z_0) + p.a[p.b] * (z_b * z_b) == 0.0:
                    for sign in (1.0, -1.0):
                        z = np.zeros(p.d)
                        z[0], z[p.b] = z_0, sign * z_b
                        rows.append(z)
        z = np.array(rows)
        g2, q = _scalars(p, m, len(z), FixedDraws(z))[:2]
        assert np.any(g2 == 0.0) and np.any((q == 0.0) & (g2 < 0.0)) and \
            np.any((q == 0.0) & (g2 > 0.0))
        return z

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    def test_slices_equal_the_kernel_test(self, monkeypatch, a, b):
        p = problem(a, b)
        m = sample_M_plus_0(p, 0.5)
        rng = np.random.default_rng(79)
        z = np.concatenate([rng.standard_normal((20_000, p.d)), self.near_ties(p, m, rng),
                            self.zero_rows(p, m)])
        g2, q = _scalars(p, m, len(z), FixedDraws(z))[:2]
        order, starts, stops = estimators._slices(g2, q, self.GRID)
        counts = []
        for sigma, start, stop in zip(self.GRID, starts, stops):
            accepted = np.flatnonzero(estimators._accepted(g2, q, sigma))
            assert np.array_equal(np.sort(order[start:stop]), accepted), sigma
            counts.append(accepted.size)
        # _accepted is the rule on t = -2G/Q: at t itself and one ulp to each
        # side, a falling sample succeeds up to t and a rising one from t up
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -g2 / q
        falls, rises = (q > 0.0) & (g2 < 0.0), (q < 0.0) & (g2 > 0.0)
        always = (q <= 0.0) & (g2 <= 0.0)
        for rows, expected in ((np.flatnonzero(falls), (True, True, False)),
                               (np.flatnonzero(rises), (False, True, True))):
            for sigma, hit in zip((np.nextafter(t[rows], 0.0), t[rows],
                                   np.nextafter(t[rows], math.inf)), expected):
                assert np.all(estimators._accepted(g2[rows], q[rows], sigma) == hit)
        for sigma in self.GRID:
            assert np.array_equal(estimators._accepted(g2, q, sigma),
                                  always | falls & (t >= sigma) | rises & (t <= sigma))
        # and the draws put thresholds of both classes on a grid step size and
        # one ulp to each side of it
        for shift in (lambda s: np.nextafter(s, 0.0), lambda s: s,
                      lambda s: np.nextafter(s, math.inf)):
            on_grid = np.isin(t, shift(self.GRID))
            assert np.any(on_grid & falls) and np.any(on_grid & rises)
        # the drift pass over the same draws, in blocks, counts the same hits
        hits = [h for h, _ in estimators._drifts(p, EsParams(), m, self.GRID.tolist(), len(z),
                                                 FixedDraws(z), (_increment("W"),))]
        assert len(estimators._blocks(len(z), p.d)) > 1 and hits == counts
        # and sigma~40 of the draws is the last step size at which the kernel's
        # own count is still >= 0.4
        monkeypatch.setattr(estimators, "task_rng", lambda *key: FixedDraws(z))
        value = _sigma_40(p, m, self.GRID.tolist(), counts, len(z), 0, 0)

        def hits_at(sigma):
            return np.count_nonzero(estimators._accepted(g2, q, sigma))

        def rate(sigma):
            return hits_at(sigma) / len(z)

        assert rate(value) >= 0.4 > rate(math.nextafter(value, math.inf))
        # sigma~40 is, bit for bit, the threshold of one falling sample
        assert np.any(falls & (t == value))
        # the success curve of each grid cell steps from the count at its lower
        # end to the count at its upper end, where thresholds lie on both ends
        for j in range(1, len(self.GRID)):
            lo, hi = self.GRID[j - 1], self.GRID[j]
            positions, changes = _success_curve(p, m, lo, hi, len(z), FixedDraws(z))
            assert counts[j - 1] + changes.sum() == counts[j]
            steps = np.flatnonzero(np.isclose(positions, lo, rtol=1e-14, atol=0.0)
                                   | np.isclose(positions, hi, rtol=1e-14, atol=0.0))
            for k in steps.tolist():
                below = counts[j - 1] + changes[:k].sum()
                assert hits_at(np.nextafter(positions[k], 0.0)) == below
                assert hits_at(positions[k]) == below + changes[k]


    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-1.0, -3.0, 2.0, 5.0, 20.0), 2)])
    def test_equal_thresholds_keep_draw_order(self, a, b):
        # every row twice: each pair has one threshold, and the order is the
        # stable sort's, so a point's sum order does not depend on the sort
        p = problem(a, b)
        m = sample_M_plus_0(p, 0.5)
        z = np.repeat(np.random.default_rng(80).standard_normal((4000, p.d)), 2, axis=0)
        g2, q = _scalars(p, m, len(z), FixedDraws(z))[:2]
        order = estimators._slices(g2, q, self.GRID)[0]
        assert np.array_equal(order, slice_order(p, m, z))


class FixedDraws:
    """Stands in for a Generator: standard_normal calls return copies of the
    next rows of the same draws, starting over once all are used, so each full
    pass of a kernel and of its reference sees equal offspring."""

    def __init__(self, z):
        self.z, self.row = z, 0

    def standard_normal(self, shape):
        rows, d = shape
        assert d == self.z.shape[1] and self.row + rows <= len(self.z)
        draws = self.z[self.row:self.row + rows].copy()
        self.row = (self.row + rows) % len(self.z)
        return draws


def pooled_moments(n_rejected, rejected, accepted):
    """Mean and summed squared deviations of n_rejected copies of the constant
    ``rejected`` together with the ``accepted`` values, pooled with the two-group
    formula of Chan, Golub & LeVeque (1979)."""
    if accepted.size == 0:
        return rejected, 0.0
    mean = float(accepted.mean())
    m2 = float(np.square(accepted - mean).sum())
    if n_rejected == 0:
        return mean, m2
    n = n_rejected + accepted.size
    delta = mean - rejected
    return (rejected + delta * (accepted.size / n),
            m2 + delta * delta * (n_rejected * accepted.size / n))


def assert_bitwise(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()
