import math
import tracemalloc

import numpy as np
import pytest

from saddle_es import (
    DriftEstimate,
    EsParams,
    GridSpec,
    NormalizedState,
    NormPlusZeroError,
    SaddleProblem,
    StepSamples,
    closed_form_b1,
    closed_form_b2,
    derive_beta_theta,
    drift_map,
    drift_phi,
    drift_v,
    drift_w,
    estimate_constants_report,
    estimate_sigma_40,
    mirror_pair_margins,
    one_step_samples,
    pairing_check,
    saddle_success_analytic_2d,
    saddle_success_mc,
    sample_M_plus_0,
    success_probability,
    task_rng,
)
from saddle_es import estimators
from saddle_es.estimators import _drift
from saddle_es.tasks import _STAGES, _task_rngs

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
    return NormalizedState(m / scale, sigma / scale)


def sample_estimate(values, confidence=0.99):
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    return DriftEstimate.from_moments(values.size, float(mean),
                                      float(np.square(values - mean).sum()), confidence)


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

    def test_binomial_interval_keeps_width_at_zero_and_n_hits(self):
        for hits in (0, 1000):
            est = DriftEstimate.from_binomial(hits, 1000)
            assert 0.0 <= est.ci_low < est.ci_high <= 1.0

    def test_wider_interval_at_higher_confidence(self):
        values = np.random.default_rng(1).standard_normal(500)
        lo = sample_estimate(values, confidence=0.9)
        hi = sample_estimate(values, confidence=0.99)
        assert hi.ci_high - hi.ci_low > lo.ci_high - lo.ci_low


class TestTaskSeed:
    def test_negative_master_rejected(self):
        with pytest.raises(ValueError):
            task_rng(-1, "trial", 0)

    def test_distinct_within_stage(self):
        draws = {task_rng(42, "point", i).integers(1 << 62) for i in range(1000)}
        assert len(draws) == 1000

    def test_distinct_across_master_seeds_and_stages(self):
        keys = [(seed, stage, i) for seed in range(8)
                for stage in ("point", "sigma40", "trial", "pairing")
                for i in range(4)]
        draws = {task_rng(*key).integers(1 << 62) for key in keys}
        assert len(draws) == len(keys)

    @pytest.mark.parametrize("stage, stage_id",
                             [("point", 1), ("sigma40", 3), ("trial", 4), ("pairing", 5)])
    def test_stage_ids_pinned(self, stage, stage_id):
        # a changed id would change every output seeded through the stage
        ref = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(stage_id, 2, 3)))
        assert task_rng(9, stage, 2, 3).integers(1 << 62, size=4).tolist() == \
            ref.integers(1 << 62, size=4).tolist()

    # 2**32 - 1 and 2**32 are one- and two-word seeds, 2**64 - 1 fills two
    # words and 2**70 + 12345 needs three
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 12345])
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
        est = saddle_success_mc(p, 200_000, np.random.default_rng(5))
        assert abs(est.mean - saddle_success_analytic_2d(p)) < 3.0 * est.stderr

    def test_closed_form_requires_2d(self):
        p = SaddleProblem(a=np.array([-1.0, 1.0, 1.0]), b=1)
        with pytest.raises(ValueError):
            saddle_success_analytic_2d(p)


class TestSuccessProbability:
    def test_small_sigma_limit_near_half(self):
        p = problem((-1.0, 20.0))
        for w in (0.0, 0.5):
            ns = NormalizedState(sample_M_plus_0(p, w), 1e-4)
            est = success_probability(p, ns, 100_000, np.random.default_rng(7))
            assert 0.45 <= est.mean <= 0.55

    def test_large_sigma_approaches_saddle_value(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(apex(p), 1e4)
        est = success_probability(p, ns, 100_000, np.random.default_rng(8))
        assert abs(est.mean - saddle_success_analytic_2d(p)) < 4.0 * est.stderr

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            success_probability(problem(), NormalizedState(apex(problem()), 1.0), 99,
                                np.random.default_rng(0))

    def test_scale_invariance_bitwise_for_power_of_two(self):
        # unit plus-block coefficient makes the mean an exact fixed point of
        # normalization, so a power-of-two rescaling round-trips bitwise
        p = problem((-1.0, 1.0))
        ns = NormalizedState(np.array([0.5, 1.0]), 0.7)
        scaled = normalized(p, 4.0 * ns.m_tilde, 4.0 * ns.sigma_tilde)
        assert np.array_equal(scaled.m_tilde, ns.m_tilde)
        assert scaled.sigma_tilde == ns.sigma_tilde
        e1 = success_probability(p, ns, 10_000, np.random.default_rng(9))
        e2 = success_probability(p, scaled, 10_000, np.random.default_rng(9))
        assert e1 == e2

    def test_drift_scale_invariance_bitwise_for_power_of_two(self):
        p = problem((-1.0, 1.0))
        ns = NormalizedState(np.array([0.5, 1.0]), 0.7)
        scaled = normalized(p, 4.0 * ns.m_tilde, 4.0 * ns.sigma_tilde)
        e1 = drift_w(p, EsParams(), ns, 2000, np.random.default_rng(19))
        e2 = drift_w(p, EsParams(), scaled, 2000, np.random.default_rng(19))
        assert e1 == e2


class TestStepSamples:
    def test_rejection_branch_is_exact_constant(self):
        # essentially-never-successful regime: huge step size, tiny success cone
        p = problem((-1.0, 1e8))
        params = EsParams(alpha=1.5)
        ns = NormalizedState(apex(p), 1e4)
        samples = one_step_samples(p, params, ns, 5000, np.random.default_rng(10))
        v = samples.v_increments()
        rejected = ~samples.accepted
        assert rejected.sum() > 4900
        assert np.all(v[rejected] == -0.25 * math.log(1.5))

    def test_w_increment_capped_at_one(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(apex(p), 1e3)
        samples = one_step_samples(p, EsParams(), ns, 20_000, np.random.default_rng(11))
        assert np.all(samples.w_increments() <= 1.0)

    def test_w_increment_bounds_inside_shell(self):
        # increments lie in (-1, 1]: W of the source state is < 1 and rejections give 0
        p = problem((-1.0, 20.0))
        ns = NormalizedState(sample_M_plus_0(p, 0.9), 1.0)
        samples = one_step_samples(p, EsParams(), ns, 20_000, np.random.default_rng(12))
        inc = samples.w_increments()
        assert np.all(inc > -1.0) and np.all(inc <= 1.0)

    def test_norm_plus_zero_successor(self):
        # semi-norms are stored for the accepted offspring only
        synthetic = StepSamples(accepted=np.array([True, False]),
                                norm_minus=np.array([1.0]),
                                norm_plus=np.array([0.0]),
                                w0=0.5, alpha=1.5)
        with pytest.raises(NormPlusZeroError):
            synthetic.v_increments()
        # the truncated W path absorbs the same successor at the cap
        assert synthetic.w_increments()[0] == 1.0


class TestDriftV:
    def test_alpha_two_closed_forms(self):
        assert closed_form_b1(2.0) == pytest.approx(-0.173287, abs=1e-6)
        assert closed_form_b2(2.0) == pytest.approx(0.034657, abs=1e-6)

    def test_near_b1_when_success_is_rare(self):
        p = problem((-1.0, 1e8))
        ns = NormalizedState(apex(p), 1e4)
        est = drift_v(p, EsParams(alpha=1.5), ns, 5000, np.random.default_rng(13))
        assert est.mean == pytest.approx(closed_form_b1(1.5), abs=0.02)

    def test_small_sigma_growth_beats_half_b2(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(apex(p), 1e-3)
        est = drift_v(p, EsParams(alpha=1.5), ns, 10_000, np.random.default_rng(14))
        assert est.ci_low > 0.5 * closed_form_b2(1.5)

    def test_sample_floor(self):
        p = problem()
        with pytest.raises(ValueError):
            drift_v(p, EsParams(), NormalizedState(apex(p), 1.0), 999, np.random.default_rng(0))

    def test_warns_outside_shell(self):
        p = problem((-1.0, 1.0))
        outside = NormalizedState(np.array([1.5, 1.0]), 1.0)
        with pytest.warns(UserWarning):
            drift_v(p, EsParams(), outside, 1000, np.random.default_rng(0))

    def test_rejects_unnormalized_state(self):
        p = problem((-1.0, 20.0))
        with pytest.raises(ValueError):
            drift_v(p, EsParams(), NormalizedState(np.array([1.5, 1.0]), 1.0), 1000,
                    np.random.default_rng(0))


class TestDriftW:
    def test_large_sigma_reaches_saddle_value(self):
        p = problem((-1.0, 1.0))
        ns = NormalizedState(apex(p), 1e3)
        est = drift_w(p, EsParams(alpha=1.5), ns, 20_000, np.random.default_rng(15))
        assert abs(est.mean - 0.5) < 3.0 * est.stderr

    def test_positive_at_spot_checks(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        for i, (w, sigma) in enumerate([(0.0, 1e-4), (0.5, 0.1), (0.9, 10.0), (1.0, 1.0)]):
            ns = NormalizedState(sample_M_plus_0(p, w), sigma)
            est = drift_w(p, params, ns, 20_000, np.random.default_rng(100 + i))
            assert est.ci_low > 0.0, (w, sigma)


class TestDriftPhi:
    def test_beta_zero_equals_w_drift(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(sample_M_plus_0(p, 0.5), 0.5)
        a = drift_phi(p, EsParams(), ns, 0.0, 5000, np.random.default_rng(16))
        b = drift_w(p, EsParams(), ns, 5000, np.random.default_rng(16))
        assert a == b

    def test_linearity_in_beta_on_shared_samples(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = NormalizedState(sample_M_plus_0(p, 0.25), 0.5)
        phi1 = drift_phi(p, params, ns, 1.0, 5000, np.random.default_rng(17))
        phi2 = drift_phi(p, params, ns, 2.0, 5000, np.random.default_rng(17))
        v = drift_v(p, params, ns, 5000, np.random.default_rng(17))
        assert phi2.mean - phi1.mean == pytest.approx(v.mean, rel=1e-9)

    def test_negative_beta_rejected(self):
        p = problem()
        with pytest.raises(ValueError):
            drift_phi(p, EsParams(), NormalizedState(apex(p), 1.0), -1.0, 1000,
                      np.random.default_rng(0))

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
                ns = NormalizedState(m, float(s))
                # phi = beta * V + W with V = log(sigma~) and W = norm_minus(m~) = w
                if constants.beta * math.log(s) + w > 1.0:
                    continue
                est = drift_phi(p, params, ns, constants.beta, 20_000,
                                task_rng(62, "point", i, j))
                assert est.ci_low > 0.0, (w, s)
                checked += 1
        assert checked >= 20

    def test_negative_far_beyond_hitting_threshold(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(apex(p), 1e3)
        est = drift_phi(p, EsParams(alpha=1.5), ns, 0.46, 20_000,
                        np.random.default_rng(63))
        assert est.ci_high < 0.0


class TestSigma40:
    GRID = np.geomspace(1e-4, 1e3, 36)

    def test_never_crossed_returns_inf(self):
        p = problem((-1.0, 1.0))
        assert estimate_sigma_40(p, apex(p), self.GRID, 20_000, 21) == math.inf

    def test_finite_crossing_is_bracketed(self):
        p = problem((-1.0, 100.0))
        value = estimate_sigma_40(p, apex(p), self.GRID, 20_000, 22)
        assert 1e-4 < value < 1e3
        # the success rate at the crossing sits near the threshold
        est = success_probability(p, NormalizedState(apex(p), value), 100_000,
                                  np.random.default_rng(23))
        assert abs(est.mean - 0.4) < 0.05

    def test_reproducible(self):
        p = problem((-1.0, 100.0))
        v1 = estimate_sigma_40(p, apex(p), self.GRID, 10_000, 24)
        v2 = estimate_sigma_40(p, apex(p), self.GRID, 10_000, 24)
        assert v1 == v2

    def test_coarse_grid_rejected(self):
        p = problem()
        with pytest.raises(ValueError):
            estimate_sigma_40(p, apex(p), np.geomspace(1e-4, 1e3, 7), 1000, 0)

    def test_all_failing_grid_rejected(self):
        p = problem((-1.0, 100.0))
        with pytest.raises(ValueError):
            estimate_sigma_40(p, apex(p), np.geomspace(10.0, 1e3, 8), 5000, 0)


class TestConstants:
    SMALL_GRID = GridSpec(w_values=np.array([0.0, 0.5, 1.0]),
                          sigma_values=np.geomspace(1e-4, 1e3, 12))

    def test_beta_theta_arithmetic(self):
        b1 = closed_form_b1(2.0)
        beta, theta = derive_beta_theta(b1, closed_form_b2(2.0), 0.1)
        assert beta == pytest.approx(0.288539, abs=1e-6)
        assert theta == pytest.approx(0.01, rel=1e-12)
        # with beta = -C/(2 B1) the second branch is C/2
        assert 0.1 + beta * b1 == pytest.approx(0.05, rel=1e-12)

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

    def test_sigma_40_equals_public_scan(self):
        p = problem((-1.0, 20.0))
        rep = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                        n=3000, master_seed=35)
        for i, w in enumerate(self.SMALL_GRID.w_values):
            m = sample_M_plus_0(p, float(w))
            assert rep.sigma_40_by_w[i] == estimate_sigma_40(
                p, m, self.SMALL_GRID.sigma_values, 3000, 35, _row=i)

    def test_shared_hits_equal_success_probability(self):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = NormalizedState(sample_M_plus_0(p, 0.5), 0.3)
        n = (1 << 18) + 3000    # two blocks
        hits, (v, w) = _drift(p, params, ns, n, task_rng(36, "point", 1, 2), 0.99,
                              StepSamples.v_increments, StepSamples.w_increments)
        assert hits / n == success_probability(p, ns, n, task_rng(36, "point", 1, 2)).mean
        assert v == drift_v(p, params, ns, n, task_rng(36, "point", 1, 2))
        assert w == drift_w(p, params, ns, n, task_rng(36, "point", 1, 2))

    def test_one_kernel_call_per_grid_point_and_bisection_step(self, monkeypatch):
        calls = []
        offspring = estimators._offspring

        def counted(*args):
            calls.append(args[2])
            return offspring(*args)

        monkeypatch.setattr(estimators, "_offspring", counted)
        p = problem((-1.0, 20.0))
        rep = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                        n=3000, master_seed=37)
        w_points, s_points = self.SMALL_GRID.w_values.size, self.SMALL_GRID.sigma_values.size
        assert all(math.isfinite(s) for s in rep.sigma_40_by_w)    # every row bisects
        assert len(calls) == w_points * s_points + w_points * 12
        assert set(calls) == {3000}

    def test_json_record_keys(self):
        p = problem((-1.0, 20.0))
        c = estimate_constants_report(p, EsParams(alpha=1.5), grid=self.SMALL_GRID,
                                      n=3000, master_seed=33).constants
        assert set(c.to_dict()) == {"alpha", "B1", "B2", "C", "sigma_tilde_40",
                                    "sigma_tilde_star", "beta", "theta",
                                    "confidence", "seed"}


class TestPairing:
    def test_worked_example(self):
        p = problem((-1.0, 1.0))
        in_set, margin = mirror_pair_margins(p, np.array([0.5, 1.0]), np.array([[0.3, 0.9]]))
        assert in_set.shape == margin.shape == (1,)
        assert in_set[0]
        assert margin[0] == pytest.approx(0.3 / 0.9 + 0.7 / 0.9 - 1.0, rel=1e-12)
        assert margin[0] == pytest.approx(0.1111, abs=1e-4)

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

    def test_invalid_radius(self):
        p = problem()
        with pytest.raises(ValueError):
            pairing_check(p, apex(p), 0.0, 100, np.random.default_rng(0))


def mask_reference(p, params, ns, z):
    """Accepted mask, semi-norms and V/W increments of the draws z, built with
    boolean-mask gathers and scatters."""
    x = ns.m_tilde + ns.sigma_tilde * z
    acc = p.evaluate(x) <= p.evaluate(ns.m_tilde)
    nm, npl = p.norm_minus(x)[acc], p.norm_plus(x)[acc]
    log_alpha = math.log(params.alpha)
    v = np.full(z.shape[0], -0.25 * log_alpha)
    v[acc] = log_alpha - np.log(npl)
    w = np.zeros(z.shape[0])
    w[acc] = np.minimum(nm / npl - p.norm_minus(ns.m_tilde), 1.0)
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
        "V": lambda p, params, ns, n, rng: drift_v(p, params, ns, n, rng),
        "W": lambda p, params, ns, n, rng: drift_w(p, params, ns, n, rng),
        "Phi": lambda p, params, ns, n, rng: drift_phi(p, params, ns, 0.7, n, rng),
        "success": lambda p, params, ns, n, rng: success_probability(p, ns, n, rng),
    }

    @pytest.mark.parametrize("n", [5000, 1 << 18, (1 << 19) + 1000])
    def test_matches_whole_array_formulas(self, n):
        p = problem((-1.0, 20.0))
        params = EsParams(alpha=1.5)
        ns = NormalizedState(sample_M_plus_0(p, 0.5), 0.5)
        ref = whole_array_reference(p, params, ns, n, 71)
        for name, estimator in self.ESTIMATORS.items():
            est = estimator(p, params, ns, n, np.random.default_rng(71))
            mean, stderr = ref[name]
            assert est.n == n
            if n <= 1 << 18:
                assert est.mean == mean, name
                assert stderr is None or est.stderr == stderr, name
            else:
                assert est.mean == pytest.approx(mean, rel=1e-12), name
                assert stderr is None or est.stderr == pytest.approx(stderr, rel=1e-12), name

    def test_drift_memory_is_flat_in_n(self):
        p = problem((-1.0, 20.0))
        ns = NormalizedState(sample_M_plus_0(p, 0.5), 0.5)
        peaks = []
        for n in (1 << 19, 1 << 21):
            tracemalloc.start()
            drift_w(p, EsParams(), ns, n, np.random.default_rng(72))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]


class FixedDraws:
    """Stands in for a Generator: every standard_normal call returns a fresh
    copy of the same draws, so a kernel and its reference see equal offspring."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


def assert_bitwise(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class TestMaskEdges:
    """The accepted-row gather and the increment scatters equal boolean-mask
    indexing bit for bit, with no row, every row and about half the rows accepted."""

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
        ns = NormalizedState(sample_M_plus_0(p, 0.5), 1e-3)
        z = self.draws(p, case)
        acc, nm, npl, v, w = mask_reference(p, params, ns, z)
        hits = int(np.count_nonzero(acc))
        assert {"none": hits == 0, "all": hits == self.N,
                "half": 0.3 * self.N < hits < 0.7 * self.N}[case]

        samples = one_step_samples(p, params, ns, self.N, FixedDraws(z))
        assert_bitwise(samples.accepted, acc)
        assert_bitwise(samples.norm_minus, nm)
        assert_bitwise(samples.norm_plus, npl)
        assert_bitwise(samples.v_increments(), v)
        assert_bitwise(samples.w_increments(), w)

        drift_hits, estimates = _drift(p, params, ns, self.N, FixedDraws(z), 0.99,
                                       StepSamples.v_increments, StepSamples.w_increments)
        assert drift_hits == hits
        for est, ref in zip(estimates, (v, w)):
            mean = ref.mean()
            expected = DriftEstimate.from_moments(self.N, float(mean),
                                                  float(np.square(ref - mean).sum()))
            assert_bitwise([est.mean, est.stderr, est.ci_low, est.ci_high],
                           [expected.mean, expected.stderr, expected.ci_low, expected.ci_high])
