import math

import numpy as np
import pytest

from saddle_es import EsParams, EsState, SaddleProblem, run, sample_M_plus_0
from saddle_es.es import _f
from saddle_es.objective import _groups


def make(a, b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


class TestConstruction:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            make([-1.0, 0.0])
        with pytest.raises(ValueError):
            make([0.0, 1.0])

    def test_rejects_wrong_sign_pattern(self):
        with pytest.raises(ValueError):
            make([1.0, -1.0])
        with pytest.raises(ValueError):
            SaddleProblem(a=np.array([-1.0, -2.0, 3.0]), b=1)

    def test_rejects_bad_split_index(self):
        for b in (0, 2, -1):
            with pytest.raises(ValueError):
                SaddleProblem(a=np.array([-1.0, 1.0]), b=b)

    def test_rejects_too_small_dimension(self):
        with pytest.raises(ValueError):
            SaddleProblem(a=np.array([-1.0]), b=1)

    def test_dimension_property(self):
        assert make([-1.0, 2.0, 3.0]).d == 3

    def test_json_round_trip(self):
        p = SaddleProblem(a=np.array([-4.0, -1.0, 1.0, 20.0]), b=2)
        q = SaddleProblem(**p.to_dict())
        assert np.array_equal(p.a, q.a) and p.b == q.b
        assert p.to_dict() == {"a": [-4.0, -1.0, 1.0, 20.0], "b": 2}


class TestEvaluate:
    def test_known_values(self):
        assert make([-4.0, 1.0]).evaluate([1.0, 2.0]) == 0.0
        assert make([-1.0, 20.0]).evaluate([2.0, 1.0]) == 16.0
        assert make([-1.0, 1.0]).evaluate([0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make([-1.0, 1.0]).evaluate([1.0, 2.0, 3.0])

    def test_batch_evaluation(self):
        p = make([-1.0, 20.0])
        x = np.array([[2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(p.evaluate(x), [16.0, 0.0])

    @pytest.mark.parametrize("a,b", [((-1.0, 20.0), 1), ((-3.0, -0.5, 7.0, 2.0, 0.1), 2)])
    def test_single_point_equals_its_batch_value(self, a, b):
        # a BLAS dot and a BLAS matrix-vector product round a d=2 point
        # differently, by an ulp on about a quarter of random points; nor may
        # the batch's memory layout change the bits
        p = make(a, b)
        x = np.random.default_rng(6).standard_normal((2000, p.d))
        for method in (p.evaluate, p.norm_minus, p.norm_plus):
            batch = method(x)
            assert all(method(point) == value for point, value in zip(x, batch.tolist()))
            assert method(x.reshape(-1, 4, p.d)).ravel().tobytes() == batch.tobytes()
            assert method(np.asfortranarray(x)).tobytes() == batch.tobytes()
            assert method(np.repeat(x, 2, axis=0)[::2]).tobytes() == batch.tobytes()


class TestOneSumWithTheEs:
    """evaluate and the ES's acceptance and escape decisions use one sum."""

    def test_run_records_equal_evaluate(self):
        p = make((-1.0, -3.0, 2.0, 5.0, 20.0), 2)
        init = EsState(m=sample_M_plus_0(p, 0.5), sigma=0.3)
        trace = run(p, EsParams(max_iters=2000), init, np.random.default_rng(7), stop=False,
                    record_every=1)
        assert len(trace.records) == 2001
        for record in trace.records:
            assert record.f_value == p.evaluate(record.m)

    @pytest.mark.parametrize("d", [3, 5, 100])
    def test_cone_points_equal_the_es_f(self, d):
        # points of the f = 0 cone, where the sign of f is decided by the last
        # bits of the sum: x_1 = sqrt(sum_{j>1} a_j x_j**2) with a_1 = -1
        rng = np.random.default_rng(d)
        p = make((-1.0, *rng.uniform(0.1, 50.0, d - 1)))
        for _ in range(10):     # 10**5 points in blocks of 10**4
            x = rng.standard_normal((10_000, d)) * rng.uniform(1e-3, 1e3)
            x[:, 0] = np.sqrt(np.square(x[:, 1:]) @ p.a[1:])
            es_f = _f(np.square(x), p.a)
            assert p.evaluate(x).tobytes() == es_f.tobytes()
        assert all(p.evaluate(point) == value for point, value in zip(x[:500], es_f[:500]))


def test_groups_split_axes_by_equal_coefficient():
    assert _groups(np.array([-1.0, 20.0, 5.0, 20.0, -1.0, 7.0])) == [[0, 4], [1, 3], [2], [5]]
    assert _groups(np.array([-2.0, 3.0, 1.0])) == [[0], [1], [2]]


class TestSemiNorms:
    def test_known_values(self):
        assert make([-1.0, 1.0]).norm_minus([3.0, 2.0]) == 3.0
        assert make([-1.0, 1.0]).norm_plus([3.0, 2.0]) == 2.0
        p = make([-4.0, 1.0])
        assert p.norm_minus([1.0, 2.0]) == 2.0
        assert p.norm_plus([1.0, 2.0]) == 2.0
        assert make([-1.0, 20.0]).norm_minus([0.0, 1.0]) == 0.0
        assert make([-1.0, 20.0]).norm_plus([0.0, 1.0]) == pytest.approx(np.sqrt(20.0))

    def test_zero_negative_block_is_positive_zero(self):
        # sqrt(-q) of a zero block would be -0.0
        p = make([-1.0, 20.0])
        assert math.copysign(1.0, p.norm_minus([0.0, 1.0])) == 1.0
        q = SaddleProblem(a=np.array([-3.0, -0.5, 7.0, 2.0, 0.1]), b=2)
        for problem, batch in ((p, np.zeros((3, 2))), (q, np.eye(5)[2:])):
            values = problem.norm_minus(batch)
            assert np.array_equal(values, np.zeros(len(batch)))
            assert np.all(np.copysign(1.0, values) == 1.0)

    def test_consistency_with_objective(self):
        rng = np.random.default_rng(3)
        p = SaddleProblem(a=np.array([-3.0, -0.5, 7.0, 2.0, 0.1]), b=2)
        for _ in range(200):
            x = rng.standard_normal(5) * rng.choice([0.01, 1.0, 100.0])
            plus2 = p.norm_plus(x) ** 2
            minus2 = p.norm_minus(x) ** 2
            assert abs(p.evaluate(x) - (plus2 - minus2)) <= 1e-12 * (plus2 + minus2)

    def test_triangle_inequality_minus(self):
        rng = np.random.default_rng(4)
        p = SaddleProblem(a=np.array([-3.0, -0.5, 7.0, 2.0]), b=2)
        for _ in range(200):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            assert p.norm_minus(u + v) <= p.norm_minus(u) + p.norm_minus(v) + 1e-12


class TestScaleInvariance:
    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        p = make([-1.0, 20.0])
        for _ in range(200):
            x = rng.standard_normal(2)
            c = float(rng.uniform(0.01, 100.0))
            fx = p.evaluate(x)
            assert p.evaluate(c * x) == pytest.approx(c * c * fx, rel=1e-12, abs=1e-300)

    def test_ranking_preserved(self):
        rng = np.random.default_rng(6)
        p = make([-4.0, 1.0])
        for _ in range(200):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            c = float(rng.uniform(0.01, 100.0))
            assert (p.evaluate(x) < p.evaluate(y)) == (p.evaluate(c * x) < p.evaluate(c * y))
