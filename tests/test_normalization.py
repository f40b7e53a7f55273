import numpy as np
import pytest

from saddle_es import SaddleProblem, sample_M_plus_0


def problem(a=(-1.0, 1.0), b=1):
    return SaddleProblem(a=np.asarray(a, dtype=float), b=b)


def w_of(p, m):
    """W of a raw mean: norm_minus(m) / norm_plus(m)."""
    return p.norm_minus(m) / p.norm_plus(m)


class TestPotentials:
    def test_w_threshold_matches_region(self):
        p = problem((-1.0, 20.0))
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = rng.standard_normal(2)
            if p.norm_plus(m) == 0.0:
                continue
            w = w_of(p, m)
            sign = np.sign(p.evaluate(m))
            if w > 1.0 + 1e-12:
                assert sign == -1.0
            elif w < 1.0 - 1e-12:
                assert sign == 1.0

    def test_w_raw_state_example(self):
        p = problem()
        assert w_of(p, np.array([3.0, 2.0])) == 1.5
        assert p.evaluate([3.0, 2.0]) < 0.0


class TestSampleMPlus0:
    def test_deterministic_examples(self):
        assert np.array_equal(sample_M_plus_0(problem(), 0.0), [0.0, 1.0])
        assert np.array_equal(sample_M_plus_0(problem(), 1.0), [1.0, 1.0])
        assert np.array_equal(sample_M_plus_0(problem((-4.0, 1.0)), 1.0), [0.5, 1.0])

    def test_norms_match_request(self):
        p = SaddleProblem(a=np.array([-3.0, -0.5, 7.0, 2.0, 11.0]), b=2)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            m = sample_M_plus_0(p, w)
            assert p.norm_plus(m) == pytest.approx(1.0, rel=1e-12)
            assert p.norm_minus(m) == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_w_out_of_range(self):
        with pytest.raises(ValueError):
            sample_M_plus_0(problem(), 1.5)
        with pytest.raises(ValueError):
            sample_M_plus_0(problem(), -0.1)

