"""The compact shell of means: norm_plus(m) = 1 and norm_minus(m) = w in [0, 1].

A raw state (m, sigma) divided by norm_plus(m) is, by scale invariance, the
strategy's own state at scale one, so the one-step estimators take an
``es.EsState``; the shell points are the means of the grids' states.
"""

from __future__ import annotations

import math

import numpy as np

from .es import EsState
from .objective import SaddleProblem

# the benchmark's probe builds its state under this name
NormalizedState = EsState


def sample_M_plus_0(problem: SaddleProblem, w: float) -> np.ndarray:
    """Mean on the compact shell: the shell point (norm_plus = 1,
    norm_minus = w) for w in [0, 1]."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    return _shell_point(problem, w)


def _shell_point(problem: SaddleProblem, w: float) -> np.ndarray:
    """Deterministic mean with norm_plus = 1 and norm_minus = w >= 0: all weight
    on the first axis of each block, positive signs.  w > 1 lies inside the
    negative region."""
    m = np.zeros(problem.d)
    m[0] = w / math.sqrt(-problem.a[0])
    m[problem.b] = 1.0 / math.sqrt(problem.a[problem.b])
    return m
