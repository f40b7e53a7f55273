"""Scale-invariant normalized states.

A raw state (m, sigma) is divided by the positive-block semi-norm of the mean,
collapsing each scaling ray onto a single normalized state (m~, sigma~) with
norm_plus(m~) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import SaddleProblem


class NormPlusZeroError(ValueError):
    """An accepted offspring's positive-block semi-norm is 0, so its V increment
    log(alpha) - log(norm_plus) is undefined; only ``estimators._v_parts`` raises it."""


@dataclass(frozen=True)
class NormalizedState:
    """State on the unit shell of the positive-block semi-norm."""

    m_tilde: np.ndarray
    sigma_tilde: float

    def __post_init__(self):
        m = np.asarray(self.m_tilde, dtype=float)
        if m.ndim != 1:
            raise ValueError("normalized mean must be a one-dimensional point")
        if not 0.0 < self.sigma_tilde < math.inf:
            raise ValueError(f"sigma_tilde must be positive and finite, got {self.sigma_tilde!r}")
        object.__setattr__(self, "m_tilde", m)
        object.__setattr__(self, "sigma_tilde", float(self.sigma_tilde))


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

