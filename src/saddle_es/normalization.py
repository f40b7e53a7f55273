"""Scale-invariant normalized states and the drift potentials built on them.

A raw state (m, sigma) is divided by the positive-block semi-norm of the mean,
collapsing each scaling ray onto a single normalized state (m~, sigma~) with
norm_plus(m~) = 1.  The potentials are V = log(sigma~), W = norm_minus(m~),
and their weighted combination phi = beta * V + W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .es import EsState
from .objective import SaddleProblem


class NormPlusZeroError(ValueError):
    """The positive-block semi-norm of the mean vanished; normalization is undefined."""


@dataclass(frozen=True)
class NormalizedState:
    """State on the unit shell of the positive-block semi-norm."""

    m_tilde: np.ndarray
    sigma_tilde: float

    def __post_init__(self):
        m = np.asarray(self.m_tilde, dtype=float)
        if m.ndim != 1:
            raise ValueError("normalized mean must be a one-dimensional point")
        if not self.sigma_tilde > 0.0:
            raise ValueError("sigma_tilde must be positive")
        object.__setattr__(self, "m_tilde", m)
        object.__setattr__(self, "sigma_tilde", float(self.sigma_tilde))


@dataclass(frozen=True)
class PotentialValues:
    """V, W and phi = beta * V + W at one normalized state."""

    v: float
    w: float
    phi: float
    beta: float


def normalize(problem: SaddleProblem, state: EsState) -> NormalizedState:
    """Divide mean and step size by norm_plus(m).

    Idempotent up to roundoff.  Raises NormPlusZeroError when the mean lies in
    the span of the negative-curvature directions (norm_plus(m) = 0).
    """
    scale = problem.norm_plus(state.m)
    if scale == 0.0:
        raise NormPlusZeroError("mean has zero positive-block semi-norm")
    return NormalizedState(m_tilde=state.m / scale, sigma_tilde=state.sigma / scale)


def w_of(problem: SaddleProblem, m) -> float:
    """W of a raw mean: norm_minus(m) / norm_plus(m)."""
    plus = problem.norm_plus(m)
    if plus == 0.0:
        raise NormPlusZeroError("mean has zero positive-block semi-norm")
    return problem.norm_minus(m) / plus


def potentials(problem: SaddleProblem, ns: NormalizedState, beta: float) -> PotentialValues:
    """Evaluate the potentials at a normalized state.

    W is computed from the semi-norm, never from f, to avoid cancellation near
    the zero level set.  beta = 0 is allowed and makes phi degenerate to W.
    """
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    v = math.log(ns.sigma_tilde)
    w = float(problem.norm_minus(ns.m_tilde))
    return PotentialValues(v=v, w=w, phi=beta * v + w, beta=beta)


def in_M_plus_0(problem: SaddleProblem, ns: NormalizedState, tol: float = 1e-12) -> bool:
    """True iff norm_minus(m~) <= 1 (closed set; within ``tol`` of the boundary counts inside)."""
    plus = problem.norm_plus(ns.m_tilde)
    if abs(plus - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized: norm_plus(m_tilde) = {plus}")
    return float(problem.norm_minus(ns.m_tilde)) <= 1.0 + tol


def sample_M_plus_0(problem: SaddleProblem, w: float,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Mean with norm_plus = 1 and norm_minus = w, parametrizing the compact shell.

    Without ``rng`` the choice is deterministic: all weight on the first axis
    of each block, positive signs.  With ``rng``, block directions are drawn
    uniformly on the unit spheres of the whitened (Mahalanobis) coordinates.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    if rng is None:
        return _shell_point(problem, w)
    b = problem.b
    m = np.zeros(problem.d)
    m[:b] = w * _unit_shell_direction(-problem.a[:b], rng)
    m[b:] = _unit_shell_direction(problem.a[b:], rng)
    return m


def _shell_point(problem: SaddleProblem, w: float) -> np.ndarray:
    """Deterministic mean with norm_plus = 1 and norm_minus = w >= 0: all weight
    on the first axis of each block, positive signs.  w > 1 lies inside the
    negative region."""
    m = np.zeros(problem.d)
    m[0] = w / math.sqrt(-problem.a[0])
    m[problem.b] = 1.0 / math.sqrt(problem.a[problem.b])
    return m


def _unit_shell_direction(coeffs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """x with sum(coeffs * x^2) = 1, direction uniform in whitened coordinates."""
    while True:
        u = rng.standard_normal(coeffs.size)
        r = float(np.linalg.norm(u))
        if r > 0.0:
            break
    return (u / r) / np.sqrt(coeffs)
