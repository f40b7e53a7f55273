"""Diagonal quadratic saddle objectives and their semi-norm geometry.

The objective is f(x) = sum_i a_i * x_i**2 with the first ``b`` coefficients
strictly negative and the rest strictly positive, so the origin is the saddle
point of a full-rank quadratic form.  Everything here is a pure function of
its arguments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class RegionLabel(enum.Enum):
    """Sign region of the objective; the label of x is the sign of f(x)."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


@dataclass(frozen=True)
class SaddleProblem:
    """Coefficients ``a`` and split index ``b`` of a diagonal quadratic saddle.

    Invariants enforced at construction: d >= 2, 1 <= b <= d-1,
    a[i] < 0 for i < b and a[i] > 0 for i >= b (zero coefficients rejected,
    the Hessian must have full rank).
    """

    a: np.ndarray
    b: int

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("coefficient vector must be one-dimensional with at least 2 entries")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        b = int(self.b)
        if not 1 <= b <= a.size - 1:
            raise ValueError(f"split index b={b} outside [1, {a.size - 1}]")
        if not np.all(a[:b] < 0.0):
            raise ValueError("coefficients 1..b must be strictly negative")
        if not np.all(a[b:] > 0.0):
            raise ValueError("coefficients b+1..d must be strictly positive")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.a.size

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.d:
            raise ValueError(f"point has dimension {x.shape[-1] if x.ndim else 0}, expected {self.d}")
        return x

    def evaluate(self, x):
        """f(x) = sum_i a_i x_i^2; accepts a single point or a batch (..., d)."""
        x = self._coerce(x)
        value = np.square(x) @ self.a
        return float(value) if x.ndim == 1 else value

    def norm_minus(self, x):
        """Mahalanobis semi-norm of the negative-curvature block: sqrt(-sum_{i<=b} a_i x_i^2).

        Formed as sqrt(0 - q), which is +0.0 for a zero block where sqrt(-q) is -0.0.
        """
        x = self._coerce(x)
        value = np.sqrt(0.0 - np.square(x[..., : self.b]) @ self.a[: self.b])
        return float(value) if x.ndim == 1 else value

    def norm_plus(self, x):
        """Mahalanobis semi-norm of the positive-curvature block: sqrt(sum_{i>b} a_i x_i^2)."""
        x = self._coerce(x)
        value = np.sqrt(np.square(x[..., self.b :]) @ self.a[self.b :])
        return float(value) if x.ndim == 1 else value

    def classify(self, x, tol: float = 0.0) -> RegionLabel:
        """Region of a single point: NEGATIVE if f < -tol, ZERO if |f| <= tol, else POSITIVE."""
        if tol < 0.0:
            raise ValueError("tolerance must be nonnegative")
        f = self.evaluate(x)
        if f < -tol:
            return RegionLabel.NEGATIVE
        if abs(f) <= tol:
            return RegionLabel.ZERO
        return RegionLabel.POSITIVE

    def to_dict(self) -> dict:
        return {"a": [float(v) for v in self.a], "b": int(self.b)}
