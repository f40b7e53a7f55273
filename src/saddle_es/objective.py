"""Diagonal quadratic saddle objectives and their semi-norm geometry.

The objective is f(x) = sum_i a_i * x_i**2 with the first ``b`` coefficients
strictly negative and the rest strictly positive, so the origin is the saddle
point of a full-rank quadratic form.  Everything here is a pure function of
its arguments.  f and both semi-norms are one weighted sum, ``_f``, whose bits
for a point do not depend on its batch; ``es`` decides acceptance and escape
with the same sum, so ``evaluate`` agrees bit for bit with the f of its runs.
``_groups`` splits the axes by equal coefficient; the escape engine in ``es``
keeps one radius per group of two or more axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _f(sq: np.ndarray, a: np.ndarray):
    """sum_j a_j * sq[..., j].  Unlike ``sq @ a``, the bits of each point's value
    do not depend on how many points are evaluated together, nor on the
    batch's memory layout (the sum is taken over a C-ordered copy)."""
    return np.einsum("...j,j->...", np.ascontiguousarray(sq), a)


def _groups(a: np.ndarray) -> list:
    """The axes of each distinct coefficient, as lists in the order of their
    first axes.  f depends on a group's axes only through their sum of
    squares, so f is invariant under rotations within each group."""
    axes = {}
    for j, coefficient in enumerate(a.tolist()):
        axes.setdefault(coefficient, []).append(j)
    return list(axes.values())


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
        value = _f(np.square(x), self.a)
        return float(value) if x.ndim == 1 else value

    def norm_minus(self, x):
        """Mahalanobis semi-norm of the negative-curvature block: sqrt(-sum_{i<=b} a_i x_i^2).

        Formed as sqrt(0 - q), which is +0.0 for a zero block where sqrt(-q) is -0.0.
        """
        x = self._coerce(x)
        value = np.sqrt(0.0 - _f(np.square(x[..., : self.b]), self.a[: self.b]))
        return float(value) if x.ndim == 1 else value

    def norm_plus(self, x):
        """Mahalanobis semi-norm of the positive-curvature block: sqrt(sum_{i>b} a_i x_i^2)."""
        x = self._coerce(x)
        value = np.sqrt(_f(np.square(x[..., self.b :]), self.a[self.b :]))
        return float(value) if x.ndim == 1 else value

    def to_dict(self) -> dict:
        return {"a": [float(v) for v in self.a], "b": int(self.b)}
