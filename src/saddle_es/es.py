"""(1+1) evolution strategy with multiplicative 1/5-success-rule step-size control.

One offspring per iteration, sampled isotropically around the mean; the mean
moves only when the offspring is not worse (ties accept).  A success multiplies
the step size by alpha, a failure by alpha**-0.25, so one success balances four
failures at the 1/5 success rate.

Randomness contract: streams are ``numpy.random.Generator`` instances (use
``numpy.random.default_rng(seed)``, i.e. PCG64).  Every iteration consumes
exactly d standard normal draws in component order 1..d.  ``run`` and
``escape_times`` prefetch draws from the stream in blocks; the values used for
iteration t are always the same d normals regardless of the block size.
``escape_times`` advances many trials together, each on its own stream, and f
is computed by one expression whose bits for a point do not depend on how many
points are evaluated together, so each of its trials ends exactly as ``run``
ends on that trial's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .objective import SaddleProblem

GENERATOR_NAME = "numpy-pcg64"

TARGET = "target"
BUDGET = "budget"
UNDERFLOW = "underflow"
NONFINITE = "nonfinite"

_BLOCK = 256

# escape_times refills each trial's (_REFILL, d) block of draws every _REFILL
# iterations and is given at most _batch_trials(d) trials at a time, so one
# batch buffers at most 2**16 normals
_REFILL = 8


def _batch_trials(d: int) -> int:
    return 2 ** 13 // max(d, 8)


def _f(sq: np.ndarray, a: np.ndarray):
    """sum_j a_j * sq[..., j].  Unlike ``sq @ a``, the bits of each point's value
    do not depend on how many points are evaluated together."""
    return np.einsum("...j,j->...", sq, a)


@dataclass(frozen=True)
class EsParams:
    """Strategy parameters: step-size factor, iteration budget, underflow guard."""

    alpha: float = 1.5
    max_iters: int = 100_000
    sigma_min: float = 1e-300

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("alpha must be > 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.sigma_min > 0.0:
            raise ValueError("sigma_min must be positive")


@dataclass(frozen=True)
class EsState:
    """Algorithm state: mean, step size, iteration counter (search-space units)."""

    m: np.ndarray
    sigma: float
    t: int = 0

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 1:
            raise ValueError("mean must be a one-dimensional point")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass
class TraceRecord:
    t: int
    m: np.ndarray
    sigma: float
    f_value: float
    accepted: Optional[bool]  # None for the initial record


@dataclass
class RunTrace:
    """Recorded iterations of one run plus terminal bookkeeping.

    ``records`` is decimated unless the run was started with record_every=1;
    it always contains the initial state, every acceptance, and the final
    state.  ``t_escape`` is the first iteration with f(m) < 0, or None.
    """

    records: list
    reason: str
    final_state: EsState
    t_escape: Optional[int]
    n_accepts: int
    n_rejects: int

    @property
    def t_final(self) -> int:
        return self.final_state.t

    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])

    def summary_dict(self, seed: int, params: EsParams, problem: SaddleProblem) -> dict:
        return {
            "generator": GENERATOR_NAME,
            "seed": seed,
            "reason": self.reason,
            "t_final": int(self.t_final),
            "t_escape": None if self.t_escape is None else int(self.t_escape),
            "f_final": float(self.records[-1].f_value),
            "sigma_final": float(self.final_state.sigma),
            "n_accepts": int(self.n_accepts),
            "n_rejects": int(self.n_rejects),
            "params": {"alpha": params.alpha, "max_iters": params.max_iters,
                       "sigma_min": params.sigma_min},
            "problem": problem.to_dict(),
        }


StopCondition = Callable[[SaddleProblem, EsState], bool]


def target_reached(problem: SaddleProblem, state: EsState) -> bool:
    """Default stop condition: the mean has strictly negative objective value."""
    return problem.evaluate(state.m) < 0.0


def _check_start(problem: SaddleProblem, params: EsParams, init: EsState) -> float:
    """Check the start and return f(init.m), which must be finite."""
    if init.m.size != problem.d:
        raise ValueError(f"initial mean has dimension {init.m.size}, expected {problem.d}")
    if not init.sigma > params.sigma_min:
        raise ValueError("initial sigma must exceed sigma_min")
    f0 = float(_f(np.square(init.m), problem.a))
    if not math.isfinite(f0):
        raise ValueError(f"initial mean has non-finite objective value {f0}")
    return f0


# numpy overflow in the offspring evaluation is part of the model: it yields
# f = -inf (an escape), +inf or nan (a rejection)
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def run(problem: SaddleProblem, params: EsParams, init: EsState,
        rng: np.random.Generator, stop: Optional[StopCondition] = target_reached,
        record_every: int = 100) -> RunTrace:
    """Iterate until the stop condition fires, the budget runs out, the step
    size underflows ``params.sigma_min`` or f(m) is not finite.

    ``stop`` is checked before each iteration (a satisfied initial state
    terminates at t = init.t with reason "target"); ``stop=None`` runs to the
    budget.  A mean whose f is not finite ends the run with reason
    "nonfinite", checked after the stop condition, so under the default stop an
    escape to f = -inf is "target".  ``record_every=k`` keeps every k-th
    iteration plus all acceptances; ``record_every=0`` keeps only the initial
    and final states.
    Underflow and non-finite values are reported as terminal reasons, never
    raised, and no numpy overflow warning escapes.
    """
    fm = _check_start(problem, params, init)
    if record_every < 0:
        raise ValueError("record_every must be nonnegative")

    a = problem.a
    d = problem.d
    m = np.array(init.m, dtype=float)
    sigma = float(init.sigma)
    t = init.t
    t_escape = t if fm < 0.0 else None
    n_accepts = n_rejects = 0
    records = [TraceRecord(t, m.copy(), sigma, fm, None)]
    last_accepted: Optional[bool] = None

    fast_target = stop is target_reached
    dec = params.alpha ** -0.25
    buf = None
    k = _BLOCK

    while True:
        if fast_target:
            hit = fm < 0.0
        else:
            hit = stop is not None and stop(problem, EsState(m=m, sigma=sigma, t=t))
        if hit:
            reason = TARGET
            break
        if not math.isfinite(fm):
            reason = NONFINITE
            break
        if t - init.t >= params.max_iters:
            reason = BUDGET
            break
        if k >= _BLOCK:
            buf = rng.standard_normal((_BLOCK, d))
            k = 0
        x = m + sigma * buf[k]
        k += 1
        fx = float(_f(np.square(x), a))
        t += 1
        if fx <= fm:
            last_accepted = True
            m = x
            fm = fx
            sigma *= params.alpha
            n_accepts += 1
            if t_escape is None and fm < 0.0:
                t_escape = t
        else:
            last_accepted = False
            sigma *= dec
            n_rejects += 1
        if sigma < params.sigma_min:
            reason = UNDERFLOW
            break
        if record_every and (last_accepted or (t - init.t) % record_every == 0):
            records.append(TraceRecord(t, m.copy(), sigma, fm, last_accepted))

    if records[-1].t != t:
        records.append(TraceRecord(t, m.copy(), sigma, fm, last_accepted))
    final_state = EsState(m=m, sigma=sigma, t=t)
    return RunTrace(records=records, reason=reason, final_state=final_state,
                    t_escape=t_escape, n_accepts=n_accepts, n_rejects=n_rejects)


@_quiet_overflow
def escape_times(problem: SaddleProblem, params: EsParams, init: EsState,
                 rngs: Sequence[np.random.Generator]) -> tuple[list, np.ndarray]:
    """One trial per stream from ``init``, all advancing together as arrays.

    Trial k ends as ``run(problem, params, init, rngs[k], record_every=0)``
    ends: the returned ``reasons[k]`` and ``times[k]`` equal that run's
    ``reason`` and ``t_final``.  A trial leaves the batch when its mean reaches
    f < 0 (target), its step size falls below ``params.sigma_min``
    (underflow) or it has used ``params.max_iters`` iterations (budget).
    Memory is one (len(rngs), 8, d) block of draws; callers hand over at most
    ``_batch_trials(d)`` streams at a time.
    """
    f0 = _check_start(problem, params, init)
    a, n = problem.a, len(rngs)
    end = init.t + params.max_iters
    if f0 < 0.0:
        return [TARGET] * n, np.full(n, init.t)
    reasons = np.full(n, BUDGET, dtype=object)
    times = np.full(n, end)
    rows = np.arange(n)                     # trial of each row
    m = np.tile(init.m, (n, 1))
    sigma = np.full(n, init.sigma)
    fm = np.full(n, f0)
    live = np.ones(n, dtype=bool)           # rows whose trial has not ended
    buf = np.empty((n, _REFILL, problem.d))
    dec = params.alpha ** -0.25
    t = init.t
    while t < end and live.any():
        if not live.all():
            rows, m, sigma, fm = rows[live], m[live], sigma[live], fm[live]
            rngs = [rng for rng, keep in zip(rngs, live) if keep]
            live = live[live]
        z = buf[:rows.size]
        for rng, zi in zip(rngs, z):
            rng.standard_normal(out=zi)
        for k in range(min(_REFILL, end - t)):
            x = sigma[:, None] * z[:, k]
            x += m
            fx = _f(np.square(x), a)
            acc = fx <= fm
            acc &= live
            np.copyto(m, x, where=acc[:, None])
            np.copyto(fm, fx, where=acc)
            sigma *= np.where(acc, params.alpha, dec)
            t += 1
            escaped = acc & (fx < 0.0)
            under = live & (sigma < params.sigma_min)
            ended = escaped | under
            if ended.any():
                reasons[rows[escaped]] = TARGET
                reasons[rows[under]] = UNDERFLOW
                times[rows[ended]] = t
                live &= ~ended
                if not live.any():
                    break
    return reasons.tolist(), times
