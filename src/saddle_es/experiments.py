"""Escape-time experiments, survival-curve diagnostics, and drift maps.

Trials and grid rows are independent tasks on derived streams, mapped to
workers by ``tasks`` (see its docstring); grid row w_i reads its "row" stream
whatever the drift quantity.  Aggregation is in task order, so
results are bit-identical for any thread count given the same master seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .es import BUDGET, TARGET, UNDERFLOW, EsParams, EsState, escape_times
from .estimators import GridPointEstimate, GridSpec, _grid_row, _increment
from .normalization import _shell_point
from .objective import SaddleProblem
from .tasks import _map_tasks, _TaskStreams

# the survival values S(t) that the exponential-tail fit uses
_FIT_S_RANGE = (0.01, 0.5)


@dataclass(frozen=True)
class EscapeExperimentSpec:
    """Escape experiment: repeated independent runs from one initial family.

    The initial mean sits on the norm_plus = 1 shell at norm_minus = w0
    (deterministic parametrization, so sigma_tilde0 is also the raw initial
    step size); w0 in [0, 1] covers the compact shell, larger values start
    inside the negative region.  The point at w0 = 1 lies on the cone f = 0,
    where rounding decides the sign of f, so a start with w0 <= 1 and f < 0,
    which every trial would count as escaped at t = 0, is rejected.
    ``budget`` is the experiment's only iteration budget: every trial runs
    with it in place of ``params.max_iters``.
    """

    problem: SaddleProblem
    params: EsParams
    w0: float = 0.0
    sigma_tilde0: float = 1.0
    trials: int = 1000
    budget: int = 1_000_000
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.w0 < math.inf:
            raise ValueError(f"w0 must be nonnegative and finite, got {self.w0!r}")
        f = self.problem.evaluate(_shell_point(self.problem, self.w0))
        if self.w0 <= 1.0 and f < 0.0:
            raise ValueError(f"the start at w0={self.w0!r} has f={f!r} < 0 by rounding (w0 = 1 "
                             "lies on the cone f = 0); give w0 > 1 to start inside the "
                             "negative region")
        if not 0.0 < self.sigma_tilde0 < math.inf:
            raise ValueError(f"sigma_tilde0 must be positive and finite, got {self.sigma_tilde0!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")

    def initial_state(self) -> EsState:
        return EsState(m=_shell_point(self.problem, self.w0), sigma=self.sigma_tilde0)


@dataclass(frozen=True)
class TailFit:
    """Least-squares line through log S(t) over the survival range ``_FIT_S_RANGE``.

    A goodness-of-line diagnostic, not a hypothesis test.  ``rate`` is the
    negated slope (nan when fewer than 3 curve points fall in the range): the
    decay rate of S over the range from the experiment's start, a transient
    that depends on that start, not an asymptotic rate of the tail.
    """

    rate: float
    intercept: float
    r_squared: float
    n_points: int

    def to_dict(self) -> dict:
        return {"rate": self.rate, "intercept": self.intercept,
                "r_squared": self.r_squared, "n_points": self.n_points,
                "s_range": list(_FIT_S_RANGE)}


@dataclass
class HittingTimeStats:
    """Per-trial escape times plus survival-curve summaries.

    ``reasons`` holds each trial's terminal reason from ``es.escape_times``, in
    trial order: ``es.TARGET`` (escaped), ``es.BUDGET`` (censored) or
    ``es.UNDERFLOW``.  The counts are read from it and sum to ``trials``
    exactly; fractions are derived.  ``times`` holds the first iteration in the
    negative region for escaped trials, the budget for censored trials, and the
    stopping iteration for underflow trials.  ``es._SIGMA_MIN`` says why no
    underflow is no evidence that no trial stalled.
    """

    reasons: list
    times: np.ndarray
    n_escaped: int
    n_censored: int
    n_underflow: int
    quantiles: dict
    survival_t: np.ndarray
    survival_s: np.ndarray
    tail: Optional[TailFit]

    @property
    def trials(self) -> int:
        return len(self.reasons)

    @property
    def escape_fraction(self) -> float:
        return self.n_escaped / self.trials

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.trials

    @property
    def underflow_fraction(self) -> float:
        return self.n_underflow / self.trials

    @property
    def premature_convergence_detected(self) -> bool:
        return self.n_underflow > 0

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_escaped": self.n_escaped,
            "n_censored": self.n_censored,
            "n_underflow": self.n_underflow,
            "escape_fraction": self.escape_fraction,
            "censored_fraction": self.censored_fraction,
            "underflow_fraction": self.underflow_fraction,
            "premature_convergence_detected": self.premature_convergence_detected,
            "quantiles": self.quantiles,
            "tail": None if self.tail is None else self.tail.to_dict(),
        }


def _escape_trials(spec: EscapeExperimentSpec, workers: int, i: int) -> tuple[list, np.ndarray]:
    """Worker i's share of an escape experiment: the contiguous trial range
    [trials * i // workers, trials * (i + 1) // workers), all in one
    ``escape_times`` call.  Trial k reads its own stream
    ``task_rng(spec.master_seed, "trial", k)``; the engine derives the streams
    one batch at a time (``tasks._TaskStreams``)."""
    lo, hi = spec.trials * i // workers, spec.trials * (i + 1) // workers
    return escape_times(spec.problem, replace(spec.params, max_iters=spec.budget),
                        spec.initial_state(), _TaskStreams(spec.master_seed, "trial", lo, hi))


def survival_curve(times: np.ndarray, escaped_mask: np.ndarray):
    """Empirical survival S(t) = fraction of trials with escape time > t,
    evaluated at the distinct escape times.  Non-escaped trials never count as
    escaped, so they hold the curve up.
    """
    return _survival(np.sort(np.asarray(times)[np.asarray(escaped_mask)]), len(times))


def _survival(escaped: np.ndarray, trials: int):
    """``survival_curve`` off the sorted escape times: the last index of each
    distinct time counts the trials escaped by then (np.unique loads numpy.ma)."""
    if escaped.size == 0:
        return np.array([], dtype=int), np.array([])
    last = np.append(np.flatnonzero(escaped[1:] != escaped[:-1]), escaped.size - 1)
    return escaped[last].astype(int), 1.0 - (last + 1) / trials


def _quantile(escaped: np.ndarray, q: float) -> float:
    """np.quantile(escaped, q) of the sorted escape times, bit for bit, without
    loading numpy.ma: the linear method at index (n - 1) q, both lerp branches."""
    index = (escaped.size - 1) * q
    lo = math.floor(index)
    if lo >= escaped.size - 1:
        return float(escaped[-1])
    a, b, t = escaped[lo], escaped[lo + 1], index - lo
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def fit_exponential_tail(t: np.ndarray, s: np.ndarray) -> TailFit:
    """Fit log S(t) = intercept - rate * t over the points with S in ``_FIT_S_RANGE``."""
    lo, hi = _FIT_S_RANGE
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    mask = (s >= lo) & (s <= hi)
    n_points = int(np.count_nonzero(mask))
    if n_points < 3:
        return TailFit(rate=math.nan, intercept=math.nan, r_squared=math.nan,
                       n_points=n_points)
    x = t[mask]
    y = np.log(s[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else math.nan
    return TailFit(rate=float(-slope), intercept=float(intercept), r_squared=r2,
                   n_points=n_points)


def run_escape_experiment(spec: EscapeExperimentSpec, threads: int = 1) -> HittingTimeStats:
    """Run ``spec.trials`` independent escape trials and summarize them.

    Each of ``min(threads, trials)`` workers runs one contiguous range of
    trial indices through one ``es.escape_times`` call; each trial reads its
    own stream, so neither the engine's batches nor ``threads`` ever change a
    trial's result.  Only the escape time and terminal reason are kept.
    """
    # the ranges are cut inside the tasks, after _map_tasks has checked threads
    workers = min(threads, spec.trials)
    results = _map_tasks(functools.partial(_escape_trials, spec, workers), range(workers), threads)
    reasons = list(itertools.chain.from_iterable(r for r, _ in results))
    times = np.concatenate([t for _, t in results])
    escaped = np.sort(times[np.fromiter(reasons, object, len(reasons)) == TARGET])
    quantiles = ({f"p{int(q * 100)}": _quantile(escaped, q) for q in (0.1, 0.5, 0.9, 0.99)}
                 if escaped.size else {})
    surv_t, surv_s = _survival(escaped, times.size)
    tail = fit_exponential_tail(surv_t, surv_s) if surv_t.size else None
    return HittingTimeStats(reasons=reasons, times=times, n_escaped=escaped.size,
                            n_censored=reasons.count(BUDGET),
                            n_underflow=reasons.count(UNDERFLOW), quantiles=quantiles,
                            survival_t=surv_t, survival_s=surv_s, tail=tail)


def drift_map(problem: SaddleProblem, params: EsParams, quantity: str,
              grid: GridSpec | None = None, n: int = 100_000,
              master_seed: int = 0, beta: Optional[float] = None, threads: int = 1) -> list:
    """Evaluate one drift quantity ("V", "W", or "Phi") on the full (w, sigma~)
    grid, one derived stream per grid row, rows in grid order (w-major).

    Every quantity reads the per-row streams of the constants pipeline, so the
    V and W maps agree with it for the same master seed, grid, and n.  Phi needs
    beta, and the other quantities take none; ``_increment`` checks both before
    any row runs.
    """
    increment = _increment(quantity, beta)
    grid = grid if grid is not None else GridSpec.default()
    rows = _map_tasks(functools.partial(_grid_row, problem, params, grid, n, master_seed,
                                        (increment,)), range(grid.w_values.size), threads)
    return [GridPointEstimate(w, s, est) for row in rows for w, s, _, (est,) in row]
