"""Escape-time experiments, survival-curve diagnostics, and drift maps.

Trials and grid points are independent tasks on derived streams, mapped to
workers by ``tasks`` (see its docstring); grid point (w_i, sigma~_j) reads its
"point" stream whatever the drift quantity.  Aggregation is in task order, so
results are bit-identical for any thread count given the same master seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .es import (BUDGET, GENERATOR_NAME, TARGET, UNDERFLOW, EsParams, EsState, _batch_trials,
                 escape_times)
from .estimators import GridPointEstimate, GridSpec, StepSamples, _grid_pass, _phi_increments
from .normalization import _shell_point
from .objective import SaddleProblem
from .tasks import _map_tasks, _task_rngs

ESCAPED = "escaped"
CENSORED = "censored"
UNDERFLOWED = "underflow"

# Reporting-only fallback weight for the combined potential before the
# constants pipeline has produced beta = -C / (2 B1).
DEFAULT_BETA_FALLBACK = 0.1


@dataclass(frozen=True)
class EscapeExperimentSpec:
    """Escape experiment: repeated independent runs from one initial family.

    The initial mean sits on the norm_plus = 1 shell at norm_minus = w0
    (deterministic parametrization, so sigma_tilde0 is also the raw initial
    step size); w0 in [0, 1] covers the compact shell, larger values start
    inside the negative region.
    """

    problem: SaddleProblem
    params: EsParams
    w0: float = 0.0
    sigma_tilde0: float = 1.0
    trials: int = 1000
    budget: int = 1_000_000
    master_seed: int = 0

    def __post_init__(self):
        if self.w0 < 0.0:
            raise ValueError("w0 must be nonnegative")
        if not self.sigma_tilde0 > 0.0:
            raise ValueError("sigma_tilde0 must be positive")
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
    """Least-squares line through log S(t) over a survival range.

    A goodness-of-line diagnostic, not a hypothesis test.  ``rate`` is the
    negated slope (nan when fewer than 3 curve points fall in the range).
    """

    rate: float
    intercept: float
    r_squared: float
    n_points: int
    s_range: tuple

    def to_dict(self) -> dict:
        return {"rate": self.rate, "intercept": self.intercept,
                "r_squared": self.r_squared, "n_points": self.n_points,
                "s_range": list(self.s_range)}


@dataclass
class HittingTimeStats:
    """Per-trial escape times plus survival-curve summaries.

    Counts are primary (they sum to ``trials`` exactly); fractions are derived.
    ``times`` holds the first iteration in the negative region for escaped
    trials, the budget for censored trials, and the stopping iteration for
    step-size-underflow trials.  An underflow count > 0 flags premature
    convergence, which the escape model predicts cannot happen.
    """

    statuses: list
    times: np.ndarray
    n_escaped: int
    n_censored: int
    n_underflow: int
    quantiles: dict
    survival_t: np.ndarray
    survival_s: np.ndarray
    tail: Optional[TailFit]
    trials: int
    budget: int
    master_seed: int

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
            "generator": GENERATOR_NAME,
            "seed": self.master_seed,
            "trials": self.trials,
            "budget": self.budget,
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

    def survival_rows(self):
        return [(int(t), float(s)) for t, s in zip(self.survival_t, self.survival_s)]


def _escape_batch(args) -> tuple[list, np.ndarray]:
    """Trials lo..hi-1 of an escape experiment, each on its own trial stream
    ``task_rng(spec.master_seed, "trial", k)``; the batch's streams are derived
    in one vectorized pass (``tasks._task_rngs``)."""
    spec, lo, hi = args
    rngs = _task_rngs(spec.master_seed, "trial", lo, hi)
    return escape_times(spec.problem, replace(spec.params, max_iters=spec.budget),
                        spec.initial_state(), rngs)


def survival_curve(times: np.ndarray, escaped_mask: np.ndarray):
    """Empirical survival S(t) = fraction of trials with escape time > t,
    evaluated at the distinct escape times.  Non-escaped trials never count as
    escaped, so they hold the curve up.
    """
    finite = np.asarray(times)[np.asarray(escaped_mask)]
    if finite.size == 0:
        return np.array([], dtype=int), np.array([])
    t_values = np.unique(finite)
    counts = np.searchsorted(np.sort(finite), t_values, side="right")
    s = 1.0 - counts / len(times)
    return t_values.astype(int), s


def fit_exponential_tail(t: np.ndarray, s: np.ndarray,
                         s_range: tuple = (0.01, 0.5)) -> TailFit:
    """Fit log S(t) = intercept - rate * t over the points with S in ``s_range``."""
    lo, hi = s_range
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError("survival fit range must satisfy 0 < low < high <= 1")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    mask = (s >= lo) & (s <= hi) & (s > 0.0)
    n_points = int(np.count_nonzero(mask))
    if n_points < 3:
        return TailFit(rate=math.nan, intercept=math.nan, r_squared=math.nan,
                       n_points=n_points, s_range=tuple(s_range))
    x = t[mask]
    y = np.log(s[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else math.nan
    return TailFit(rate=float(-slope), intercept=float(intercept), r_squared=r2,
                   n_points=n_points, s_range=tuple(s_range))


def run_escape_experiment(spec: EscapeExperimentSpec, threads: int = 1,
                          fit_s_range: tuple = (0.01, 0.5)) -> HittingTimeStats:
    """Run ``spec.trials`` independent escape trials and summarize them.

    Trials run in batches of consecutive indices through ``es.escape_times``;
    each trial reads its own stream, so batching and ``threads`` never change a
    trial's result.  Only the escape time and terminal reason are kept.
    """
    size = _batch_trials(spec.problem.d)
    batches = [(spec, lo, min(lo + size, spec.trials)) for lo in range(0, spec.trials, size)]
    results = _map_tasks(_escape_batch, batches, threads)
    status = {TARGET: ESCAPED, BUDGET: CENSORED, UNDERFLOW: UNDERFLOWED}
    statuses = [status[reason] for reasons, _ in results for reason in reasons]
    times = np.concatenate([t for _, t in results])
    escaped_mask = np.array([s == ESCAPED for s in statuses])
    n_escaped = int(np.count_nonzero(escaped_mask))
    n_censored = statuses.count(CENSORED)
    n_underflow = statuses.count(UNDERFLOWED)

    escaped_times = times[escaped_mask]
    if escaped_times.size:
        quantiles = {f"p{int(q * 100)}": float(np.quantile(escaped_times, q))
                     for q in (0.1, 0.5, 0.9, 0.99)}
    else:
        quantiles = {}
    surv_t, surv_s = survival_curve(times, escaped_mask)
    tail = fit_exponential_tail(surv_t, surv_s, fit_s_range) if surv_t.size else None
    return HittingTimeStats(statuses=statuses, times=times,
                            n_escaped=n_escaped, n_censored=n_censored,
                            n_underflow=n_underflow, quantiles=quantiles,
                            survival_t=surv_t, survival_s=surv_s, tail=tail,
                            trials=spec.trials, budget=spec.budget,
                            master_seed=spec.master_seed)


def drift_map(problem: SaddleProblem, params: EsParams, quantity: str,
              grid: GridSpec | None = None, n: int = 100_000,
              master_seed: int = 0, beta: Optional[float] = None,
              confidence: float = 0.99, threads: int = 1) -> list:
    """Evaluate one drift quantity ("V", "W", or "Phi") on the full (w, sigma~)
    grid, one derived stream per point, rows in grid order (w-major).

    Every quantity reads the per-point streams of the constants pipeline, so the
    V and W maps agree with it for the same master seed, grid, and n.
    """
    beta = DEFAULT_BETA_FALLBACK if beta is None else beta
    increment = {"v": StepSamples.v_increments, "w": StepSamples.w_increments,
                 "phi": functools.partial(_phi_increments, beta)}.get(quantity.lower())
    if increment is None:
        raise ValueError("quantity must be one of V, W, Phi")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    grid = grid if grid is not None else GridSpec.default()
    return [GridPointEstimate(w, s, est) for w, s, _, (est,) in
            _grid_pass(problem, params, grid, n, master_seed, confidence, (increment,), threads)]
