"""(1+1) evolution strategy with multiplicative 1/5-success-rule step-size control.

One offspring per iteration, sampled isotropically around the mean; the mean
moves only when the offspring is not worse (ties accept).  A success multiplies
the step size by alpha, a failure by alpha**-(1/4) (``_FAILURE_EXPONENT``, the
one copy of that exponent), so one success balances four failures at the 1/5
success rate.

Randomness contract: streams are ``numpy.random.Generator`` instances (use
``numpy.random.default_rng(seed)``, i.e. PCG64).  Every iteration of ``run``
consumes exactly d standard normal draws in component order 1..d; ``run``
draws them on the refill schedule of ``escape_times`` (``_rows``: 8, 8, 16,
32, then 64 iterations, never past the budget), and the values used for
iteration t are always the same d normals regardless of the block size.

``escape_times`` runs the lumped chain of the same ES.  Axes with one
coefficient form a group (``objective._groups``); f depends on a group of k
axes only through its radius r = |m_G|, and |m_G + sigma z_G|^2 has the law
of (r + sigma u)^2 + sigma^2 chi^2_(k-1) (Beyer 2001), so one radius per group
of k >= 2 axes carries the escape-time law.  A one-axis group keeps its signed
coordinate.  The reduced state has D coordinates, the one-axis groups' in axis
order and then the G radii.  Each iteration consumes D normals, the radial
normal u of each radius in its group's column, and G chi-square draws
``2 * standard_gamma((k - 1) / 2)``; an accepted offspring's radius is
sqrt((r + sigma u)^2 + sigma^2 chi^2).  ``escape_times`` runs the trials in
consecutive batches of ``_batch_trials(D + G)``, each batch from t = 0 until
none of its trials is left and each trial on its own stream.  A batch refills
at t = 0, 8, 16, 32, 64, 128, ...: each refill covers rows = ``_rows(t,
budget)`` iterations, doubling from ``_REFILL`` to ``_REFILL_MAX`` and never
past the budget, and a trial's stream gives a (rows, D) block of normals and
then, if G > 0, a (rows, G) block of gammas.  The schedule depends on t and
the budget only, so a trial's result does not depend on the trials beside it.
With all coefficients distinct, G = 0, the reduced state is the mean, no gamma
is drawn, a trial reads its normals in order whatever the block size, and each
trial ends exactly as ``run`` ends on its stream; otherwise the two agree in law only, and a trial is replayed by
``escape_times`` on its one stream.  f is ``objective._f``, the one sum behind
``SaddleProblem.evaluate`` and both semi-norms, whose bits for a point do not
depend on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .objective import SaddleProblem, _f, _groups

GENERATOR_NAME = "numpy-pcg64"

TARGET = "target"
BUDGET = "budget"
UNDERFLOW = "underflow"
NONFINITE = "nonfinite"

_FAILURE_EXPONENT = 0.25

# a step size below this floor ends a run in underflow.  No shell start reaches
# it: accepting ties holds sigma / |m| above about 1e-16, so a stalled ES runs
# to its budget and ends as budget; no underflow is no evidence that none stalled
_SIGMA_MIN = 1e-300

# keeps a success from carrying the step size past the float range (see ``run``)
_ALPHA_MAX = 1e100

# the most normals a one-step block in ``estimators`` may hold; an escape batch
# buffers at most _REFILL_MAX / _REFILL = 8 times as many draws
_NORMALS = 1 << 16

# run and each live trial of an escape_times batch refill at iteration count t
# with ``_rows(t, budget)`` iterations of draws, so rows double from _REFILL to
# _REFILL_MAX: one refill per doubling and then one per _REFILL_MAX iterations,
# where an ended escape trial waits up to _REFILL_MAX - 1 frozen steps to leave
_REFILL = 8
_REFILL_MAX = 64


def _rows(t: int, budget: int) -> int:
    """Iterations of draws in the refill at iteration count t < budget."""
    return min(max(t, _REFILL), _REFILL_MAX, budget - t)


def _batch_trials(width: int) -> int:
    """Trials per escape batch, whose buffers then hold at most _REFILL_MAX /
    _REFILL * _NORMALS draws, about 4 MB (a narrow batch, width 3 and 1,024
    trials, about 1.5 MB); one trial if a width exceeds _NORMALS / _REFILL."""
    return max(_NORMALS // (_REFILL * max(width, 8)), 1)


@dataclass(frozen=True)
class EsParams:
    """Strategy parameters: step-size factor and iteration budget."""

    alpha: float = 1.5
    max_iters: int = 100_000

    def __post_init__(self):
        if not 1.0 < self.alpha <= _ALPHA_MAX:
            raise ValueError(f"alpha must be > 1 and at most {_ALPHA_MAX:g}, got {self.alpha!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class EsState:
    """Algorithm state: mean and step size (search-space units)."""

    m: np.ndarray
    sigma: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 1:
            raise ValueError("mean must be a one-dimensional point")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
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
    t_escape: Optional[int]
    n_accepts: int
    n_rejects: int

    @property
    def t_final(self) -> int:
        return self.records[-1].t

    @property
    def final_state(self) -> EsState:
        return EsState(m=self.records[-1].m, sigma=self.records[-1].sigma)


def _check_start(problem: SaddleProblem, init: EsState) -> float:
    """Check the start and return f(init.m), which must be finite."""
    if init.m.size != problem.d:
        raise ValueError(f"initial mean has dimension {init.m.size}, expected {problem.d}")
    if not init.sigma > _SIGMA_MIN:
        raise ValueError(f"initial sigma must exceed the step-size floor {_SIGMA_MIN:g}")
    f0 = problem.evaluate(init.m)
    if not math.isfinite(f0):
        raise ValueError(f"initial mean has non-finite objective value {f0}")
    return f0


# numpy overflow in the offspring evaluation is part of the model: it yields
# f = -inf (an escape), +inf or nan (a rejection)
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def run(problem: SaddleProblem, params: EsParams, init: EsState,
        rng: np.random.Generator, stop: bool = True, record_every: int = 100) -> RunTrace:
    """Iterate until f(m) < 0 (if ``stop``), the budget runs out, the step size
    falls below ``_SIGMA_MIN`` (underflow) or f(m) is not finite.

    With ``stop`` true, f(m) < 0 is checked before each iteration (an initial
    state with f < 0 terminates at t = 0 with reason "target"); a false
    ``stop`` (``False`` or ``None``) runs to the budget.  A mean whose f is not
    finite ends the run with reason "nonfinite", checked after the target, so
    with ``stop`` true an escape to f = -inf is "target".  ``record_every=k``
    keeps every k-th iteration plus all acceptances; ``record_every=0`` keeps
    only the initial and final states.
    Underflow and non-finite values are reported as terminal reasons, never
    raised, and no numpy overflow warning escapes.  From a finite start the
    step size stays finite: a success needs f(x) finite or -inf (an escape), so
    on the positive block x_j**2 and m_j**2 do not overflow (|x_j|, |m_j| <
    1.3e154), and it multiplies a step size below 2.7e154 / |z_j| by alpha <=
    ``_ALPHA_MAX``, which overflows only if |z_j| < 1e-54.
    """
    fm = _check_start(problem, init)
    if record_every < 0:
        raise ValueError("record_every must be nonnegative")

    a = problem.a
    d = problem.d
    m = np.array(init.m, dtype=float)
    sigma = float(init.sigma)
    t = 0
    t_escape = t if fm < 0.0 else None
    n_accepts = n_rejects = 0
    records = [TraceRecord(t, m.copy(), sigma, fm, None)]
    last_accepted: Optional[bool] = None

    dec = params.alpha ** -_FAILURE_EXPONENT
    buf = None
    k = rows = 0

    while True:
        if stop and fm < 0.0:
            reason = TARGET
            break
        if not math.isfinite(fm):
            reason = NONFINITE
            break
        if t >= params.max_iters:
            reason = BUDGET
            break
        if k == rows:
            rows = _rows(t, params.max_iters)
            buf = rng.standard_normal((rows, d))
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
        if sigma < _SIGMA_MIN:
            reason = UNDERFLOW
            break
        if record_every and (last_accepted or t % record_every == 0):
            records.append(TraceRecord(t, m.copy(), sigma, fm, last_accepted))

    if records[-1].t != t:
        records.append(TraceRecord(t, m.copy(), sigma, fm, last_accepted))
    return RunTrace(records=records, reason=reason, t_escape=t_escape, n_accepts=n_accepts,
                    n_rejects=n_rejects)


def _lumped(problem: SaddleProblem, m: np.ndarray):
    """The lumped chain's coefficients, its reduced state at mean ``m`` and the
    gamma shapes of its radii (see the module docstring): (a, y, shape), where
    a and y have the D reduced coordinates, one-axis groups first, and shape
    has (k - 1) / 2 for each of the last G coordinates, the radii.  With G = 0,
    a and y equal ``problem.a`` and ``m``."""
    groups = _groups(problem.a)
    lone = [g[0] for g in groups if len(g) == 1]
    radii = [g for g in groups if len(g) > 1]
    a = np.array([problem.a[i] for i in lone] + [problem.a[g[0]] for g in radii])
    y = np.array([m[i] for i in lone] + [math.hypot(*m[g]) for g in radii])
    return a, y, np.array([(len(g) - 1) / 2 for g in radii])


@_quiet_overflow
def escape_times(problem: SaddleProblem, params: EsParams, init: EsState,
                 rngs: Sequence[np.random.Generator]) -> tuple[list, np.ndarray]:
    """One trial per stream from ``init``, advancing together as arrays on the
    lumped chain (see the module docstring).

    With all coefficients distinct, trial k ends as ``run(problem, params,
    init, rngs[k], record_every=0)`` ends: the returned ``reasons[k]`` and
    ``times[k]`` equal that run's ``reason`` and ``t_final``.  With a repeated
    coefficient they agree with ``run``'s in law only, and
    ``escape_times(problem, params, init, [rngs[k]])`` replays trial k.  A
    trial ends when its mean reaches f < 0 (target), its step size falls below
    ``_SIGMA_MIN`` (underflow) or it has used ``params.max_iters`` iterations
    (budget); see ``_SIGMA_MIN`` for why a stalled trial ends as budget.

    The trials run in consecutive batches ``rngs[lo:lo + size]`` of size =
    ``_batch_trials(D + G)``, each to completion, so a lazy sequence
    (``tasks._TaskStreams``) is read one batch at a time and no stream is held
    past its batch.  Refills grow with the batch's iteration count, up to
    ``_REFILL_MAX`` rows (see the module docstring).  A trial that ends is
    frozen for the rest of its block, up to ``_REFILL_MAX - 1`` steps (f(m) =
    nan and sigma = inf, so it accepts nothing and never reaches the floor),
    and leaves the arrays at the next refill.
    """
    f0 = _check_start(problem, init)
    n = len(rngs)
    if f0 < 0.0 or params.max_iters == 0 or n == 0:
        return [TARGET if f0 < 0.0 else BUDGET] * n, np.zeros(n, dtype=int)
    a, y0, shape = _lumped(problem, init.m)
    d, g = a.size, shape.size
    if g and np.all(shape == shape[0]):
        # a scalar shape spares standard_gamma broadcasting an array on every call
        shape = float(shape[0])
    reasons = np.full(n, BUDGET, dtype=object)
    times = np.full(n, params.max_iters)
    size = _batch_trials(d + g)
    dec = params.alpha ** -_FAILURE_EXPONENT
    # one batch's refill buffers, at the largest refill the budget allows
    buf = np.empty((min(size, n), min(_REFILL_MAX, params.max_iters), d))
    chi = np.empty(buf.shape[:2] + (g,))  # sqrt of each radius' chi-square draw
    for lo in range(0, n, size):
        streams = rngs[lo:lo + size]
        trial = np.arange(lo, lo + len(streams))
        m = np.tile(y0, (trial.size, 1))    # reduced state: coordinates, then radii
        sigma = np.full(trial.size, init.sigma)
        fm = np.full(trial.size, f0)
        t = 0
        while streams:
            rows = _rows(t, params.max_iters)
            z, c = buf[:len(streams), :rows], chi[:len(streams), :rows]
            # indexed, so that no loop variable holds a stream past its batch
            for i, block in enumerate(z):
                streams[i].standard_normal(out=block)
            if g:
                for i, block in enumerate(c):
                    streams[i].standard_gamma(shape, out=block)
                np.sqrt(np.multiply(c, 2.0, out=c), out=c)
            col = sigma[:, None]
            x, sq = np.empty_like(m), np.empty_like(m)  # each step's offspring and squares
            for k in range(rows):
                np.multiply(col, z[:, k], out=x)
                x += m
                np.square(x, out=sq)
                if g:
                    # each radius' square gains sigma^2 chi^2, and x takes the new radius
                    sq[:, d - g:] += np.square(col * c[:, k])
                    np.sqrt(sq[:, d - g:], out=x[:, d - g:])
                fx = _f(sq, a)
                acc = fx <= fm
                np.copyto(m, x, where=acc[:, None])
                np.copyto(fm, fx, where=acc)
                sigma *= np.where(acc, params.alpha, dec)
                t += 1
                # fmin skips the frozen trials' nan
                if np.fmin.reduce(fm) < 0.0 or sigma.min() < _SIGMA_MIN:
                    under = sigma < _SIGMA_MIN
                    ended = fm < 0.0
                    ended |= under
                    reasons[trial[ended]] = TARGET
                    reasons[trial[under]] = UNDERFLOW
                    times[trial[ended]] = t
                    fm[ended] = np.nan
                    sigma[ended] = np.inf
                    if np.isnan(fm).all():
                        break
            # the trials left to run: none once the budget is spent
            keep = np.flatnonzero(~np.isnan(fm)) if t < params.max_iters else []
            streams = [streams[i] for i in keep]
            trial, m, sigma, fm = trial[keep], m[keep], sigma[keep], fm[keep]
    return reasons.tolist(), times
