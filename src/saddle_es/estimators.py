"""Monte Carlo estimators: success probabilities, one-step drifts, drift
constants, and the mirror-pairing verifier.

Drift estimators take one strategy step per sample from the denormalized state
at scale one (norm_plus(m~) = 1 makes the normalized state its own raw state)
and renormalize the successor, because the drifts are one-step quantities.

Every one-step estimate goes through one kernel.  ``_scalars`` draws a block of
normals z (``_blocks``: memory is flat in n and d) and reduces each sample
x = m~ + sigma~ z, in column passes with no BLAS call (so pool workers do not
compete with BLAS helper threads), to G = sum_j a_j m_j z_j and
Q = sum_j a_j z_j**2, and each block's semi-norm to the steps z_j on the
coordinates where m~ is nonzero plus one sum R of |a_j| z_j**2 over the rest.
Then f(x) - f(m~) = sigma (2G + sigma Q) and a block's squared semi-norm is
sigma**2 R + sum |a_j| (m_j + sigma z_j)**2 at every step size sigma, so
``_norms`` evaluates a block at any sigma~ with work per sample that does not
grow with d for the grid's means (one nonzero coordinate per block), and a grid
row draws once for all of its sigma~.

Each sample succeeds on one interval of step sizes, bounded by its threshold
t = -2G/Q, and ``_rule`` alone decides it (up to rounding, f(x) <= f(m~)): a
falling sample (2G < 0 < Q) succeeds at sigma <= t, a rising one (Q < 0 < 2G)
at sigma >= t, one with 2G <= 0 and Q <= 0 always and any other never.  The
drifts order each block once by threshold (``_slices``), so the samples
accepted at any sigma~ are one slice of it, found by a binary search per
sigma~.  A point's moments sum its accepted samples in that threshold order,
not in draw order, and merge them with the rejections' known constant.  The
order does not depend on the worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import es
from .es import _NORMALS, EsParams, EsState
from .normalization import sample_M_plus_0
from .objective import SaddleProblem
from .tasks import _map_tasks, _replay_hint, task_rng

# the level of every interval, and the tolerance of the pairing inequality: the
# acceptance gates are calibrated at these values
CONFIDENCE = 0.99
_Z = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2.0)
PAIRING_EPSILON = 1e-9
# sigma~40: the success rate it bounds
_SIGMA40_RATE = 0.4


def _blocks(n: int, d: int) -> list:
    """Sizes of the fewest near-equal blocks of d-wide rows summing to n, each of at
    most _NORMALS normals and _NORMALS / 4 rows (one row if d exceeds _NORMALS), so
    memory is flat in n and d: the one-step kernel keeps 4 + k numbers per row, k
    the mean's nonzero coordinates (six for a grid mean), and a block of them
    then takes at most twice the memory of _NORMALS draws."""
    k = -(-n // max(_NORMALS // max(d, 4), 1))
    return [n // k + (i < n % k) for i in range(k)]


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo mean with its normal-approximation interval at level CONFIDENCE."""

    mean: float
    stderr: float
    n: int
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an estimate needs at least 2 samples")
        if not self.stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("confidence interval must bracket the mean")

    @classmethod
    def from_moments(cls, n: int, mean: float, m2: float) -> "DriftEstimate":
        """Estimate from a sample's count, mean and summed squared deviations."""
        if n < 2:
            raise ValueError("an estimate needs at least 2 samples")
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        return cls(mean=mean, stderr=stderr, n=n,
                   ci_low=mean - _Z * stderr, ci_high=mean + _Z * stderr)

    @classmethod
    def from_binomial(cls, successes: int, n: int) -> "DriftEstimate":
        """Hit fraction with the Wald stderr and the Wilson (1927) score interval,
        which keeps a positive width at 0 or n hits."""
        p = successes / n
        stderr = math.sqrt(p * (1.0 - p) / n)
        shrink = 1.0 + _Z * _Z / n
        center = (p + _Z * _Z / (2 * n)) / shrink
        half = _Z * math.sqrt(stderr * stderr + _Z * _Z / (4 * n * n)) / shrink
        # the exact interval holds p and lies in [0, 1]; clamp the rounding
        return cls(mean=p, stderr=stderr, n=n,
                   ci_low=max(0.0, min(p, center - half)),
                   ci_high=min(1.0, max(p, center + half)))


def _moments(values: np.ndarray) -> tuple:
    """(count, mean, summed squared deviations), rounded as numpy's mean and std;
    overwrites ``values``."""
    if not values.size:
        return 0, 0.0, 0.0
    mean = float(np.add.reduce(values)) / values.size
    values -= mean
    values *= values
    return values.size, mean, float(np.add.reduce(values))


def _merge(x: tuple, y: tuple) -> tuple:
    """Pairwise update of two (count, mean, M2) triples (Chan, Golub & LeVeque
    1979); merging into (0, 0.0, 0.0) returns y unchanged, and an empty y leaves x."""
    (na, ma, m2a), (nb, mb, m2b) = x, y
    if not nb:
        return x
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * nb / n)


@dataclass(frozen=True)
class GridPointEstimate:
    """One (w, sigma~) grid point of a drift or success-rate map."""

    w: float
    sigma_tilde: float
    est: DriftEstimate


def _describe_point(row: GridPointEstimate, master_seed: int, i: int, j: int) -> str:
    """Grid point (w_i, sigma~_j) of an estimate, with the stream that replays it."""
    return (f"w={row.w!r} sigma~={row.sigma_tilde!r} ci_low={row.est.ci_low!r} "
            f"n={row.est.n}; {_replay_hint(master_seed, 'row', i)} at sigma index {j}")


def _scalars(problem: SaddleProblem, m_tilde: np.ndarray, c: int,
             rng: np.random.Generator) -> tuple:
    """Draw c steps z ~ N(0, I) from mean m~ and reduce them, one column at a
    time, to (2G, Q, x, halves): the per-sample 2G and Q of the module
    docstring, and the semi-norm numbers as rows of x.  ``halves`` holds each
    block (minus, plus) as (row of R, [(|a_j|, m_j, row of z_j) for the
    block's coordinates where m_j != 0]), R being the sum of |a_j| z_j**2 over
    its other coordinates; a block with no other coordinate has R = 0 and the
    row None.  Column i of x belongs to sample i."""
    z = rng.standard_normal((c, problem.d))
    m = np.asarray(m_tilde, dtype=float)
    rests, step = [], 0
    for block in (m[:problem.b], m[problem.b:]):
        rests.append(None if np.all(block) else step)
        step += rests[-1] is not None
    # one array for all rows (2G, Q, the blocks' R, then the steps on the mean's
    # nonzero coordinates): with separate ones, malloc handed a block's memory
    # back to the system and faulted it in again for every block, which made a
    # one-sigma call at 2**14 rows about 1.7 times slower
    rows, term = np.zeros((2 + step + np.count_nonzero(m), c)), np.empty(c)
    x, halves = rows[2:], tuple((rest, []) for rest in rests)
    for j, (a_j, m_j, z_j) in enumerate(zip(problem.a, m, z.T)):
        rest, coords = halves[j >= problem.b]
        np.square(z_j, out=term)
        term *= a_j
        rows[1] += term
        if m_j:
            x[step] = z_j
            coords.append((abs(a_j), m_j, step))
            step += 1
            rows[0] += np.multiply(z_j, 2.0 * a_j * m_j, out=term)
        else:
            x[rest] += np.abs(term, out=term)
    return rows[0], rows[1], x, halves


def _rule(g2: np.ndarray, q: np.ndarray) -> tuple:
    """The success rule of the module docstring, per sample: the threshold t and
    the masks of the samples that succeed at sigma <= t, at sigma >= t and at
    every sigma (Q = 0 gives t = +-inf or nan, which no mask reads)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(g2, q)
    np.negative(t, out=t)
    return t, (q > 0.0) & (g2 < 0.0), (q < 0.0) & (g2 > 0.0), (q <= 0.0) & (g2 <= 0.0)


def _accepted(g2: np.ndarray, q: np.ndarray, sigma: float) -> np.ndarray:
    """Success mask by ``_rule`` at step size sigma (a scalar, or one per sample)."""
    t, falling, rising, always = _rule(g2, q)
    return always | falling & (t >= sigma) | rising & (t <= sigma)


def _slices(g2: np.ndarray, q: np.ndarray, sigmas: np.ndarray) -> tuple:
    """Order a block's samples so ``_rule`` accepts one slice of them at each
    step size of ``sigmas``: (order, starts, stops), the slice at sigmas[k]
    being order[starts[k]:stops[k]] (starts and stops are lists).

    The order is [falling | always | rising], each of falling and rising sorted
    by threshold (stably); the samples that succeed at no step size are left
    out.  At sigma the falling samples with t < sigma have failed and the
    rising ones with t <= sigma have succeeded: two binary searches per step
    size.
    """
    t, falling, rising, always = _rule(g2, q)
    # the block-sized t goes before the sorts allocate: held while they
    # allocate, it pushes the heap past malloc's trim threshold, and every block
    # faults its memory in again (a drift pass about 30% slower at d=2)
    parts = [(rows, t.take(rows)) for rows in (np.flatnonzero(falling), np.flatnonzero(rising))]
    always = np.flatnonzero(always)
    t = falling = rising = None
    groups, cuts = [], []
    for (rows, keys), side in zip(parts, ("left", "right")):
        # the stable order, from numpy's default sort, several times faster than
        # its stable one; equal thresholds, which continuous draws all but never
        # give, go back to draw order
        order = np.argsort(keys)
        rows, keys = rows.take(order), keys.take(order)
        if np.any(keys[1:] == keys[:-1]):
            order = np.lexsort((rows, keys))
            rows, keys = rows.take(order), keys.take(order)
        groups.append(rows)
        # index arithmetic on Python ints: every numpy loop a worker runs for
        # the first time pages in more of numpy's code
        cuts.append(np.searchsorted(keys, sigmas, side).tolist())
    (falls, rises), (failed, risen) = groups, cuts
    return (np.concatenate([falls, always, rises]), failed,
            [falls.size + always.size + k for k in risen])


def _norms(x: np.ndarray, halves: tuple, sigma: float) -> tuple:
    """(norm_minus, norm_plus) at step size sigma of the samples whose semi-norm
    numbers are the columns of x (see ``_scalars``)."""

    def norm(rest, coords):
        # sqrt(sigma**2 R + sum |a_j| (m_j + sigma z_j)**2): no term is negative,
        # so nothing cancels where the semi-norm is small
        square = None if rest is None else np.multiply(x[rest], sigma * sigma)
        for a_j, m_j, j in coords:
            step = np.multiply(x[j], sigma)
            step += m_j
            np.square(step, out=step)
            step *= a_j
            if square is None:
                square = step
            else:
                square += step
        return np.sqrt(square, out=square)

    return norm(*halves[0]), norm(*halves[1])


def success_probability(problem: SaddleProblem, state: EsState, n: int,
                        rng: np.random.Generator) -> DriftEstimate:
    """Fraction of offspring x ~ N(m, sigma^2 I) with f(x) <= f(m).

    Binomial standard error sqrt(p(1-p)/n).  By scale invariance this is the
    success probability of every raw state on the same ray.
    """
    if n < 100:
        raise ValueError("need n >= 100 samples")
    hits = sum(int(np.count_nonzero(_accepted(*_scalars(problem, state.m, c, rng)[:2],
                                              state.sigma)))
               for c in _blocks(n, problem.d))
    return DriftEstimate.from_binomial(hits, n)


def saddle_success_analytic_2d(problem: SaddleProblem) -> float:
    """Closed form for d = 2: the fraction of the plane covered by the double
    cone {f < 0} around the negative axis, (2/pi) * atan(sqrt(|a1| / a2)).

    The angular fraction is already a probability; sampling from the saddle is
    isotropic, so the radial part integrates out.
    """
    if problem.d != 2 or problem.b != 1:
        raise ValueError("closed form requires d = 2 with exactly one negative direction")
    return (2.0 / math.pi) * math.atan(math.sqrt(-problem.a[0] / problem.a[1]))


@dataclass(frozen=True)
class StepSamples:
    """Per-sample outcome of n independent single steps from one normalized state.

    ``accepted`` has one entry per sample.  ``norm_minus``/``norm_plus`` are the
    semi-norms of the accepted offspring only, in draw order: a rejection leaves
    the mean in place and shrinks the step size by the exact factor
    alpha**-es._FAILURE_EXPONENT.  ``increments`` reads the drifts' increment table.
    """

    accepted: np.ndarray
    norm_minus: np.ndarray
    norm_plus: np.ndarray
    w0: float
    alpha: float

    @property
    def n(self) -> int:
        return self.accepted.size

    def increments(self, quantity: str, beta: float | None = None) -> np.ndarray:
        """Per-sample change of drift quantity ``quantity`` by ``_increment``: the
        accepted samples' values, and the exact rejection constant on the others."""
        rejected, accepted = _increment(quantity, beta)(self.norm_minus, self.norm_plus,
                                                        self.w0, self.alpha)
        out = np.full(self.n, rejected)
        out[np.flatnonzero(self.accepted)] = accepted
        return out


def one_step_samples(problem: SaddleProblem, params: EsParams, state: EsState,
                     n: int, rng: np.random.Generator) -> StepSamples:
    """Draw n independent single steps from the state (m, sigma) at scale one, as one block."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    g2, q, x, halves = _scalars(problem, state.m, n, rng)
    accepted = _accepted(g2, q, state.sigma)
    # gather by index: indexing with a random boolean mask is about 10x slower
    norm_minus, norm_plus = _norms(x.take(np.flatnonzero(accepted), axis=1), halves,
                                   state.sigma)
    return StepSamples(accepted=accepted, norm_minus=norm_minus, norm_plus=norm_plus,
                       w0=float(problem.norm_minus(state.m)), alpha=params.alpha)


def _drifts(problem: SaddleProblem, params: EsParams, m_tilde: np.ndarray, sigmas: list,
            n: int, rng: np.random.Generator, increments: tuple) -> list:
    """(hit count, [estimate of each increment]) at each ascending step size of
    ``sigmas``, all from the same n draws.  Per block, ``_slices`` orders the
    samples so those accepted at each step size are one slice; a point sums
    its accepted samples' increments in that order and merges the block's
    rejections as (count, constant, 0)."""
    if n < 1000:
        raise ValueError("drift estimation needs n >= 1000 samples")
    w0 = float(problem.norm_minus(m_tilde))
    hits = [0] * len(sigmas)
    moments = [[(0, 0.0, 0.0)] * len(increments) for _ in sigmas]
    grid = np.asarray(sigmas, dtype=float)
    for c in _blocks(n, problem.d):
        g2, q, x, halves = _scalars(problem, m_tilde, c, rng)
        order, starts, stops = _slices(g2, q, grid)
        # the ordered numbers replace the block's own arrays before the sigma
        # loop, and go before the next block is drawn: a buffer kept across
        # blocks would be alive at the draw, when memory peaks
        x = x.take(order, axis=1)
        g2 = q = order = None
        for k, (sigma, start, stop) in enumerate(zip(sigmas, starts, stops)):
            step = (*_norms(x[:, start:stop], halves, sigma), w0, params.alpha)
            hits[k] += stop - start
            moments[k] = [_merge(_merge(m, (c - stop + start, rejected, 0.0)), _moments(values))
                          for m, (rejected, values) in zip(moments[k],
                                                           [inc(*step) for inc in increments])]
        x = step = None
    return [(h, [DriftEstimate.from_moments(*m) for m in ms])
            for h, ms in zip(hits, moments)]


def drift_w(problem: SaddleProblem, params: EsParams, state: EsState, n: int,
            rng: np.random.Generator) -> DriftEstimate:
    """Expected one-step truncated change of W = norm_minus(m): ``_drifts`` at
    the one step size sigma, so it equals, bit for bit, the W map's point at
    sigma on the same stream.  The state must be normalized (norm_plus(m) = 1)."""
    plus = problem.norm_plus(state.m)
    if abs(plus - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized: norm_plus(m_tilde) = {plus}")
    return _drifts(problem, params, state.m, [state.sigma], n, rng,
                   (_increment("W"),))[0][1][0]


def _v_parts(norm_minus, norm_plus, w0: float, alpha: float) -> tuple:
    """(rejection constant, accepted-row values) of the change of log(sigma~),
    from the accepted offspring's semi-norms."""
    if np.any(norm_plus == 0.0):
        raise ValueError("accepted offspring with zero positive-block semi-norm")
    v = np.log(norm_plus)
    return closed_form_b1(alpha), np.subtract(math.log(alpha), v, out=v)


def _w_parts(norm_minus, norm_plus, w0: float, alpha: float) -> tuple:
    """(rejection constant, accepted-row values) of the truncated change of W."""
    # W' = norm_minus / norm_plus is +inf where norm_plus is 0: fmin caps the
    # inf of x / 0 and the nan of 0 / 0 at 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(norm_minus, norm_plus)
    ratio -= w0
    return 0.0, np.fmin(ratio, 1.0, out=ratio)


def _phi_parts(beta: float, *step) -> tuple:
    """Parts of the change of phi = beta * V + W; bound to beta by a partial,
    whose repr, unlike a closure's, shows beta."""
    if beta == 0.0:
        return _w_parts(*step)
    (v_rejected, v), (w_rejected, w) = _v_parts(*step), _w_parts(*step)
    return beta * v_rejected + w_rejected, beta * v + w


def _increment(quantity: str, beta: float | None = None):
    """The increment, (norm_minus, norm_plus, w0, alpha) of the accepted
    offspring -> (rejection constant, accepted-row values),
    of drift quantity "V", "W" or "Phi" (any case), where phi = beta * V + W on the
    same steps, so its confidence interval is honest; beta = 0 gives the W drift.
    The one check of a (quantity, beta) pair: Phi needs a finite beta >= 0, and V
    and W take none."""
    increment = {"v": _v_parts, "w": _w_parts, "phi": _phi_parts}.get(quantity.lower())
    if increment is None:
        raise ValueError("quantity must be one of V, W, Phi")
    if increment is not _phi_parts:
        if beta is not None:
            raise ValueError(f"beta weights V in a Phi map only; a {quantity} map takes none")
        return increment
    if beta is None:
        raise ValueError("a Phi map needs beta (the constants record gives beta = -C / (2 B1))")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return functools.partial(_phi_parts, beta)


def _grid_row(problem: SaddleProblem, params: EsParams, grid: GridSpec, n: int,
              master_seed: int, increments: tuple, i: int) -> list:
    """(w, sigma~, hits, estimates) of every point of grid row i, in sigma~ order:
    ``_drifts`` of the row's mean on the row's stream ``task_rng(master_seed, "row", i)``."""
    w = float(grid.w_values[i])
    sigmas = grid.sigma_values.tolist()
    return [(w, s, *point) for s, point in
            zip(sigmas, _drifts(problem, params, sample_M_plus_0(problem, w), sigmas, n,
                                task_rng(master_seed, "row", i), increments))]


def _constants_row(problem: SaddleProblem, params: EsParams, grid: GridSpec, n: int,
                   master_seed: int, i: int) -> tuple:
    """``_grid_row`` of row i with the V and W increments, whose points take the
    success rate, the V drift and the W drift from the same draws, and the
    row's sigma~40 from its success curve."""
    points = _grid_row(problem, params, grid, n, master_seed,
                       (_increment("V"), _increment("W")), i)
    return points, _sigma_40(problem, sample_M_plus_0(problem, float(grid.w_values[i])),
                             grid.sigma_values.tolist(), [hits for _, _, hits, _ in points], n,
                             master_seed, i)


def _success_curve(problem: SaddleProblem, m_tilde: np.ndarray, lo: float, hi: float,
                   n: int, rng: np.random.Generator) -> tuple:
    """The success count of n draws from ``rng`` as a step function of the step
    size on (lo, hi], relative to its count at lo: (ascending positions in
    (lo, hi], count change at each).  By ``_rule`` the count rises (+1) at a
    rising sample's threshold t and drops (-1) at the first step size past a
    falling one's.  Besides one block, it holds only the changes that fall
    inside the cell."""
    positions, changes = [], []
    for c in _blocks(n, problem.d):
        t, falling, rising, _ = _rule(*_scalars(problem, m_tilde, c, rng)[:2])
        keep = np.flatnonzero(falling & (t >= lo) & (t < hi) | rising & (t > lo) & (t <= hi))
        t, rising = t.take(keep), rising.take(keep)
        positions.append(np.where(rising, t, np.nextafter(t, math.inf)))
        changes.append(np.where(rising, 1, -1))
    positions, where = np.unique(np.concatenate(positions), return_inverse=True)
    return positions, np.bincount(where, np.concatenate(changes)).astype(int)


def _sigma_40(problem: SaddleProblem, m_tilde: np.ndarray, sigmas: list, hits: list, n: int,
              master_seed: int, row: int) -> float:
    """Largest step size up to which the success rate of grid row ``row`` stays
    >= 0.4, searched upward from the last passing grid point; math.inf when the
    rate never falls below 0.4 on the grid.

    ``hits`` are the success counts at the ascending ``sigmas`` from the row's
    stream ``task_rng(master_seed, "row", row)``.  Each sample succeeds on one
    interval of step sizes, so the row's rate is a step function; one replay of
    the stream reads its steps inside the first failing grid cell.  The rate
    first falls below 0.4 just past the threshold of a falling sample, and that
    threshold, -2G/Q of one sample, is sigma~40.
    """
    first_fail = next((j for j, h in enumerate(hits) if h / n < _SIGMA40_RATE), None)
    if first_fail is None:
        return math.inf
    if first_fail == 0:
        raise ValueError("success rate below threshold at the smallest grid step size; extend "
                         f"the grid downward.  Row {row}: w={problem.norm_minus(m_tilde)!r} "
                         f"sigma~={sigmas[0]!r} rate={hits[0] / n!r} n={n}; "
                         f"{_replay_hint(master_seed, 'row', row)} at sigma index 0")
    positions, changes = _success_curve(problem, m_tilde, sigmas[first_fail - 1],
                                        sigmas[first_fail], n, task_rng(master_seed, "row", row))
    drop = int(np.flatnonzero((hits[first_fail - 1] + np.cumsum(changes)) / n
                              < _SIGMA40_RATE)[0])
    return float(np.nextafter(positions[drop], 0.0))


def closed_form_b1(alpha: float) -> float:
    """Worst-case expected log step-size change under pure rejection: -log(alpha)/4."""
    return -es._FAILURE_EXPONENT * math.log(alpha)


def closed_form_b2(alpha: float) -> float:
    """Guaranteed expected log step-size growth at >= 2/5 success rate: log(alpha)/20."""
    return math.log(alpha) / 20.0


def derive_beta_theta(b1: float, b2: float, c: float) -> tuple[float, float]:
    """beta = -C / (2 B1) and theta = min(beta * B2, C + beta * B1)."""
    beta = -c / (2.0 * b1)
    theta = min(beta * b2, c + beta * b1)
    return beta, theta


class ConstantsEstimationError(RuntimeError):
    """The measured drifts do not support positive constants at 99% confidence."""


@dataclass(frozen=True)
class DriftConstants:
    """Closed-form and measured constants of the combined drift argument.

    B1 and B2 are ``closed_form_b1`` and ``closed_form_b2`` of alpha; C is the
    smallest 99%-lower-bounded W drift over the grid with sigma~ >=
    sigma_tilde_star; sigma_tilde_40 is the smallest per-mean success-rate
    crossing (inf if never crossed), read exactly off each grid row's success
    curve, with no bisection; sigma_tilde_star is the largest grid sigma~ below
    which the measured V drift stays above B2 at 99% confidence.  beta and
    theta are derived from B1, B2 and C (``derive_beta_theta``); B1 < 0 < B2
    and C > 0 make both positive, with theta = min(beta B2, C / 2).
    """

    alpha: float
    C: float
    sigma_tilde_40: float
    sigma_tilde_star: float

    def __post_init__(self):
        if not (self.B1 < 0.0 < self.B2):
            raise ValueError("need B1 < 0 < B2 (requires alpha > 1)")
        if not self.C > 0.0:
            raise ValueError("C must be positive")

    @property
    def B1(self) -> float:
        return closed_form_b1(self.alpha)

    @property
    def B2(self) -> float:
        return closed_form_b2(self.alpha)

    @property
    def beta(self) -> float:
        return derive_beta_theta(self.B1, self.B2, self.C)[0]

    @property
    def theta(self) -> float:
        return derive_beta_theta(self.B1, self.B2, self.C)[1]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "B1": self.B1, "B2": self.B2, "C": self.C,
            "sigma_tilde_40": self.sigma_tilde_40,
            "sigma_tilde_star": self.sigma_tilde_star,
            "beta": self.beta, "theta": self.theta,
            "confidence": CONFIDENCE,
        }


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: W values of the mean and a log-spaced sigma~ axis."""

    w_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_values, dtype=float)
        s = np.asarray(self.sigma_values, dtype=float)
        for name, values in (("w", w), ("sigma", s)):
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"{name} values must be finite, got {float(bad[0])!r}")
        if w.size < 1 or np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("w values must lie in [0, 1]")
        if s.size < 8:
            raise ValueError("sigma grid too coarse: need at least 8 points")
        if s[0] <= 0.0 or not np.all(np.diff(s) > 0.0):
            raise ValueError("sigma grid must be positive and strictly ascending")
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "w_values", w)
        object.__setattr__(self, "sigma_values", s)

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(w_values=np.linspace(0.0, 1.0, 11),
                   sigma_values=np.geomspace(1e-4, 1e3, 36))


@dataclass(frozen=True)
class ConstantsReport:
    """Constants record plus the intermediate grid measurements."""

    constants: DriftConstants
    sigma_40_by_w: list
    v_map: list
    w_map: list


def estimate_constants_report(problem: SaddleProblem, params: EsParams,
                              grid: GridSpec | None = None, n: int = 100_000,
                              master_seed: int = 0, threads: int = 1) -> ConstantsReport:
    """Full constants pipeline, keeping the intermediate drift maps.

    One task per grid row draws the row's n steps once, from the row's stream
    ``task_rng(master_seed, "row", i)``, takes the success rate, the V drift and
    the W drift of every sigma~ of the row from them, and reads the row's
    sigma_tilde_40 off its success curve on one replay of the stream.  The V
    map locates sigma_tilde_star, and the smallest CI lower bound of the W map
    over sigma~ >= sigma_tilde_star is C.  The rows run on up to ``threads``
    workers; every task reads only its own stream, so ``threads`` never
    changes the report.
    """
    grid = grid if grid is not None else GridSpec.default()
    alpha = params.alpha
    b2 = closed_form_b2(alpha)
    n_sigma = grid.sigma_values.size

    rows = _map_tasks(functools.partial(_constants_row, problem, params, grid, n, master_seed),
                      range(grid.w_values.size), threads)
    points = [point for row_points, _ in rows for point in row_points]
    v_map = [GridPointEstimate(w, s, v) for w, s, _, (v, _) in points]
    w_all = [GridPointEstimate(w, s, w_est) for w, s, _, (_, w_est) in points]
    v_low = np.array([row.est.ci_low for row in v_map]).reshape(-1, n_sigma)
    sigma_40_by_w = [sigma_40 for _, sigma_40 in rows]
    sigma_tilde_40 = min(sigma_40_by_w)

    # sigma* = top of the longest grid prefix on which every mean's V drift is
    # lower-bounded by B2 at 99% confidence.
    ok = np.all(v_low >= b2, axis=0)
    ok_prefix = n_sigma if ok.all() else int(np.argmin(ok))
    if ok_prefix == 0:
        i = int(np.argmin(v_low[:, 0]))
        raise ConstantsEstimationError(
            "no step-size growth region resolved at this confidence; increase n or extend "
            f"the sigma grid downward.  V-drift lower bound below B2={b2!r} at "
            f"{_describe_point(v_map[i * n_sigma], master_seed, i, 0)}")
    star = ok_prefix - 1
    sigma_tilde_star = float(grid.sigma_values[star])

    kept = [k for k in range(len(w_all)) if k % n_sigma >= star]
    w_map = [w_all[k] for k in kept]
    worst = min(kept, key=lambda k: w_all[k].est.ci_low)
    c = w_all[worst].est.ci_low
    if c <= 0.0:
        raise ConstantsEstimationError(
            f"W-drift lower bound {c:.3g} is not positive at confidence {CONFIDENCE}; increase "
            f"n.  Lowest at {_describe_point(w_all[worst], master_seed, *divmod(worst, n_sigma))}")
    constants = DriftConstants(alpha=alpha, C=c, sigma_tilde_40=sigma_tilde_40,
                               sigma_tilde_star=sigma_tilde_star)
    return ConstantsReport(constants=constants, sigma_40_by_w=sigma_40_by_w,
                           v_map=v_map, w_map=w_map)


@dataclass(frozen=True)
class PairingReport:
    """Outcome of the mirror-pairing inequality check at one (mean, radius)."""

    violations: int
    min_margin: float
    n_pairs: int


def mirror_pair_margins(problem: SaddleProblem, m_tilde: np.ndarray, z):
    """Pair each row z of a batch (n, d) with its negative-block mirror z'
    around the mean (z'_minus = 2 m_minus - z_minus, z'_plus = z_plus) and
    return, per row,

      in_set: W(z) < W(m~), the points whose own contribution is negative,
      margin: W(z) + W(z') - 2 W(m~).

    W(x) = norm_minus(x)/norm_plus(x), +inf on a zero positive block.
    """
    z = np.asarray(z, dtype=float)
    b = problem.b
    wm = float(problem.norm_minus(m_tilde))

    def ratio(points):
        nm = problem.norm_minus(points)
        npl = problem.norm_plus(points)
        return np.divide(nm, npl, out=np.full(nm.shape, math.inf), where=npl > 0.0)

    z_mirror = z.copy()
    z_mirror[..., :b] = 2.0 * np.asarray(m_tilde, dtype=float)[:b] - z[..., :b]
    ratio_z = ratio(z)
    in_set = ratio_z < wm
    margin = ratio_z + ratio(z_mirror) - 2.0 * wm
    return in_set, margin


def pairing_check(problem: SaddleProblem, m_tilde: np.ndarray, radius: float,
                  n: int, rng: np.random.Generator) -> PairingReport:
    """Sample n points uniformly on the sphere of ``radius`` around the mean,
    keep the successful ones (f(z) <= f(m~)) whose own W contribution is
    negative, and verify that each mirror pair's combined contribution is
    >= -PAIRING_EPSILON.

    Both filters matter: success plus W(z) < W(m~) force norm_plus(z) <= 1,
    which is what makes the combined contribution nonnegative.  Unsuccessful
    points never move the mean, so they are outside the construction.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if n < 1:
        raise ValueError("need at least one sample")
    m_tilde = np.asarray(m_tilde, dtype=float)
    fm = problem.evaluate(m_tilde)
    violations = 0
    min_margin = math.inf
    n_pairs = 0
    for c in _blocks(n, problem.d):
        u = rng.standard_normal((c, problem.d))
        norms = np.linalg.norm(u, axis=1)
        # a zero draw (probability zero) would land on the mean itself, which
        # the strict in-set test excludes anyway
        u /= np.where(norms > 0.0, norms, 1.0)[:, None]
        z = m_tilde + radius * u
        in_set, margin = mirror_pair_margins(problem, m_tilde, z)
        margins = margin[in_set & (problem.evaluate(z) <= fm)]
        if margins.size:
            violations += int(np.count_nonzero(margins < -PAIRING_EPSILON))
            min_margin = min(min_margin, float(margins.min()))
            n_pairs += margins.size
    return PairingReport(violations=violations, min_margin=min_margin, n_pairs=n_pairs)
