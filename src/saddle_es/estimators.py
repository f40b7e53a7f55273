"""Monte Carlo estimators: success probabilities, one-step drifts, drift
constants, and the mirror-pairing verifier.

Drift estimators take one strategy step per sample from the denormalized state
at scale one (norm_plus(m~) = 1 makes the normalized state its own raw state)
and renormalize the successor, because the drifts are one-step quantities.

Every one-step estimate draws its offspring through one block kernel,
``_offspring``; the drifts merge per-block moments, so their memory is flat in
the sample size.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .es import EsParams
from .normalization import NormalizedState, NormPlusZeroError, in_M_plus_0, sample_M_plus_0
from .objective import SaddleProblem
from .tasks import _map_tasks, task_rng

DEFAULT_CONFIDENCE = 0.99
_BLOCK = 1 << 18


def _blocks(n: int) -> list:
    """Sizes of the fewest near-equal blocks of at most _BLOCK rows summing to n."""
    k = -(-n // _BLOCK)
    return [n // k + (i < n % k) for i in range(k)]


def z_critical(confidence: float) -> float:
    """Two-sided normal quantile for the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo mean with normal-approximation confidence interval."""

    mean: float
    stderr: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an estimate needs at least 2 samples")
        if not self.stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("confidence interval must bracket the mean")

    @classmethod
    def from_moments(cls, n: int, mean: float, m2: float,
                     confidence: float = DEFAULT_CONFIDENCE) -> "DriftEstimate":
        """Estimate from a sample's count, mean and summed squared deviations."""
        if n < 2:
            raise ValueError("an estimate needs at least 2 samples")
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        z = z_critical(confidence)
        return cls(mean=mean, stderr=stderr, n=n,
                   ci_low=mean - z * stderr, ci_high=mean + z * stderr,
                   confidence=confidence)

    @classmethod
    def from_binomial(cls, successes: int, n: int,
                      confidence: float = DEFAULT_CONFIDENCE) -> "DriftEstimate":
        """Hit fraction with the Wald stderr and the Wilson (1927) score interval,
        which keeps a positive width at 0 or n hits."""
        p = successes / n
        stderr = math.sqrt(p * (1.0 - p) / n)
        z = z_critical(confidence)
        shrink = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / shrink
        half = z * math.sqrt(stderr * stderr + z * z / (4 * n * n)) / shrink
        # the exact interval holds p and lies in [0, 1]; clamp the rounding
        return cls(mean=p, stderr=stderr, n=n,
                   ci_low=max(0.0, min(p, center - half)),
                   ci_high=min(1.0, max(p, center + half)),
                   confidence=confidence)


def _moments(values: np.ndarray) -> tuple:
    """(count, mean, summed squared deviations), rounded as numpy's mean and std."""
    mean = values.mean()
    dev = values - mean
    dev *= dev
    return values.size, float(mean), float(dev.sum())


def _merge(x: tuple, y: tuple) -> tuple:
    """Pairwise update of two (count, mean, M2) triples (Chan, Golub & LeVeque
    1979); merging into (0, 0.0, 0.0) returns y unchanged."""
    (na, ma, m2a), (nb, mb, m2b) = x, y
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
            f"n={row.est.n}; replay its stream with task_rng({master_seed}, \"point\", {i}, {j})")


def _offspring(problem: SaddleProblem, ns: NormalizedState, c: int,
               rng: np.random.Generator) -> tuple:
    """Draw c offspring x ~ N(m~, sigma~^2 I); return the acceptance mask
    f(x) <= f(m~) and the squares x**2, formed in place in the draw buffer.

    The one kernel behind every one-step estimate; f is the dot product of the
    squares with a, exactly as SaddleProblem.evaluate computes it.
    """
    z = rng.standard_normal((c, problem.d))
    z *= ns.sigma_tilde
    z += ns.m_tilde
    np.square(z, out=z)
    return z @ problem.a <= problem.evaluate(ns.m_tilde), z


def success_probability(problem: SaddleProblem, ns: NormalizedState, n: int,
                        rng: np.random.Generator,
                        confidence: float = DEFAULT_CONFIDENCE) -> DriftEstimate:
    """Fraction of offspring x ~ N(m~, sigma~^2 I) with f(x) <= f(m~).

    Binomial standard error sqrt(p(1-p)/n).  By scale invariance this is the
    success probability of every raw state on the same ray.
    """
    if n < 100:
        raise ValueError("need n >= 100 samples")
    hits = sum(int(np.count_nonzero(_offspring(problem, ns, c, rng)[0])) for c in _blocks(n))
    return DriftEstimate.from_binomial(hits, n, confidence)


def saddle_success_mc(problem: SaddleProblem, n: int, rng: np.random.Generator,
                      confidence: float = DEFAULT_CONFIDENCE) -> DriftEstimate:
    """Success probability sampling from the saddle point itself (m = 0).

    Step-size independent by scale invariance, so unit sigma is used.
    """
    return success_probability(problem, NormalizedState(np.zeros(problem.d), 1.0), n,
                               rng, confidence)


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
    the mean in place and shrinks the step size by the exact factor alpha**-0.25.
    """

    accepted: np.ndarray
    norm_minus: np.ndarray
    norm_plus: np.ndarray
    w0: float
    alpha: float

    @property
    def n(self) -> int:
        return self.accepted.size

    def v_increments(self) -> np.ndarray:
        """Per-sample change of log(sigma~).

        Rejections contribute the constant -log(alpha)/4 with no estimation
        noise; acceptances contribute log(alpha) - log(norm_plus(offspring)).
        """
        if np.any(self.norm_plus == 0.0):
            raise NormPlusZeroError("accepted offspring with zero positive-block semi-norm")
        out = np.full(self.n, -0.25 * math.log(self.alpha))
        out[np.flatnonzero(self.accepted)] = math.log(self.alpha) - np.log(self.norm_plus)
        return out

    def w_increments(self) -> np.ndarray:
        """Per-sample truncated change of W: min(W' - W, 1); rejections contribute 0.

        A successor with zero positive-block semi-norm has W' = +inf and
        contributes the cap 1, so no error can occur on this path.
        """
        nm, npl = self.norm_minus, self.norm_plus
        ratio = np.divide(nm, npl, out=np.full(nm.shape, math.inf), where=npl > 0.0)
        out = np.zeros(self.n)
        out[np.flatnonzero(self.accepted)] = np.minimum(ratio - self.w0, 1.0)
        return out


def one_step_samples(problem: SaddleProblem, params: EsParams, ns: NormalizedState,
                     n: int, rng: np.random.Generator) -> StepSamples:
    """Draw n independent single steps from (m~, sigma~) at scale one, as one block."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    accepted, sq = _offspring(problem, ns, n, rng)
    # gather by index: indexing with a random boolean mask is about 10x slower
    sq = sq.take(np.flatnonzero(accepted), axis=0)
    a, b = problem.a, problem.b
    return StepSamples(accepted=accepted,
                       norm_minus=np.sqrt(0.0 - sq[:, :b] @ a[:b]),
                       norm_plus=np.sqrt(sq[:, b:] @ a[b:]),
                       w0=float(problem.norm_minus(ns.m_tilde)), alpha=params.alpha)


def _drift(problem: SaddleProblem, params: EsParams, ns: NormalizedState, n: int,
           rng: np.random.Generator, confidence: float, *increments) -> tuple:
    """Hit count and the mean of each ``increments(samples)`` over the same n
    steps, merged block by block."""
    if n < 1000:
        raise ValueError("drift estimation needs n >= 1000 samples")
    if not in_M_plus_0(problem, ns):
        warnings.warn("normalized mean lies outside the compact shell (norm_minus > 1); "
                      "the estimate is a valid Monte Carlo average but the drift bounds "
                      "are calibrated inside it", stacklevel=3)
    hits = 0
    moments = [(0, 0.0, 0.0)] * len(increments)
    for c in _blocks(n):
        samples = one_step_samples(problem, params, ns, c, rng)
        hits += int(np.count_nonzero(samples.accepted))
        moments = [_merge(m, _moments(inc(samples))) for m, inc in zip(moments, increments)]
    return hits, [DriftEstimate.from_moments(*m, confidence) for m in moments]


def drift_v(problem: SaddleProblem, params: EsParams, ns: NormalizedState, n: int,
            rng: np.random.Generator,
            confidence: float = DEFAULT_CONFIDENCE) -> DriftEstimate:
    """Expected one-step change of log(sigma~)."""
    return _drift(problem, params, ns, n, rng, confidence, StepSamples.v_increments)[1][0]


def drift_w(problem: SaddleProblem, params: EsParams, ns: NormalizedState, n: int,
            rng: np.random.Generator,
            confidence: float = DEFAULT_CONFIDENCE) -> DriftEstimate:
    """Expected one-step truncated change of W = norm_minus(m~)."""
    return _drift(problem, params, ns, n, rng, confidence, StepSamples.w_increments)[1][0]


def drift_phi(problem: SaddleProblem, params: EsParams, ns: NormalizedState,
              beta: float, n: int, rng: np.random.Generator,
              confidence: float = DEFAULT_CONFIDENCE) -> DriftEstimate:
    """Expected one-step change of phi = beta * V + W, estimated per sample.

    A single coupled estimator (not the sum of two separate runs), so the
    confidence interval is honest.  beta = 0 degenerates to the W drift.
    """
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return _drift(problem, params, ns, n, rng, confidence,
                  functools.partial(_phi_increments, beta))[1][0]


def _phi_increments(beta: float, samples: StepSamples) -> np.ndarray:
    """Per-sample change of phi = beta * V + W; unlike a closure, its partial pickles."""
    w_inc = samples.w_increments()
    return w_inc if beta == 0.0 else beta * samples.v_increments() + w_inc


def _point_drift(args) -> tuple:
    """(w, sigma~, hits, estimates) of grid point (w_i, sigma~_j): ``_drift`` on the
    point's stream ``task_rng(master_seed, "point", i, j)``."""
    (problem, params, grid, n, master_seed, confidence, increments), i, j = args
    w, s = float(grid.w_values[i]), float(grid.sigma_values[j])
    return (w, s, *_drift(problem, params, NormalizedState(sample_M_plus_0(problem, w), s), n,
                          task_rng(master_seed, "point", i, j), confidence, *increments))


def _grid_pass(problem: SaddleProblem, params: EsParams, grid: GridSpec, n: int,
               master_seed: int, confidence: float, increments: tuple, threads: int) -> list:
    """``_point_drift`` of every grid point in w-major order, one task per point."""
    job = (problem, params, grid, n, master_seed, confidence, increments)
    return _map_tasks(_point_drift, [(job, i, j) for i in range(grid.w_values.size)
                                     for j in range(grid.sigma_values.size)], threads)


def estimate_sigma_40(problem: SaddleProblem, m_tilde: np.ndarray, sigma_grid,
                      n: int, master_seed: int, threshold: float = 0.4,
                      bisect_steps: int = 12, _row: int = 0, _rates=None) -> float:
    """Largest step size below which the success rate stays >= ``threshold``.

    Scans the full ascending grid (no monotonicity assumed), then bisects in
    log space between the last passing and first failing grid points.  Returns
    math.inf when the threshold is never crossed on the grid.  Grid point j
    draws from ``task_rng(master_seed, "point", _row, j)``, unless the caller
    supplies those rates as ``_rates``; bisection step k draws from
    ``task_rng(master_seed, "sigma40", _row, grid size + k)``.
    """
    grid = GridSpec(np.zeros(1), sigma_grid).sigma_values  # the one sigma-grid check

    def p_at(sigma: float, stage: str, idx: int) -> float:
        rng = task_rng(master_seed, stage, _row, idx)
        return success_probability(problem, NormalizedState(m_tilde, sigma), n, rng).mean

    rates = _rates if _rates is not None else [p_at(s, "point", j) for j, s in enumerate(grid)]
    failing = [j for j, p in enumerate(rates) if p < threshold]
    if not failing:
        return math.inf
    first_fail = failing[0]
    if first_fail == 0:
        raise ValueError("success rate below threshold at the smallest grid step size; extend "
                         f"the grid downward.  Row {_row}: w={problem.norm_minus(m_tilde)!r} "
                         f"sigma~={float(grid[0])!r} rate={rates[0]!r} n={n}; replay its stream "
                         f"with task_rng({master_seed}, \"point\", {_row}, 0)")
    lo, hi = float(grid[first_fail - 1]), float(grid[first_fail])
    for k in range(bisect_steps):
        mid = math.sqrt(lo * hi)
        if p_at(mid, "sigma40", grid.size + k) >= threshold:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def closed_form_b1(alpha: float) -> float:
    """Worst-case expected log step-size change under pure rejection: -log(alpha)/4."""
    return -0.25 * math.log(alpha)


def closed_form_b2(alpha: float) -> float:
    """Guaranteed expected log step-size growth at >= 2/5 success rate: log(alpha)/20."""
    return math.log(alpha) / 20.0


def derive_beta_theta(b1: float, b2: float, c: float) -> tuple[float, float]:
    """beta = -C / (2 B1) and theta = min(beta * B2, C + beta * B1)."""
    beta = -c / (2.0 * b1)
    theta = min(beta * b2, c + beta * b1)
    return beta, theta


class ConstantsEstimationError(RuntimeError):
    """The measured drifts do not support positive constants at the requested confidence."""


@dataclass(frozen=True)
class DriftConstants:
    """Closed-form and measured constants of the combined drift argument.

    B1/B2 are closed forms in alpha; C is the smallest 99%-lower-bounded W
    drift over the grid with sigma~ >= sigma_tilde_star; sigma_tilde_40 is the
    smallest per-mean success-rate crossing (inf if never crossed);
    sigma_tilde_star is the largest grid sigma~ below which the measured V
    drift stays above B2 at the requested confidence.
    """

    alpha: float
    B1: float
    B2: float
    C: float
    sigma_tilde_40: float
    sigma_tilde_star: float
    beta: float
    theta: float
    confidence: float
    seed: int | None = None

    def __post_init__(self):
        if not (self.B1 < 0.0 < self.B2):
            raise ValueError("need B1 < 0 < B2 (requires alpha > 1)")
        if not self.C > 0.0:
            raise ValueError("C must be positive")
        beta, theta = derive_beta_theta(self.B1, self.B2, self.C)
        if not math.isclose(self.beta, beta, rel_tol=1e-12):
            raise ValueError("beta must equal -C / (2 B1)")
        if not (self.theta > 0.0 and math.isclose(self.theta, theta, rel_tol=1e-12)):
            raise ValueError("theta must equal min(beta B2, C + beta B1) > 0")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "B1": self.B1, "B2": self.B2, "C": self.C,
            "sigma_tilde_40": self.sigma_tilde_40,
            "sigma_tilde_star": self.sigma_tilde_star,
            "beta": self.beta, "theta": self.theta,
            "confidence": self.confidence, "seed": self.seed,
        }


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: W values of the mean and a log-spaced sigma~ axis."""

    w_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_values, dtype=float)
        s = np.asarray(self.sigma_values, dtype=float)
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
                              master_seed: int = 0,
                              confidence: float = DEFAULT_CONFIDENCE) -> ConstantsReport:
    """Full constants pipeline, keeping the intermediate drift maps.

    One pass over the grid takes the success rate, the V drift and the W drift
    of each point from the same offspring, drawn from the point's stream.  The
    rates locate each mean's sigma_tilde_40 (bisection on its own streams), the
    V map locates sigma_tilde_star, and the smallest CI lower bound of the W
    map over sigma~ >= sigma_tilde_star is C.
    """
    grid = grid if grid is not None else GridSpec.default()
    alpha = params.alpha
    b1 = closed_form_b1(alpha)
    b2 = closed_form_b2(alpha)
    n_sigma = grid.sigma_values.size

    # a point's success rate, V drift and W drift come from one set of offspring
    points = _grid_pass(problem, params, grid, n, master_seed, confidence,
                        (StepSamples.v_increments, StepSamples.w_increments), threads=1)
    rates = [hits / n for _, _, hits, _ in points]
    v_map = [GridPointEstimate(w, s, v) for w, s, _, (v, _) in points]
    w_all = [GridPointEstimate(w, s, w_est) for w, s, _, (_, w_est) in points]
    v_low = np.array([row.est.ci_low for row in v_map]).reshape(-1, n_sigma)

    sigma_40_by_w = [
        estimate_sigma_40(problem, sample_M_plus_0(problem, w), grid.sigma_values, n,
                          master_seed, _row=i, _rates=rates[i * n_sigma:(i + 1) * n_sigma])
        for i, w in enumerate(grid.w_values)
    ]
    sigma_tilde_40 = min(sigma_40_by_w)

    # sigma* = top of the longest grid prefix on which every mean's V drift is
    # lower-bounded by B2 at the requested confidence.
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
            f"W-drift lower bound {c:.3g} is not positive at confidence {confidence}; increase "
            f"n.  Lowest at {_describe_point(w_all[worst], master_seed, *divmod(worst, n_sigma))}")
    beta, theta = derive_beta_theta(b1, b2, c)
    constants = DriftConstants(alpha=alpha, B1=b1, B2=b2, C=c,
                               sigma_tilde_40=sigma_tilde_40,
                               sigma_tilde_star=sigma_tilde_star,
                               beta=beta, theta=theta,
                               confidence=confidence, seed=master_seed)
    return ConstantsReport(constants=constants, sigma_40_by_w=sigma_40_by_w,
                           v_map=v_map, w_map=w_map)


@dataclass(frozen=True)
class PairingReport:
    """Outcome of the mirror-pairing inequality check at one (mean, radius)."""

    violations: int
    min_margin: float
    n_pairs: int
    n_sampled: int
    epsilon: float


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
                  n: int, rng: np.random.Generator,
                  epsilon: float = 1e-9) -> PairingReport:
    """Sample n points uniformly on the sphere of ``radius`` around the mean,
    keep the successful ones (f(z) <= f(m~)) whose own W contribution is
    negative, and verify that each mirror pair's combined contribution is
    >= -epsilon.

    Both filters matter: success plus W(z) < W(m~) force norm_plus(z) <= 1,
    which is what makes the combined contribution nonnegative.  Unsuccessful
    points never move the mean, so they are outside the construction.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    m_tilde = np.asarray(m_tilde, dtype=float)
    fm = problem.evaluate(m_tilde)
    violations = 0
    min_margin = math.inf
    n_pairs = 0
    for c in _blocks(n):
        u = rng.standard_normal((c, problem.d))
        norms = np.linalg.norm(u, axis=1)
        # a zero draw (probability zero) would land on the mean itself, which
        # the strict in-set test excludes anyway
        u /= np.where(norms > 0.0, norms, 1.0)[:, None]
        z = m_tilde + radius * u
        in_set, margin = mirror_pair_margins(problem, m_tilde, z)
        margins = margin[in_set & (problem.evaluate(z) <= fm)]
        if margins.size:
            violations += int(np.count_nonzero(margins < -epsilon))
            min_margin = min(min_margin, float(margins.min()))
            n_pairs += margins.size
    return PairingReport(violations=violations, min_margin=min_margin,
                         n_pairs=n_pairs, n_sampled=n, epsilon=epsilon)
