"""Simulation and Monte Carlo verification toolkit for the (1+1) evolution
strategy with 1/5-success-rule step-size control on diagonal quadratic saddle
objectives."""

__version__ = "0.1.0"

from .es import (
    BUDGET,
    GENERATOR_NAME,
    NONFINITE,
    TARGET,
    UNDERFLOW,
    EsParams,
    EsState,
    RunTrace,
    escape_times,
    run,
    target_reached,
)
from .estimators import (
    ConstantsEstimationError,
    DriftConstants,
    DriftEstimate,
    GridPointEstimate,
    GridSpec,
    PairingReport,
    StepSamples,
    closed_form_b1,
    closed_form_b2,
    derive_beta_theta,
    drift_phi,
    drift_v,
    drift_w,
    estimate_constants_report,
    estimate_sigma_40,
    mirror_pair_margins,
    one_step_samples,
    pairing_check,
    saddle_success_analytic_2d,
    saddle_success_mc,
    success_probability,
    task_rng,
)
from .experiments import (
    EscapeExperimentSpec,
    HittingTimeStats,
    TailFit,
    drift_map,
    fit_exponential_tail,
    run_escape_experiment,
    survival_curve,
)
from .normalization import (
    NormalizedState,
    NormPlusZeroError,
    in_M_plus_0,
    sample_M_plus_0,
)
from .objective import RegionLabel, SaddleProblem
