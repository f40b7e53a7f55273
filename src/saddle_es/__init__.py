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
    drift_w,
    estimate_constants_report,
    one_step_samples,
    pairing_check,
    saddle_success_analytic_2d,
    success_probability,
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
from .normalization import sample_M_plus_0
from .objective import SaddleProblem
from .tasks import task_rng
