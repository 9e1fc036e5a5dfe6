"""Online (proximal-)gradient descent under stochastic gradient errors.

Library surface: a sub-Weibull parameter algebra, gradient-noise models with
certified norm envelopes, a time-varying problem suite with exact constants,
the two online solvers, computable regret certificates (in expectation and
in high probability), and a seeded Monte Carlo harness that validates the
empirical regret against those certificates.
"""

from .bounds import (
    ErrorCost,
    asymptote,
    error_cost,
    expectation_bound,
    highprob_bound,
    highprob_factor,
    markov_highprob_bound,
)
from .config import ExperimentConfig, PRESETS, build_noise, build_problem, make_config
from .harness import (
    AggregateReport,
    longrun_asymptote_check,
    run_experiment,
    run_validation_battery,
    validate_bounds,
)
from .noise import GradientErrors, NoiseModel
from .problems import (
    DemandResponse,
    DriftingLogistic,
    LtiTracking,
    OnlineProblem,
    TimeVaryingLeastSquares,
    verify_pl,
)
from .prox import Regularizer
from .solvers import RegretTrajectory, prox_gradient_step, run
from .subweibull import (
    SubWeibullParams,
    add,
    add_scalar,
    fit_from_samples,
    hp_bound,
    power,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "DemandResponse",
    "DriftingLogistic",
    "ErrorCost",
    "ExperimentConfig",
    "GradientErrors",
    "LtiTracking",
    "NoiseModel",
    "OnlineProblem",
    "PRESETS",
    "Regularizer",
    "RegretTrajectory",
    "SubWeibullParams",
    "TimeVaryingLeastSquares",
    "add",
    "add_scalar",
    "asymptote",
    "build_noise",
    "build_problem",
    "error_cost",
    "expectation_bound",
    "fit_from_samples",
    "highprob_bound",
    "highprob_factor",
    "hp_bound",
    "longrun_asymptote_check",
    "make_config",
    "markov_highprob_bound",
    "power",
    "prox_gradient_step",
    "run",
    "run_experiment",
    "run_validation_battery",
    "scale",
    "validate_bounds",
    "verify_pl",
]
