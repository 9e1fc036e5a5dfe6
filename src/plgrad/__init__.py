"""Online (proximal-)gradient descent under stochastic gradient errors.

Library surface: a sub-Weibull parameter algebra, gradient-noise models with
certified norm envelopes, a time-varying problem suite with exact constants,
the two online solvers, computable regret certificates (in expectation and
in high probability), and a seeded Monte Carlo harness that validates the
empirical regret against those certificates.

Every name not in `__all__` is imported from its module, as in
`from plgrad.harness import AggregateReport`.
"""

from .bounds import expectation_bound, recursion
from .config import build_noise, build_problem, make_config
from .harness import run_experiment, validate_bounds
from .noise import NoiseModel
from .problems import TimeVaryingLeastSquares
from .solvers import prox_gradient_step, run

__version__ = "0.1.0"

__all__ = [
    "NoiseModel",
    "TimeVaryingLeastSquares",
    "build_noise",
    "build_problem",
    "expectation_bound",
    "make_config",
    "prox_gradient_step",
    "recursion",
    "run",
    "run_experiment",
    "validate_bounds",
]
