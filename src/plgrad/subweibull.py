"""Parameter-level calculus for sub-Weibull random variables.

A nonnegative random variable X is sub-Weibull with tail exponent theta > 0
and moment scale K >= 0 if its moment norms grow at most polynomially,

    ||X||_p := E[|X|^p]^(1/p) <= K * p**theta   for all p >= 1.

theta = 1/2 recovers the sub-Gaussian class, theta = 1 the sub-exponential
class; larger theta means heavier tails.  This module implements the closure
rules of that class (scaling, shifts, sums, powers, inclusion into a coarser
class), the equivalent tail-form constant, the high-probability quantile
bound, and an empirical moment fit.  All operations are pure functions on
immutable parameter pairs; K = 0 encodes an almost-surely-zero variable and
is handled by every rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SubWeibullParams:
    """Moment-scale description (theta, K) of a sub-Weibull variable.

    theta: tail exponent, dimensionless, > 0.
    k: moment scale in the units of the underlying quantity, >= 0.
       k = 0 is the degenerate almost-surely-zero variable.
    """

    theta: float
    k: float

    def __post_init__(self) -> None:
        if not self.theta > 0:
            raise ValueError(f"tail exponent must be positive, got {self.theta}")
        if self.k < 0:
            raise ValueError(f"moment scale must be nonnegative, got {self.k}")


def scale(x: SubWeibullParams, a: float) -> SubWeibullParams:
    """Envelope of a*X: (theta, |a| K)."""
    return SubWeibullParams(x.theta, abs(a) * x.k)


def add_scalar(x: SubWeibullParams, a: float) -> SubWeibullParams:
    """Envelope of a + X: (theta, |a| + K)."""
    return SubWeibullParams(x.theta, abs(a) + x.k)


def add(x1: SubWeibullParams, x2: SubWeibullParams) -> SubWeibullParams:
    """Envelope of X1 + X2: (max(theta1, theta2), K1 + K2).

    Valid for arbitrarily dependent summands; the K scales add by the
    triangle inequality on the moment norm.
    """
    return SubWeibullParams(max(x1.theta, x2.theta), x1.k + x2.k)


def power(x: SubWeibullParams, a: float) -> SubWeibullParams:
    """Envelope of X**a for a > 0: (a*theta, K**a * max(1, a**(a*theta)))."""
    if a <= 0:
        raise ValueError(f"power must be positive, got {a}")
    return SubWeibullParams(a * x.theta, x.k**a * max(1.0, a ** (a * x.theta)))


def include(x: SubWeibullParams, theta: float, k: float) -> SubWeibullParams:
    """Relax X into the coarser class (theta', K') with theta' >= theta, K' >= K."""
    if theta < x.theta:
        raise ValueError(
            f"cannot include into a lighter tail class: {theta} < {x.theta}"
        )
    if k < x.k:
        raise ValueError(f"cannot include into a smaller moment scale: {k} < {x.k}")
    return SubWeibullParams(theta, k)


def tail_constant(x: SubWeibullParams) -> float:
    """Constant of the equivalent exponential tail form.

    If ||X||_p <= K p**theta for all p >= 1, then
    P(|X| >= eps) <= 2 exp(-(eps / K1)**(1/theta)) with K1 = (2e/theta)**theta K.
    """
    return (2.0 * math.e / x.theta) ** x.theta * x.k


def hp_bound(x: SubWeibullParams, delta: float) -> float:
    """Quantile bound: P(|X| > hp_bound(x, delta)) <= delta.

    Evaluates K * log(2/delta)**theta * (2e/theta)**theta for delta in (0, 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if x.k == 0.0:
        return 0.0
    return x.k * math.log(2.0 / delta) ** x.theta * (2.0 * math.e / x.theta) ** x.theta


def fit_from_samples(
    samples: np.ndarray, theta: float, k_max: int = 10
) -> SubWeibullParams:
    """Empirical moment scale for a fixed tail exponent.

    K_hat = max over k = 1..k_max of (mean |x|^k)^(1/k) / k**theta.  Moment
    orders above ~10 are statistically unstable at desk-scale sample sizes,
    hence the default cap.
    """
    if theta <= 0:
        raise ValueError(f"tail exponent must be positive, got {theta}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    s = np.abs(np.asarray(samples, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("cannot fit a moment scale from an empty sample set")
    orders = np.arange(1, k_max + 1, dtype=float)
    moment_norms = np.array([np.mean(s**k) ** (1.0 / k) for k in orders])
    k_hat = float(np.max(moment_norms / orders**theta))
    return SubWeibullParams(theta, k_hat)
