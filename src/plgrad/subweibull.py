"""Parameter-level calculus for sub-Weibull random variables.

A nonnegative random variable X is sub-Weibull with tail exponent theta > 0
and moment scale K >= 0 if its moment norms grow at most polynomially,

    ||X||_p := E[|X|^p]^(1/p) <= K * p**theta   for all p >= 1.

theta = 1/2 recovers the sub-Gaussian class, theta = 1 the sub-exponential
class; larger theta means heavier tails.  This module implements the closure
rules of that class (scaling, shifts, sums, powers), the high-probability
quantile bound, and an empirical moment fit.  All operations are pure
functions on immutable parameter pairs; K = 0 encodes an almost-surely-zero
variable and is handled by every rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SubWeibullParams:
    """Moment-scale description (theta, K) of a sub-Weibull variable.

    theta: tail exponent, dimensionless, finite and > 0.
    k: moment scale in the units of the underlying quantity, finite and
       >= 0.  k = 0 is the degenerate almost-surely-zero variable.
    """

    theta: float
    k: float

    def __post_init__(self) -> None:
        if not 0 < self.theta < math.inf:
            raise ValueError(f"tail exponent must be finite and positive, got {self.theta}")
        if not 0 <= self.k < math.inf:
            raise ValueError(f"moment scale must be finite and nonnegative, got {self.k}")


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


def hp_bound(x: SubWeibullParams, delta: float) -> float:
    """Quantile bound: P(|X| > hp_bound(x, delta)) <= delta.

    Evaluates K * log(2/delta)**theta * (2e/theta)**theta for delta in (0, 1).
    A bound that overflows a float raises, as does a delta whose 2/delta
    does (below about 1.1e-308).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if x.k == 0.0:
        return 0.0
    bound = x.k * math.log(2.0 / delta) ** x.theta * (2.0 * math.e / x.theta) ** x.theta
    if not bound < math.inf:
        raise ValueError(f"the quantile bound at delta = {delta:g} is {bound}, not finite")
    return bound


def fit_from_samples(samples: np.ndarray, theta: float) -> SubWeibullParams:
    """Empirical moment scale for a fixed tail exponent.

    K_hat = max over k = 1..10 of (mean |x|^k)^(1/k) / k**theta.  Moment
    orders above ~10 are statistically unstable at desk-scale sample sizes,
    hence the fixed cap.  A fit that overflows a float raises.
    """
    if theta <= 0:
        raise ValueError(f"tail exponent must be positive, got {theta}")
    s = np.asarray(samples, dtype=float).ravel()
    # |x| is a copy; norms, the usual samples, already have its bits and are
    # read in place (any set sign bit, -0.0 included, takes the copy)
    if np.signbit(s).any():
        s = np.abs(s)
    if s.size == 0:
        raise ValueError("cannot fit a moment scale from an empty sample set")
    orders = np.arange(1, 11, dtype=float)
    power = np.empty_like(s)  # one buffer for every s**k
    with np.errstate(over="ignore"):
        moment_norms = np.array([np.mean(np.power(s, k, out=power)) ** (1.0 / k) for k in orders])
        k_hat = float(np.max(moment_norms / orders**theta))
    if not k_hat < math.inf:
        raise ValueError("the empirical moment fit overflows a float")
    return SubWeibullParams(theta, k_hat)
