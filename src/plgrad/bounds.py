"""Computable regret certificates for the two online methods.

All series share one backbone: a geometric recursion with contraction
zeta = 1 - mu/L and a per-step additive cost,

    B_0 = r_0,    B_{t+1} = zeta B_t + c_{t+1},

equal to the closed-form sum zeta^t r_0 + sum_tau zeta^(t-tau) c_tau but
numerically stable for long horizons.  The per-step cost distinguishes the
certificates:

    gradient method, expectation:   c_tau = E||e_{tau-1}||^2 / (2L) + psi_tau
    gradient method, high prob.:    c_tau = 4^theta K_{tau-1}^2 / (2L) + psi_tau,
                                    whole series scaled by h(theta, delta)
    prox method, expectation:       c_tau = 2 D E||e_{tau-1}|| + psi_tau
    prox method, high prob.:        c_tau = 2 D K_{tau-1} + psi_tau,
                                    scaled by h_p(theta, delta)

The high-probability scale factors are not hard-coded: they are the
quantile bound of the sub-Weibull class at unit moment scale, evaluated at
tail exponent 2*theta (the square of the error norm drives the gradient
method) or theta (the norm itself drives the prox method).  A Markov-
inequality alternative (expectation series divided by delta) is provided
for comparison, and the long-run asymptote e_bar/(2 mu) + (L/mu) psi_bar
caps the plateau.  Every series is a plain array B_0..B_T.
"""

from __future__ import annotations

import numpy as np

from .subweibull import SubWeibullParams, hp_bound


def _check_zeta(zeta: float) -> None:
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {zeta}")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def geometric_recursion(r0: float, zeta: float, costs: np.ndarray) -> np.ndarray:
    """B_0 = r0; B_{t+1} = zeta B_t + costs[t].  Length len(costs) + 1."""
    _check_zeta(zeta)
    if r0 < 0:
        raise ValueError(f"r0 must be nonnegative, got {r0}")
    out = np.empty(len(costs) + 1)
    out[0] = r0
    acc = r0
    for t, c in enumerate(costs):
        acc = zeta * acc + c
        out[t + 1] = acc
    return out


def _cost_inputs(
    constant: float, constant_name: str, stat, stat_name: str, psi
) -> tuple[np.ndarray, np.ndarray]:
    """Checked inputs of one cost formula: the per-step statistic and psi.

    The constant (smoothness or diameter) must be positive; stat and psi
    must be nonnegative series of one length, the horizon T.
    """
    if constant <= 0:
        raise ValueError(f"{constant_name} must be positive, got {constant}")
    stat = np.asarray(stat, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if stat.ndim != 1 or psi.shape != stat.shape:
        raise ValueError(
            f"{stat_name} and psi must be series of one length, got {stat.shape} and {psi.shape}"
        )
    if np.any(stat < 0) or np.any(psi < 0):
        raise ValueError(f"{stat_name} and psi entries must be nonnegative")
    return stat, psi


def ogd_highprob_factor(theta: float, delta: float) -> float:
    """Scale h(theta, delta) applied to the gradient-method series.

    Derived as the unit-scale quantile bound at tail exponent 2*theta; this
    equals log(2/delta)**(2 theta) * (e/theta)**(2 theta).
    """
    _check_delta(delta)
    return hp_bound(SubWeibullParams(2.0 * theta, 1.0), delta)


def opgm_highprob_factor(theta: float, delta: float) -> float:
    """Scale h_p(theta, delta) = log(2/delta)**theta * (2e/theta)**theta."""
    _check_delta(delta)
    return hp_bound(SubWeibullParams(theta, 1.0), delta)


def ogd_expectation_bound(
    r0: float, zeta: float, second_moments, psi, smoothness: float
) -> np.ndarray:
    """Expected-regret certificate for the gradient method, t = 0..T.

    second_moments[i] = E||e_i||^2 for i = 0..T-1; psi[i] is the
    variability entering between times i and i+1.
    """
    moments, psi = _cost_inputs(smoothness, "smoothness", second_moments, "second_moments", psi)
    return geometric_recursion(r0, zeta, (1.0 / (2.0 * smoothness)) * moments + psi)


def ogd_highprob_bound(
    r0: float,
    zeta: float,
    envelope_ks,
    psi,
    theta: float,
    delta: float,
    smoothness: float,
) -> np.ndarray:
    """High-probability certificate for the gradient method, t = 0..T.

    envelope_ks[i] is the sub-Weibull moment scale of ||e_i||; the squared
    norms aggregate into a tail-exponent-2*theta variable with scale
    4^theta K_i^2 / (2L), whence the series and the factor h(theta, delta).
    Holds with probability at least 1 - delta at each fixed t.
    """
    ks, psi = _cost_inputs(smoothness, "smoothness", envelope_ks, "envelope_ks", psi)
    costs = (4.0**theta / (2.0 * smoothness)) * ks**2 + psi
    return ogd_highprob_factor(theta, delta) * geometric_recursion(r0, zeta, costs)


def opgm_expectation_bound(
    r0: float, zeta: float, first_moments, psi, diameter: float
) -> np.ndarray:
    """Expected-regret certificate for the prox method, t = 0..T.

    first_moments[i] = E||e_i||; the error enters linearly with weight 2D,
    D being the domain (or constraint-box) diameter.
    """
    moments, psi = _cost_inputs(diameter, "diameter", first_moments, "first_moments", psi)
    return geometric_recursion(r0, zeta, 2.0 * diameter * moments + psi)


def opgm_highprob_bound(
    r0: float,
    zeta: float,
    envelope_ks,
    psi,
    diameter: float,
    theta: float,
    delta: float,
) -> np.ndarray:
    """High-probability certificate for the prox method, t = 0..T.

    The error norms aggregate at their own tail exponent theta with scale
    2 D K_i, scaled by h_p(theta, delta).  Holds with probability at least
    1 - delta at each fixed t.
    """
    ks, psi = _cost_inputs(diameter, "diameter", envelope_ks, "envelope_ks", psi)
    costs = 2.0 * diameter * ks + psi
    return opgm_highprob_factor(theta, delta) * geometric_recursion(r0, zeta, costs)


def asymptote(mu: float, smoothness: float, e_bar_second_moment: float, psi_bar: float) -> float:
    """Almost-sure limsup cap: e_bar/(2 mu) + (L/mu) psi_bar."""
    if mu <= 0 or smoothness <= 0:
        raise ValueError("mu and smoothness must be positive")
    if e_bar_second_moment < 0 or psi_bar < 0:
        raise ValueError("e_bar and psi_bar must be nonnegative")
    return e_bar_second_moment / (2.0 * mu) + (smoothness / mu) * psi_bar


def markov_highprob_bound(expectation, delta: float) -> np.ndarray:
    """Markov-inequality alternative: an expectation series divided by delta.

    Scales as 1/delta where the sub-Weibull certificates scale as
    log(1/delta); kept for empirical comparison.
    """
    _check_delta(delta)
    return np.asarray(expectation, dtype=float) / delta
