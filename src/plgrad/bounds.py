"""Computable regret certificates for the two online methods.

Both methods obey one linear recursion in the regret,

    r_{t+1} <= zeta r_t + weight ||e_t||^power + psi_{t+1},

with contraction zeta = 1 - mu/L.  They differ only in how the gradient
error enters, and an ErrorCost record states that once per method:
power 2, weight 1/(2L) for the gradient method (under PL) and power 1,
weight 2D for the prox method (under proximal PL), D being the domain (or
constraint-box) diameter.  error_cost maps a solver name to its record.

Every certificate is the geometric recursion

    B_0 = r_0,    B_{t+1} = zeta B_t + c_{t+1},

equal to the closed-form sum zeta^t r_0 + sum_tau zeta^(t-tau) c_tau but
numerically stable for long horizons, with one per-step cost

    c_tau = weight * m_{tau-1} + psi_tau.

In expectation m_i = E||e_i||^power.  With high probability m_i is the
moment scale of ||e_i||^power, which the sub-Weibull power rule gives as
k(power, theta) K_i^power (4^theta K_i^2 for power 2, K_i for power 1), and
the whole series is scaled by the unit-scale quantile bound at tail exponent
power * theta.  A Markov-inequality alternative (expectation series divided
by delta) is provided for comparison, and the long-run asymptote, the fixed
point (L/mu)(weight e_bar + psi_bar) of the expectation recursion at
constant inputs, caps the plateau.  Every series is a plain array B_0..B_T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subweibull


@dataclass(frozen=True)
class ErrorCost:
    """Per-step random cost weight * ||e||^power of one method's recursion."""

    power: int
    weight: float

    def __post_init__(self) -> None:
        if not (self.power > 0 and self.weight > 0):
            raise ValueError(f"power and weight must be positive, got {self}")


def error_cost(solver: str, smoothness: float, diameter: float) -> ErrorCost:
    """The error cost of a solver: ogd -> (2, 1/(2L)), opgm -> (1, 2D).

    Only the constant the solver uses is read, and it must be positive.
    """
    if solver == "ogd":
        if smoothness <= 0:
            raise ValueError(f"smoothness must be positive, got {smoothness}")
        return ErrorCost(2, 1.0 / (2.0 * smoothness))
    if solver == "opgm":
        if diameter <= 0:
            raise ValueError(f"diameter must be positive, got {diameter}")
        return ErrorCost(1, 2.0 * diameter)
    raise ValueError(f"unknown solver {solver!r}")


def _check_zeta(zeta: float) -> None:
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {zeta}")


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


def _cost_inputs(stat, stat_name: str, psi) -> tuple[np.ndarray, np.ndarray]:
    """Checked inputs of the cost formula: the per-step statistic and psi.

    Both must be nonnegative series of one length, the horizon T.
    """
    stat = np.asarray(stat, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if stat.ndim != 1 or psi.shape != stat.shape:
        raise ValueError(
            f"{stat_name} and psi must be series of one length, got {stat.shape} and {psi.shape}"
        )
    if np.any(stat < 0) or np.any(psi < 0):
        raise ValueError(f"{stat_name} and psi entries must be nonnegative")
    return stat, psi


def highprob_factor(power: int, theta: float, delta: float) -> float:
    """Scale of a high-probability series: the quantile bound of (power * theta, 1).

    For power 2 (the gradient method, h) this equals
    log(2/delta)**(2 theta) * (e/theta)**(2 theta); for power 1 (the prox
    method, h_p) log(2/delta)**theta * (2e/theta)**theta.
    """
    return subweibull.hp_bound(subweibull.SubWeibullParams(power * theta, 1.0), delta)


def expectation_bound(r0: float, zeta: float, cost: ErrorCost, moments, psi) -> np.ndarray:
    """Expected-regret certificate, t = 0..T.

    moments[i] = E||e_i||^power for i = 0..T-1; psi[i] is the variability
    entering between times i and i+1.
    """
    moments, psi = _cost_inputs(moments, "moments", psi)
    return geometric_recursion(r0, zeta, cost.weight * moments + psi)


def highprob_bound(
    r0: float,
    zeta: float,
    cost: ErrorCost,
    envelope_ks,
    psi,
    theta: float,
    delta: float,
) -> np.ndarray:
    """High-probability certificate, t = 0..T.

    envelope_ks[i] is the sub-Weibull moment scale of ||e_i||; the costs
    aggregate at tail exponent power * theta with scale
    weight * k(power, theta) * K_i^power, whence the factor
    highprob_factor(power, theta, delta).  Holds with probability at least
    1 - delta at each fixed t.
    """
    ks, psi = _cost_inputs(envelope_ks, "envelope_ks", psi)
    unit = subweibull.SubWeibullParams(theta, 1.0)
    scale = cost.weight * subweibull.power(unit, cost.power).k
    costs = scale * ks**cost.power + psi
    return highprob_factor(cost.power, theta, delta) * geometric_recursion(r0, zeta, costs)


def asymptote(
    mu: float, smoothness: float, cost: ErrorCost, e_bar: float, psi_bar: float
) -> float:
    """Long-run cap (L/mu)(weight e_bar + psi_bar), e_bar = sup E||e||^power.

    The fixed point of expectation_bound when every step has the inputs
    (e_bar, psi_bar): zeta = 1 - mu/L, so B = c / (1 - zeta) = (L/mu) c.
    """
    if mu <= 0 or smoothness <= 0:
        raise ValueError("mu and smoothness must be positive")
    if e_bar < 0 or psi_bar < 0:
        raise ValueError("e_bar and psi_bar must be nonnegative")
    return (smoothness / mu) * (cost.weight * e_bar + psi_bar)


def markov_highprob_bound(expectation, delta: float) -> np.ndarray:
    """Markov-inequality alternative: an expectation series divided by delta.

    Scales as 1/delta where the sub-Weibull certificates scale as
    log(1/delta); kept for empirical comparison.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return np.asarray(expectation, dtype=float) / delta
