"""Computable regret certificates for the two online methods.

Both methods obey one linear recursion in the regret,

    r_{t+1} <= zeta r_t + weight ||e_t||^power + psi_{t+1},

with contraction zeta = 1 - mu/L in [0, 1).  A Recursion record states it
once per method, and gives a run's largest pathwise residual: power 2,
weight 1/(2L) for the gradient method (under PL) and power 1, weight 2D for
the prox method (under proximal PL), D being the domain (or constraint-box)
diameter.  recursion maps a solver name in SOLVERS to its record, which is
all the name picks: one kernel steps both methods.

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
by delta) is provided for comparison, and the record's long-run cap, the
fixed point (weight e_bar + psi_bar) / (1 - zeta) of the expectation
recursion at constant inputs, caps the plateau.  recursion is the only
place that reads mu and L.  Every series is a plain array B_0..B_T, held
with its kind, input mode and level in a Certificate record; a series with
an entry that overflows a float raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subweibull

SOLVERS = ("ogd", "opgm")


@dataclass(frozen=True)
class Recursion:
    """r_{t+1} <= zeta r_t + weight ||e_t||^power + psi_{t+1} of one method."""

    zeta: float
    power: int
    weight: float

    def __post_init__(self) -> None:
        # zeta = 0 is mu = L, where B_{t+1} = c_{t+1}
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError(f"contraction 1 - mu/L must lie in [0, 1), got {self.zeta}")
        if not (self.power > 0 and 0 < self.weight < np.inf):
            raise ValueError(f"power and weight must be positive and finite, got {self}")

    def max_residual(self, regret, err, psi) -> float:
        """Largest r_{t+1} - zeta r_t - weight ||e_t||^power - psi_{t+1} over
        the trials (rows) and t, formed 8 rows at a time: every entry keeps
        its bits, and no (trials, horizon) temporary is held."""
        block_max = []
        for lo in range(0, len(regret), 8):
            rows = slice(lo, lo + 8)
            resid = regret[rows, 1:] - self.zeta * regret[rows, :-1]
            coef = err[rows, 1:] ** self.power
            resid -= np.multiply(coef, self.weight, out=coef)
            resid -= psi[rows, 1:]
            block_max.append(resid.max())
        return float(np.max(block_max))

    @np.errstate(over="ignore")
    def cap(self, e_bar: float, psi_bar: float) -> float:
        """Long-run cap (weight e_bar + psi_bar) / (1 - zeta), e_bar = sup
        E||e||^power: the fixed point of expectation_bound when every step
        has the inputs (e_bar, psi_bar).  A cap that overflows a float raises."""
        if not (0 <= e_bar < np.inf and 0 <= psi_bar < np.inf):
            raise ValueError("e_bar and psi_bar must be finite and nonnegative")
        cap = (self.weight * e_bar + psi_bar) / (1.0 - self.zeta)
        if not cap < np.inf:
            raise ValueError(f"the long-run cap is {cap}, not finite")
        return cap


def recursion(solver: str, smoothness: float, mu: float, diameter: float) -> Recursion:
    """zeta = 1 - mu/L with a solver's error cost: ogd -> (2, 1/(2L)),
    opgm -> (1, 2D).  L must be positive, and so must D for opgm."""
    if not smoothness > 0:
        raise ValueError(f"smoothness must be positive, got {smoothness}")
    zeta = 1.0 - mu / smoothness
    if solver == "ogd":
        return Recursion(zeta, 2, 1.0 / (2.0 * smoothness))
    if solver == "opgm":
        if diameter <= 0:
            raise ValueError(f"diameter must be positive, got {diameter}")
        return Recursion(zeta, 1, 2.0 * diameter)
    raise ValueError(f"unknown solver {solver!r}")


def geometric_recursion(r0: float, rec: Recursion, costs: np.ndarray) -> np.ndarray:
    """B_0 = r0; B_{t+1} = zeta B_t + costs[t].  Length len(costs) + 1."""
    if not 0 <= r0 < np.inf:
        raise ValueError(f"r0 must be finite and nonnegative, got {r0}")
    zeta = rec.zeta
    # Python floats take the same IEEE operations in the same order as
    # float64 scalars, without numpy's per-element dispatch
    acc = float(r0)
    values = [acc]
    for c in costs.tolist():
        acc = zeta * acc + c
        values.append(acc)
    return np.array(values)


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


def _finite(series: np.ndarray) -> np.ndarray:
    """series, or a ValueError if an entry is not finite.  Its callers form
    it with numpy's overflow warning off, since the error takes its place."""
    if not np.isfinite(series).all():
        raise ValueError("a certificate series overflows a float")
    return series


def highprob_factor(power: int, theta: float, delta: float) -> float:
    """Scale of a high-probability series: the quantile bound of (power * theta, 1).

    For power 2 (the gradient method, h) this equals
    log(2/delta)**(2 theta) * (e/theta)**(2 theta); for power 1 (the prox
    method, h_p) log(2/delta)**theta * (2e/theta)**theta.
    """
    return subweibull.hp_bound(subweibull.SubWeibullParams(power * theta, 1.0), delta)


@np.errstate(over="ignore")
def expectation_bound(r0: float, rec: Recursion, moments, psi) -> np.ndarray:
    """Expected-regret certificate, t = 0..T.

    moments[i] = E||e_i||^power for i = 0..T-1; psi[i] is the variability
    entering between times i and i+1.
    """
    moments, psi = _cost_inputs(moments, "moments", psi)
    return _finite(geometric_recursion(r0, rec, rec.weight * moments + psi))


@np.errstate(over="ignore")
def highprob_bound(
    r0: float,
    rec: Recursion,
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
    scale = rec.weight * subweibull.power(unit, rec.power).k
    costs = scale * ks**rec.power + psi
    return _finite(highprob_factor(rec.power, theta, delta) * geometric_recursion(r0, rec, costs))


@np.errstate(over="ignore")
def markov_highprob_bound(expectation, delta: float) -> np.ndarray:
    """Markov-inequality alternative: an expectation series divided by delta.

    Scales as 1/delta where the sub-Weibull certificates scale as
    log(1/delta); kept for empirical comparison.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _finite(np.asarray(expectation, dtype=float) / delta)


@dataclass
class Certificate:
    """One certificate series B_0..B_T of one input mode at level delta (None
    for the mean bound).  counts[t] is how many trials exceed it at t >= 1,
    and 0 at t = 0; a run counts only its configured mode's records, so the
    other mode's keep None."""

    kind: str                    # expectation, highprob or markov
    mode: str                    # input mode: empirical or analytic
    level: float | None
    series: np.ndarray
    counts: np.ndarray | None = None

    @property
    def name(self) -> str:  # the column name
        return self.kind if self.level is None else f"{self.kind}_{self.level:g}"


def certificates(r0, rec: Recursion, psi, theta, deltas, inputs: dict) -> list:
    """Every certificate series, uncounted, of each input mode in `inputs`,
    which maps a mode to its per-step (moments, envelope_ks)."""
    out = []
    for mode, (moments, envelope_ks) in inputs.items():
        expectation = expectation_bound(r0, rec, moments, psi)
        out.append(Certificate("expectation", mode, None, expectation))
        for delta in deltas:
            hp = highprob_bound(r0, rec, envelope_ks, psi, theta, delta)
            out.append(Certificate("highprob", mode, delta, hp))
            markov = markov_highprob_bound(expectation, delta)
            out.append(Certificate("markov", mode, delta, markov))
    return out
