"""Online gradient descent and online proximal-gradient steps.

Both methods take a single step per time index with the fixed step size 1/L
using the inexact gradient v_t = grad f_t(x_t) + e_t:

    gradient step:      x_{t+1} = x_t - (1/L) v_t
    prox-gradient step: x_{t+1} = prox_{(1/L) g_t}(x_t - (1/L) v_t)

`run` drives a full horizon for a batch of trials at once: the iterates of
R trials are the rows of an (R, n) matrix, each trial's errors come from
its own noise block keyed by (seed, trial), and every oracle works row by
row, so a trial's trajectory is bit-identical whatever batch it runs in.
It records the instantaneous regret r_t = F_t(x_t) - F_t*, the realized
error norms, and the per-step variability terms needed by the certificate
recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import noise as noise_mod
from .problems import OnlineProblem, variability

SOLVERS = ("ogd", "opgm")


def _row_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(x, x))


def _gradient_step(
    problem: OnlineProblem,
    t: int,
    x: np.ndarray,
    step: float,
    error: np.ndarray,
    out: np.ndarray | None,
) -> np.ndarray:
    """x - step * (grad f_t(x) + e), with the expression's operations in its order.

    Works in the one array the gradient is written to (out, or a fresh one)
    where the expression allocates four; on batch-sized arrays the
    allocations cost more than the arithmetic.
    """
    v = problem.grad(t, x, out=out)
    np.add(v, error, out=v)
    v *= step
    return np.subtract(x, v, out=v)


def ogd_step(
    problem: OnlineProblem,
    t: int,
    x: np.ndarray,
    step: float,
    error: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One inexact gradient step on each row of x; rejects regularized problems.

    error holds the mapped gradient errors e_t, one row per row of x.  The
    new iterate is written into out when it is given (an array of x's shape
    overlapping neither x nor error) and returned.
    """
    if not problem.smooth_only():
        raise ValueError("problem carries a regularizer; use opgm_step")
    return _gradient_step(problem, t, x, step, error, out)


def opgm_step(
    problem: OnlineProblem,
    t: int,
    x: np.ndarray,
    step: float,
    error: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One inexact prox-gradient step on each row of x; requires a prox handle.

    error and out as for ogd_step.
    """
    reg = problem.regularizer
    if reg is None:
        raise ValueError("problem exposes no prox handle; use ogd_step")
    v = _gradient_step(problem, t, x, step, error, out)
    return reg.prox(step, v, out=v)


@dataclass
class RegretTrajectory:
    """Per-step record of a batch of trials: one row per trial, horizon + 1 columns.

    Column t holds r_t, ||e_{t-1}||, sigma_t and phi_tilde_t; column 0 has
    zero error and variability.  Regret values in (-tol, 0) are clipped to
    0, where tol is 1e-9 for closed-form optimal values and 1e-6 for
    inner-solver ones.  domain_excursions, max_step_norm and min_raw_regret
    hold one entry per trial.
    """

    solver: str
    seed: int
    trials: tuple[int, ...]
    regret: np.ndarray
    error_norm: np.ndarray
    sigma: np.ndarray
    phi_tilde: np.ndarray
    x_final: np.ndarray
    step: float
    outside_theory: bool
    domain_excursions: np.ndarray
    max_step_norm: np.ndarray
    min_raw_regret: np.ndarray

    @property
    def psi_tilde(self) -> np.ndarray:
        return self.sigma + self.phi_tilde

    def __len__(self) -> int:
        return self.regret.shape[1]


def theory_exceptions(problem: OnlineProblem, step_override: float | None) -> list[str]:
    """The conditions of a run that no certificate covers; empty inside the theory.

    Every certificate assumes the step 1/L and the regret against the
    composite optimum F*_t, but each family's fstar is the optimum of its
    own cost, which an l1 term added to it does not enter.
    """
    reasons = []
    if step_override is not None:
        reasons.append(f"step_override = {step_override:g}")
    reg = problem.regularizer
    if reg is not None and reg.kind == "l1" and reg.weight > 0:
        reasons.append(f"l1 weight {reg.weight:g} (the regret is F_t - f*_t, not F_t - F*_t)")
    return reasons


def run(
    problem: OnlineProblem,
    solver: str,
    model: noise_mod.NoiseModel,
    horizon: int | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
    trials: Iterable[int] = range(1),
    step_override: float | None = None,
) -> RegretTrajectory:
    """Run the seeded trials together and record regret and variability.

    Deterministic: row k reproduces trial trials[k] bit-exactly, whichever
    other trials run in the same call.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    trials = tuple(int(k) for k in trials)
    if not trials:
        raise ValueError("need at least one trial")
    if horizon is None:
        horizon = problem.horizon
    if not 0 <= horizon <= problem.horizon:
        raise ValueError(
            f"horizon {horizon} outside the problem's built range [0, {problem.horizon}]"
        )
    if solver == "ogd" and not problem.smooth_only():
        raise ValueError("ogd requires an unregularized problem")
    if solver == "opgm" and problem.regularizer is None:
        raise ValueError("opgm requires a problem with a prox handle")

    x = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},), got {x.shape}")
    if np.linalg.norm(x) >= problem.domain_radius:
        raise ValueError("x0 lies outside the domain ball")
    if problem.regularizer is not None and not np.isfinite(problem.regularizer.value(x)):
        raise ValueError("x0 is infeasible for the problem's regularizer")

    outside_theory = bool(theory_exceptions(problem, step_override))
    step = (1.0 / problem.smoothness) if step_override is None else float(step_override)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")

    reg_tol = 1e-9 if problem.fstar_exact else 1e-6
    step_fn = ogd_step if solver == "ogd" else opgm_step
    # raw errors as (horizon, trials, error_dim): row t feeds step t of every trial
    raw = np.stack(
        [noise_mod.sample(model, problem.error_dim, seed, k, horizon) for k in trials],
        axis=1,
    )

    shape = (len(trials), horizon + 1)
    regret = np.empty(shape)
    error_norm = np.zeros(shape)
    sigma = np.zeros(shape)
    phi_tilde = np.zeros(shape)
    excursions = np.zeros(len(trials), dtype=int)
    max_step_norm = np.zeros(len(trials))
    min_raw = np.full(len(trials), np.inf)

    def record(t: int, xt: np.ndarray) -> None:
        r = problem.total_value(t, xt) - problem.fstar(t)
        np.minimum(min_raw, r, out=min_raw)
        bad = ~np.isfinite(r)
        if np.any(bad):
            raise RuntimeError(
                f"non-finite regret at t={t} (seed={seed}, trial={trials[np.argmax(bad)]})"
            )
        low = r < -reg_tol
        if np.any(low):
            k = int(np.argmax(low))
            raise RuntimeError(
                f"regret {r[k]:.3e} below -{reg_tol:g} at t={t} (trial={trials[k]}): "
                "inconsistent optimal-value oracle"
            )
        regret[:, t] = np.maximum(r, 0.0)
        excursions[_row_norm(xt) >= problem.domain_radius] += 1

    x = np.tile(x, (len(trials), 1))
    # Batch-sized work arrays, allocated once: the error, the step
    # difference and the next iterate (swapped with x each step).  Fresh
    # temporaries of this size can sit above the allocator's mmap
    # threshold, and then every step maps and unmaps them, page faults
    # included.
    e = np.empty_like(x)
    diff = np.empty_like(x)
    x_next = np.empty_like(x)
    record(0, x)
    for t in range(horizon):
        problem.map_error(raw[t], out=e)
        step_fn(problem, t, x, step, e, out=x_next)
        bad = ~np.all(np.isfinite(x_next), axis=1)
        if np.any(bad):
            raise RuntimeError(
                f"non-finite iterate at t={t + 1} (seed={seed}, trial={trials[np.argmax(bad)]})"
            )
        np.maximum(
            max_step_norm, _row_norm(np.subtract(x_next, x, out=diff)), out=max_step_norm
        )
        x, x_next = x_next, x
        record(t + 1, x)
        error_norm[:, t + 1] = _row_norm(e)
        sigma[:, t + 1], phi_tilde[:, t + 1] = variability(problem, t + 1, x)

    return RegretTrajectory(
        solver=solver,
        seed=seed,
        trials=trials,
        regret=regret,
        error_norm=error_norm,
        sigma=sigma,
        phi_tilde=phi_tilde,
        x_final=x,
        step=step,
        outside_theory=outside_theory,
        domain_excursions=excursions,
        max_step_norm=max_step_norm,
        min_raw_regret=min_raw,
    )
