"""Online gradient descent and online proximal-gradient steps.

Both methods take a single step per time index with the fixed step size 1/L
using the inexact gradient v_t = grad f_t(x_t) + e_t:

    gradient step:      x_{t+1} = x_t - (1/L) v_t
    prox-gradient step: x_{t+1} = prox_{(1/L) g_t}(x_t - (1/L) v_t)

`run` drives a full horizon and records the instantaneous regret
r_t = F_t(x_t) - F_t*, the realized error norms, and the per-step
variability terms needed by the certificate recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import noise as noise_mod
from .problems import OnlineProblem, variability

SOLVERS = ("ogd", "opgm")


@dataclass
class SolverState:
    """Iterate, time index, step size and the last realized error norm."""

    x: np.ndarray
    t: int
    step: float
    last_error_norm: float = 0.0


def _estimate_gradient(
    problem: OnlineProblem,
    model: noise_mod.NoiseModel,
    x: np.ndarray,
    t: int,
    seed: int,
    trial: int,
) -> tuple[np.ndarray, float]:
    raw = noise_mod.sample(model, problem.error_dim, seed, trial, t)
    e = problem.map_error(raw)
    return problem.grad(t, x) + e, float(np.linalg.norm(e))


def ogd_step(
    state: SolverState,
    problem: OnlineProblem,
    model: noise_mod.NoiseModel,
    seed: int,
    trial: int = 0,
) -> SolverState:
    """One inexact gradient step; rejects regularized problems."""
    if not problem.smooth_only():
        raise ValueError("problem carries a regularizer; use opgm_step")
    v, err_norm = _estimate_gradient(problem, model, state.x, state.t, seed, trial)
    return SolverState(state.x - state.step * v, state.t + 1, state.step, err_norm)


def opgm_step(
    state: SolverState,
    problem: OnlineProblem,
    model: noise_mod.NoiseModel,
    seed: int,
    trial: int = 0,
) -> SolverState:
    """One inexact prox-gradient step; requires a prox handle."""
    reg = problem.regularizer
    if reg is None:
        raise ValueError("problem exposes no prox handle; use ogd_step")
    v, err_norm = _estimate_gradient(problem, model, state.x, state.t, seed, trial)
    x_next = reg.prox(state.step, state.x - state.step * v)
    return SolverState(x_next, state.t + 1, state.step, err_norm)


@dataclass
class RegretTrajectory:
    """Per-step record of one run: length horizon + 1.

    Row t holds (r_t, ||e_{t-1}||, sigma_t, phi_tilde_t); row 0 has zero
    error and variability.  Regret values in (-tol, 0) are clipped to 0,
    where tol is 1e-9 for closed-form optimal values and 1e-6 for
    inner-solver ones.
    """

    solver: str
    seed: int
    trial: int
    regret: np.ndarray
    error_norm: np.ndarray
    sigma: np.ndarray
    phi_tilde: np.ndarray
    x_final: np.ndarray
    step: float
    outside_theory: bool = False
    domain_excursions: int = 0
    max_step_norm: float = 0.0
    min_raw_regret: float = field(default=0.0)

    @property
    def psi_tilde(self) -> np.ndarray:
        return self.sigma + self.phi_tilde

    def __len__(self) -> int:
        return self.regret.shape[0]


def run(
    problem: OnlineProblem,
    solver: str,
    model: noise_mod.NoiseModel,
    horizon: int | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
    trial: int = 0,
    step_override: float | None = None,
) -> RegretTrajectory:
    """Run one seeded trajectory and record regret and variability.

    Deterministic: the same (seed, trial) reproduce the trajectory
    bit-exactly regardless of what else runs concurrently.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
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

    x = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},), got {x.shape}")
    if np.linalg.norm(x) >= problem.domain_radius:
        raise ValueError("x0 lies outside the domain ball")
    if problem.regularizer is not None and not np.isfinite(problem.regularizer.value(x)):
        raise ValueError("x0 is infeasible for the problem's regularizer")

    outside_theory = step_override is not None
    step = (1.0 / problem.smoothness) if step_override is None else float(step_override)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")

    reg_tol = 1e-9 if problem.fstar_exact else 1e-6
    step_fn = ogd_step if solver == "ogd" else opgm_step
    state = SolverState(x, 0, step)

    regret = np.empty(horizon + 1)
    error_norm = np.zeros(horizon + 1)
    sigma = np.zeros(horizon + 1)
    phi_tilde = np.zeros(horizon + 1)
    excursions = 0
    max_step_norm = 0.0
    min_raw = np.inf

    def record(t: int, xt: np.ndarray) -> None:
        nonlocal excursions, min_raw
        r = problem.total_value(t, xt) - problem.fstar(t)
        min_raw = min(min_raw, r)
        if not np.isfinite(r):
            raise RuntimeError(
                f"non-finite regret at t={t} (seed={seed}, trial={trial})"
            )
        if r < -reg_tol:
            raise RuntimeError(
                f"regret {r:.3e} below -{reg_tol:g} at t={t}: inconsistent "
                "optimal-value oracle"
            )
        regret[t] = max(r, 0.0)
        if np.linalg.norm(xt) >= problem.domain_radius:
            excursions += 1

    record(0, state.x)
    for t in range(horizon):
        new_state = step_fn(state, problem, model, seed, trial)
        if not np.all(np.isfinite(new_state.x)):
            raise RuntimeError(
                f"non-finite iterate at t={t + 1} (seed={seed}, trial={trial})"
            )
        max_step_norm = max(max_step_norm, float(np.linalg.norm(new_state.x - state.x)))
        state = new_state
        record(t + 1, state.x)
        error_norm[t + 1] = state.last_error_norm
        sigma[t + 1], phi_tilde[t + 1] = variability(problem, t + 1, state.x)

    return RegretTrajectory(
        solver=solver,
        seed=seed,
        trial=trial,
        regret=regret,
        error_norm=error_norm,
        sigma=sigma,
        phi_tilde=phi_tilde,
        x_final=state.x.copy(),
        step=step,
        outside_theory=outside_theory,
        domain_excursions=excursions,
        max_step_norm=max_step_norm,
        min_raw_regret=float(min_raw),
    )
