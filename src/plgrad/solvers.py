"""Online gradient descent and online proximal-gradient steps.

Both methods take one prox-gradient step per time index with the fixed
step size 1/L using the inexact gradient v_t = grad f_t(x_t) + e_t:

    x_{t+1} = prox_{(1/L) g_t}(x_t - (1/L) v_t)

The gradient method is the case g_t = 0, where the prox is the identity, so
the solver name only picks the certificate and the recursion coefficient
(ogd refuses a regularized problem).

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
from .problems import OnlineProblem, _row_norm

SOLVERS = ("ogd", "opgm")


def prox_gradient_step(
    problem: OnlineProblem,
    t: int,
    x: np.ndarray,
    step: float,
    error: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """prox_{step g_t}(x - step * (grad f_t(x) + e)) on each row of x.

    error holds the mapped gradient errors e_t, one row per row of x.  The
    new iterate is written into out when it is given (an array of x's shape
    overlapping neither x nor error) and returned.  This makes one grad
    call and adds the error to it; run takes the step from the measured
    gradient grad f_t(x) + e_t that problem.evaluate formed together with
    the values at x, so a step there calls no oracle and adds no error.
    """
    v = problem.grad(t, x, out=out)
    np.add(v, error, out=v)
    return _descend(problem, x, v, step)


def _descend(problem: OnlineProblem, x: np.ndarray, v: np.ndarray, step: float) -> np.ndarray:
    """prox_{step g}(x - step * v) for the measured gradient v, written into v.

    The expression's operations run in its order in v's memory, where the
    expression allocates three; on batch-sized arrays the allocations cost
    more than the arithmetic.
    """
    v *= step
    np.subtract(x, v, out=v)
    return problem.regularizer.prox(step, v, out=v)


def _check_regret(r: np.ndarray, tol: float, seed: int, trials: tuple[int, ...]) -> None:
    """Raise for the earliest column t of r = F_t(x_t) - f*_t, one row per
    trial, that holds a non-finite entry or one below -tol.

    The message names the first such trial; at one t a non-finite regret
    is reported before a low one.
    """
    # a nan entry makes the minimum nan; the masks are built only on failure
    if r.min() >= -tol and r.max() < np.inf:
        return
    bad = ~np.isfinite(r)
    low = r < -tol
    t = int(np.argmax(np.any(bad | low, axis=0)))
    if bad[:, t].any():
        raise RuntimeError(
            f"non-finite regret at t={t} (seed={seed}, trial={trials[np.argmax(bad[:, t])]})"
        )
    k = int(np.argmax(low[:, t]))
    raise RuntimeError(
        f"regret {r[k, t]:.3e} below -{tol:g} at t={t} (trial={trials[k]}): "
        "inconsistent optimal-value oracle"
    )


@dataclass
class RegretTrajectory:
    """Per-step record of a batch of trials: one row per trial, horizon + 1 columns.

    Column t holds r_t, ||e_{t-1}|| and phi_tilde_t (sigma_t, which depends
    on t only, is one row); column 0 has zero error and variability.
    ||e_{t-1}|| is the norm problem.evaluate gives with the measured
    gradient: ||a|| |eta| in closed form on a one-row A with measurement
    noise, the norm of the mapped error everywhere else.
    Regret values in (-tol, 0) are clipped to 0, where tol is the
    problem's fstar_tol.
    domain_excursions, max_step_norm and min_raw_regret hold one entry per
    trial; theory_exceptions lists what no certificate covers.
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
    theory_exceptions: list[str]
    domain_excursions: np.ndarray
    max_step_norm: np.ndarray
    min_raw_regret: np.ndarray

    @property
    def psi_tilde(self) -> np.ndarray:
        return self.sigma + self.phi_tilde

    @property
    def outside_theory(self) -> bool:
        return bool(self.theory_exceptions)

    def __len__(self) -> int:
        return self.regret.shape[1]


def theory_exceptions(problem: OnlineProblem, step_override: float | None) -> list[str]:
    """The conditions known before a run that no certificate covers.

    Every certificate assumes the step 1/L and the regret against the
    composite optimum F*_t, but each family's fstar is the optimum of its
    own cost, which an l1 term added to it does not enter.  run adds
    iterates that leave the domain ball, where the constants are certified.
    """
    reasons = []
    if step_override is not None:
        reasons.append(f"step_override = {step_override:g}")
    reg = problem.regularizer
    if reg.kind == "l1" and reg.weight > 0:
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

    Each iterate x_t gets one problem.evaluate call on the (trials, n)
    matrix: f_t(x_t) for the regret, f_{t-1}(x_t) for phi_tilde_t and,
    except at the last iterate, the measured gradient grad f_t(x_t) + e_t
    of the next step, fed step t's raw noise, with ||e_t||.  The quadratic
    core forms A x_t once for all of them; a one-row A adds the noise to
    its scalar residual and gives ||e_t|| in closed form, so e_t is never
    formed.  The optimal values f*_0..f*_T depend on t only and are read
    once, before the loop.
    g_t(x_t) is evaluated only for an l1 term: g = 0 on the feasible x0,
    and a box indicator is 0 on its own prox outputs, so the regret adds
    0.0 in the place of g there (a nan iterate is caught by the finiteness
    check before it is recorded).  An abort names the earliest t that
    failed; at one t a non-finite iterate comes before a regret failure.
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

    x = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if np.linalg.norm(x) >= problem.domain_radius:
        raise ValueError("x0 lies outside the domain ball")
    if not np.isfinite(problem.regularizer.value(x)):
        raise ValueError("x0 is infeasible for the problem's regularizer")

    step = (1.0 / problem.smoothness) if step_override is None else float(step_override)
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step}")

    reg_tol = problem.fstar_tol
    fstar = np.array([problem.fstar(t) for t in range(horizon + 1)])
    g_varies = problem.regularizer.kind == "l1"
    # raw errors as (horizon, trials, error_dim): row t feeds step t of every trial
    raw = np.stack(
        [noise_mod.sample(model, problem.error_dim, seed, k, horizon) for k in trials],
        axis=1,
    )

    # The loop writes F_t(x_t), f_t(x_t) - f_{t-1}(x_t) and ||e_{t-1}||
    # into column t; the regret checks, minimum and clip, sigma and the
    # absolute values then run once on whole matrices.
    shape = (len(trials), horizon + 1)
    regret = np.empty(shape)
    error_norm = np.zeros(shape)
    phi_tilde = np.zeros(shape)
    excursions = np.zeros(len(trials), dtype=int)
    max_step_norm = np.zeros(len(trials))

    def check_regret(t: int) -> None:
        _check_regret(regret[:, : t + 1] - fstar[: t + 1], reg_tol, seed, trials)

    def evaluate(t: int, xt: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        # f_t(x_t), f_{t-1}(x_t) and, before the last iterate, the measured
        # gradient of step t into v and ||e_t|| into column t + 1
        if t == horizon:
            f, f_prev, _ = problem.evaluate(t, xt)
        else:
            f, f_prev, error_norm[:, t + 1] = problem.evaluate(t, xt, grad_out=v, noise=raw[t])
        return f, f_prev

    def record(t: int, xt: np.ndarray, f: np.ndarray) -> None:
        # f = f_t(x_t); F_t(x_t) in the operations of total_value
        g = problem.regularizer.value(xt) if g_varies else 0.0
        col = np.add(f, g, out=regret[:, t])
        # a non-finite value means the iterate overflowed the cost, and the
        # steps after it would compute inf - inf: end the run here
        if not np.isfinite(col).all():
            check_regret(t)
        np.add(excursions, _row_norm(xt) >= problem.domain_radius, out=excursions)

    x = np.tile(x, (len(trials), 1))
    # Batch-sized work arrays, allocated once: the step difference, and
    # the measured gradient at x, which the step overwrites with the next
    # iterate; the old iterate's array then takes the next gradient.  Fresh
    # temporaries of this size can sit above the allocator's mmap threshold,
    # and then every step maps and unmaps them, page faults included.
    diff = np.empty_like(x)
    v = np.empty_like(x)
    f, _ = evaluate(0, x, v)
    record(0, x, f)
    for t in range(horizon):
        x_next = _descend(problem, x, v, step)
        # x is finite, so a row of x_next with a nan or inf entry has a
        # non-finite step norm; the full scan runs only when one does
        step_norm = _row_norm(np.subtract(x_next, x, out=diff))
        if not np.isfinite(step_norm).all():
            bad = ~np.isfinite(x_next).all(axis=1)
            if bad.any():
                check_regret(t)
                raise RuntimeError(
                    f"non-finite iterate at t={t + 1} (seed={seed}, trial={trials[np.argmax(bad)]})"
                )
        np.maximum(max_step_norm, step_norm, out=max_step_norm)
        x, v = x_next, x
        f, f_prev = evaluate(t + 1, x, v)
        record(t + 1, x, f)
        np.subtract(f, f_prev, out=phi_tilde[:, t + 1])

    np.subtract(regret, fstar, out=regret)
    _check_regret(regret, reg_tol, seed, trials)
    min_raw = regret.min(axis=1)
    np.maximum(regret, 0.0, out=regret)
    sigma = np.zeros(horizon + 1)
    np.abs(np.diff(fstar), out=sigma[1:])
    np.abs(phi_tilde, out=phi_tilde)

    exceptions = theory_exceptions(problem, step_override)
    if excursions.any():
        exceptions.append(f"iterates left the domain ball in {excursions.sum()} trial-steps")
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
        theory_exceptions=exceptions,
        domain_excursions=excursions,
        max_step_norm=max_step_norm,
        min_raw_regret=min_raw,
    )
