"""Online gradient descent and online proximal-gradient steps.

Both methods take one prox-gradient step per time index with the fixed
step size 1/L using the inexact gradient v_t = grad f_t(x_t) + e_t:

    x_{t+1} = prox_{(1/L) g_t}(x_t - (1/L) v_t)

The gradient method is the case g_t = 0, where the prox is the identity, so
one kernel runs both: the method's name picks only the certificate, through
bounds.recursion, and config.build_problem refuses ogd on a regularized
problem.

`run` drives a full horizon for a batch of trials at once: the iterates of
R trials are the rows of an (R, n) matrix, each trial's errors come from
its own noise block keyed by (seed, tag, trial), and every oracle works row by
row, so a trial's trajectory is bit-identical whatever batch it runs in.
It records the instantaneous regret r_t = F_t(x_t) - F_t*, the realized
error norms, and the per-step variability psi_tilde_t that the certificate
recursions read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import noise as noise_mod
from .problems import OnlineProblem, _row_norm


def prox_gradient_step(
    problem: OnlineProblem,
    t: int,
    x: np.ndarray,
    step: float,
    error: np.ndarray,
) -> np.ndarray:
    """prox_{step g_t}(x - step * (grad f_t(x) + e)) on each row of x.

    error holds the mapped gradient errors e_t, one row per row of x; the
    new iterate is a fresh array.  This makes one grad call and adds the
    error to it; run takes the step from the measured gradient
    grad f_t(x) + e_t that problem.evaluate formed together with the values
    at x, so a step there calls no oracle and adds no error.
    """
    v = problem.grad(t, x)
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


def _widen(a: np.ndarray, runs: np.ndarray | None) -> np.ndarray:
    """The n-column form of an array with one column per run; a itself
    without runs.  np.repeat's copy is C-ordered like the full iterate, so
    np.vecdot sums its rows in the same order."""
    return a if runs is None else np.repeat(a, runs, axis=-1)


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

    Column t holds r_t, ||e_{t-1}|| and the variability
    psi_tilde_t = sigma_t + phi_tilde_t, with sigma_t = |f*_t - f*_{t-1}| and
    phi_tilde_t = |f_t(x_t) - f_{t-1}(x_t)|; column 0 has zero error and
    variability.  ||e_{t-1}|| is the norm GradientErrors.draw gives.
    Regret values in (-problem.fstar_tol, 0) are clipped to 0.
    domain_excursions and min_raw_regret hold one entry per trial;
    theory_exceptions lists what no certificate covers.  x_last holds the
    final iterates as run's loop left them, one column per entry of runs
    where it compacted the problem, and x_final widens them to n columns
    when it is read: a caller that never reads it never holds a (trials, n)
    array.
    """

    regret: np.ndarray
    error_norm: np.ndarray
    psi_tilde: np.ndarray
    x_last: np.ndarray
    theory_exceptions: list[str]
    domain_excursions: np.ndarray
    min_raw_regret: np.ndarray
    runs: np.ndarray | None = None

    @property
    def x_final(self) -> np.ndarray:
        """The final iterate of each trial, one row per trial."""
        return _widen(self.x_last, self.runs)

    @property
    def outside_theory(self) -> bool:
        return bool(self.theory_exceptions)

    def __len__(self) -> int:
        return self.regret.shape[1]


def run(
    problem: OnlineProblem,
    model: noise_mod.NoiseModel,
    horizon: int | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
    trials: Iterable[int] = range(1),
    step_override: float | None = None,
) -> RegretTrajectory:
    """Run the seeded trials together; record regret, ||e|| and psi_tilde.

    Deterministic: row k reproduces trial trials[k] bit-exactly, whichever
    other trials run in the same call.

    Each iterate x_t gets one problem.evaluate call on the (trials, n)
    matrix: f_t(x_t) for the regret, f_{t-1}(x_t) for phi_tilde_t and,
    except at the last iterate, the measured gradient grad f_t(x_t) + e_t
    of the next step, fed step t's noise from GradientErrors.draw, which
    has written every error norm ||e_t|| when it returns.  The optimal
    values f*_0..f*_T depend on t only and are formed once, before the loop.
    The regularizer is none or a box: g = 0 on the feasible x0, and a box
    indicator is 0 on its own prox outputs, so g_t(x_t) = 0 on every
    iterate (a nan iterate is caught by the finiteness check before it is
    recorded) and F_t(x_t) = f_t(x_t).  A box whose corner c = max(|lo|,
    |hi|) lies strictly inside the domain ball keeps every iterate there:
    x0 passed the ball check, and a later iterate is a clamp, |x_i| <= c_i,
    whose norm, summed in c's order, cannot exceed ||c||; the per-step ball
    count is skipped there.  An abort names the earliest t that failed; at
    one t a non-finite iterate comes before a regret failure.  The entries
    of x_{t+1} are summed, and a non-finite sum, which any nan or inf among
    them makes, starts the full finiteness scan.

    Where problem.compacted(x0) finds runs of coordinates that stay
    bit-identical (demand response: one per device class), the loop
    iterates its view, one column per run, and widens the iterate to n
    columns with np.repeat only for the reductions: A x inside the view
    and the ball count.  Each widened array is C-ordered like the full
    iterate and is dropped after its reduction, so every output keeps its
    bits; the record widens x_final only when it is read.  Elsewhere the
    loop runs on the problem it was given, whose every oracle call a proxy
    then sees.
    """
    trials = tuple(int(k) for k in trials)
    if not trials:
        raise ValueError("need at least one trial")
    if horizon is None:
        horizon = problem.horizon
    if not 0 <= horizon <= problem.horizon:
        raise ValueError(f"horizon {horizon} outside the problem's range [0, {problem.horizon}]")

    x = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if np.linalg.norm(x) >= problem.domain_radius:
        raise ValueError("x0 lies outside the domain ball")
    reg = problem.regularizer
    if not np.isfinite(reg.value(x)):
        raise ValueError("x0 is infeasible for the problem's regularizer")
    count_ball = reg.kind != "box" or problem.domain_radius <= _row_norm(
        np.maximum(np.abs(reg.lo), np.abs(reg.hi)) + np.zeros(problem.n))
    runs = None
    compacted = problem.compacted(x)
    if compacted is not None:
        problem, runs = compacted
        x = x[np.cumsum(runs) - runs]

    step = (1.0 / problem.smoothness) if step_override is None else float(step_override)
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step}")

    reg_tol = problem.fstar_tol
    fstar = np.array([problem.fstar(t) for t in range(horizon + 1)])
    error_norm, noise = noise_mod.GradientErrors(problem, model).draw(seed, trials, horizon)

    # The loop writes F_t(x_t) and f_t(x_t) - f_{t-1}(x_t) into column t;
    # the regret checks, minimum and clip, the absolute values and sigma_t
    # then run once on whole matrices.
    shape = (len(trials), horizon + 1)
    regret = np.empty(shape)
    psi_tilde = np.zeros(shape)
    excursions = np.zeros(len(trials), dtype=int)

    x = np.tile(x, (len(trials), 1))
    # v, allocated once, takes the measured gradient and then the next
    # iterate; the old iterate's memory takes the next gradient.
    # Batch-sized temporaries can sit above the allocator's mmap threshold,
    # where every step would map and unmap them.
    v = np.empty_like(x)
    for t in range(horizon + 1):
        # f_t(x_t), f_{t-1}(x_t) and, before the last iterate, the measured
        # gradient of step t into v
        if t < horizon:
            f, f_prev = problem.evaluate(t, x, grad_out=v, noise=next(noise))
        else:
            f, f_prev = problem.evaluate(t, x)
        # F_t(x_t) = f_t(x_t), as g_t(x_t) = 0 on every iterate
        regret[:, t] = f
        # a non-finite value means the iterate overflowed the cost, and the
        # steps after it would compute inf - inf: end the run here
        if not np.isfinite(f).all():
            _check_regret(regret[:, : t + 1] - fstar[: t + 1], reg_tol, seed, trials)
        if count_ball:
            np.add(excursions, _row_norm(_widen(x, runs)) >= problem.domain_radius, out=excursions)
        if t:
            np.subtract(f, f_prev, out=psi_tilde[:, t])
        if t == horizon:
            break

        x_next = _descend(problem, x, v, step)
        # a nan or inf entry makes the sum non-finite, and so does a finite
        # iterate whose sum overflows; the scan runs only then.  The compact
        # columns are finite exactly when the widened ones are.  One scalar,
        # not a sum per row: a fresh array at every step grows the process's
        # peak resident memory.
        if not np.isfinite(np.add.reduce(x_next, axis=None)):
            bad = ~np.isfinite(x_next).all(axis=1)
            if bad.any():
                _check_regret(regret[:, : t + 1] - fstar[: t + 1], reg_tol, seed, trials)
                raise RuntimeError(
                    f"non-finite iterate at t={t + 1} (seed={seed}, trial={trials[np.argmax(bad)]})"
                )
        x, v = x_next, x

    del noise  # spent: freed, it makes room for the buffers of the sums below
    np.subtract(regret, fstar, out=regret)
    _check_regret(regret, reg_tol, seed, trials)
    min_raw = regret.min(axis=1)
    np.maximum(regret, 0.0, out=regret)
    # phi_tilde_t, then sigma_t = |f*_t - f*_{t-1}| (sigma_0 = 0) added in
    # place: the sum has the bits of sigma_t + phi_tilde_t, as addition commutes
    np.abs(psi_tilde, out=psi_tilde)
    psi_tilde += np.abs(np.diff(fstar, prepend=fstar[0]))

    # every certificate assumes the step 1/L, and constants certified on
    # the domain ball
    exceptions = [] if step_override is None else [f"step_override = {step_override:g}"]
    if excursions.any():
        exceptions.append(f"iterates left the domain ball in {excursions.sum()} trial-steps")
    return RegretTrajectory(
        regret=regret,
        error_norm=error_norm,
        psi_tilde=psi_tilde,
        x_last=x,
        theory_exceptions=exceptions,
        domain_excursions=excursions,
        min_raw_regret=min_raw,
        runs=runs,
    )
