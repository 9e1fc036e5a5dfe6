"""Seeded Monte Carlo experiment runner and certificate validation.

Runs R independent trials of a configured experiment, aggregates the regret
statistics, computes every applicable certificate series, and checks the
executable content of the theory: pathwise recursions, expectation-bound
dominance of the Monte Carlo mean, and per-delta coverage of the
high-probability bounds.

Each trial draws its errors from its own noise stream keyed by
(seed, trial), and all trials run as one batch through the solver kernel,
whose oracles work row by row, so a trial's trajectory does not depend on
how many other trials run with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .config import ExperimentConfig, build_noise, build_problem, initial_point
from .problems import OnlineProblem, _sample_ball, sampled_times, verify_pl
from .prox import Regularizer, grid_argmin_prox, prox_objective
from .solvers import RegretTrajectory, run
from .subweibull import fit_from_samples


@dataclass
class AggregateReport:
    """Aggregated statistics, certificate series and validation inputs of one run.

    The report holds the problem and the trajectory it was computed from
    rather than copying them: the constants (L, mu, D, whether f*_t is
    exact) are read from `problem`, and the per-trial regret and error
    norms, the domain diagnostics and the theory exceptions from
    `trajectory`.
    """

    config: ExperimentConfig
    problem: OnlineProblem
    trajectory: RegretTrajectory
    r0: float                    # mean regret at t = 0
    zeta: float                  # contraction 1 - mu / L
    mean_regret: np.ndarray
    std_regret: np.ndarray
    bounds: dict                 # configured-input certificate series
    bounds_alt: dict             # other input mode, where computable
    mean_err_sq: np.ndarray      # E||e_t||^2 estimates, t = 0..T-1
    mean_err_norm: np.ndarray
    mean_psi: np.ndarray         # variability means, entries for tau = 1..T
    envelope_theta: float
    envelope_k: np.ndarray       # per-step K_t used in the high-prob series
    asymptote_value: float
    e_bar_used: float
    psi_bar_used: float
    psi_bar_source: str
    recursion_max_violation: float
    exceedances: dict            # series name -> (T+1,) count of trials above it
    checkpoints: tuple           # the t at which coverage_<delta> reads its counts


def _bound_set(
    cost: bounds_mod.ErrorCost,
    deltas: tuple,
    r0: float,
    zeta: float,
    psi: np.ndarray,
    theta: float,
    moments: np.ndarray,
    envelope_ks: np.ndarray,
) -> dict:
    """Every certificate series of one input mode, keyed by its column name."""
    out = {"expectation": bounds_mod.expectation_bound(r0, zeta, cost, moments, psi)}
    for delta in deltas:
        out[f"highprob_{delta:g}"] = bounds_mod.highprob_bound(
            r0, zeta, cost, envelope_ks, psi, theta, delta
        )
        out[f"markov_{delta:g}"] = bounds_mod.markov_highprob_bound(out["expectation"], delta)
    return out


def _fitted_envelope_ks(
    error_matrix: np.ndarray, model: noise_mod.NoiseModel, horizon: int
) -> np.ndarray:
    """Per-step envelope scales c_t K, K fitted from the norms divided by c_t."""
    c = noise_mod.time_scales(model, horizon)
    active = c > 0
    # column t+1 holds ||e_t||; compress gives a C-ordered copy, so ravel
    # below copies nothing (a boolean index would give another order)
    normalized = error_matrix[:, 1:].compress(active, axis=1)
    normalized /= c[active]
    k = fit_from_samples(normalized.ravel(), model.theta).k if np.any(active) else 0.0
    return k * c


def _analytic_inputs(
    problem: OnlineProblem, model: noise_mod.NoiseModel, horizon: int, power: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form per-step (E||e_t||^power, envelope_ks).

    The base-scale E||e||^2 (power 2) or E||e|| (power 1) times c_t^power,
    and the base K times c_t.  Raises NotImplementedError where the problem
    has no closed form.
    """
    c = noise_mod.time_scales(model, horizon)
    moment = problem.error_second_moment(model) if power == 2 else problem.error_mean_norm(model)
    return c**power * moment, c * problem.error_envelope(model).k


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Run R trials, aggregate, and attach every applicable certificate."""
    config.validate()
    problem = build_problem(config)
    model = build_noise(config)
    x0 = initial_point(config, problem)
    horizon = config.horizon

    traj = run(
        problem,
        config.solver,
        model,
        horizon=config.horizon,
        x0=x0,
        seed=config.seed,
        trials=range(config.trials),
        step_override=config.step_override,
    )
    regret = traj.regret
    err = traj.error_norm

    mean_regret = regret.mean(axis=0)
    std_regret = regret.std(axis=0, ddof=0)
    r0 = float(mean_regret[0])
    zeta = 1.0 - problem.pl_constant / problem.smoothness

    # measured per-step inputs (trajectory-variability variant)
    mean_err_sq = (err[:, 1:] ** 2).mean(axis=0)
    mean_err_norm = err[:, 1:].mean(axis=0)
    theta = model.theta
    fitted_ks = _fitted_envelope_ks(err, model, horizon)
    psi_m = traj.psi_tilde  # a fresh array: formed after the fit's copies
    mean_psi = psi_m[:, 1:].mean(axis=0)

    cost = bounds_mod.error_cost(config.solver, problem.smoothness, problem.diameter)
    # per-step (moments, envelope_ks) of each input mode; the cost's power
    # picks the moment it takes: E||e||^2 or E||e||
    measured = mean_err_sq if cost.power == 2 else mean_err_norm
    inputs = {"empirical": (measured, fitted_ks)}
    try:
        inputs["analytic"] = _analytic_inputs(problem, model, horizon, cost.power)
    except NotImplementedError:
        pass
    if config.bound_inputs not in inputs:
        raise ValueError("analytic bound inputs are unavailable for this noise model")
    # variability is problem data with no a-priori form: both modes use its mean
    bound_sets = {
        mode: _bound_set(cost, config.deltas, r0, zeta, mean_psi, theta, *mode_inputs)
        for mode, mode_inputs in inputs.items()
    }
    bounds_primary = bound_sets.pop(config.bound_inputs)
    bounds_alt = bound_sets.popitem()[1] if bound_sets else {}
    moments_used, envelope_k_used = inputs[config.bound_inputs]

    # long-run cap from the supremum statistics over the horizon
    e_bar = float(np.max(moments_used)) if horizon else 0.0
    if config.psi_bar is not None:
        psi_bar, psi_src = config.psi_bar, "configured"
    else:
        psi_bar, psi_src = (float(np.max(mean_psi)) if horizon else 0.0), "empirical sup"
    asymptote_value = bounds_mod.asymptote(
        problem.pl_constant, problem.smoothness, cost, e_bar, psi_bar
    )

    # pathwise recursion residuals (positive = violation), two arrays at a time
    resid = regret[:, 1:] - zeta * regret[:, :-1]
    coef = err[:, 1:] ** cost.power
    resid -= np.multiply(coef, cost.weight, out=coef)
    resid -= psi_m[:, 1:]
    recursion_max = float(resid.max()) if resid.size else 0.0
    del resid, coef  # freed first, so the counts below add nothing to this peak

    # per series and per t, the trials whose regret exceeds it
    exceedances = {name: (regret > bound).sum(axis=0) for name, bound in bounds_primary.items()}
    checkpoints = tuple(sorted({max(1, horizon // 4), max(1, horizon // 2), horizon}))

    return AggregateReport(
        config=config,
        problem=problem,
        trajectory=traj,
        r0=r0,
        zeta=zeta,
        mean_regret=mean_regret,
        std_regret=std_regret,
        bounds=bounds_primary,
        bounds_alt=bounds_alt,
        mean_err_sq=mean_err_sq,
        mean_err_norm=mean_err_norm,
        mean_psi=mean_psi,
        envelope_theta=theta,
        envelope_k=envelope_k_used,
        asymptote_value=asymptote_value,
        e_bar_used=e_bar,
        psi_bar_used=psi_bar,
        psi_bar_source=psi_src,
        recursion_max_violation=recursion_max,
        exceedances=exceedances,
        checkpoints=checkpoints,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationSummary:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def coverage_envelope(trials: int, delta: float, confidence: float = 0.99) -> int:
    """Largest violation count still consistent with rate <= delta.

    One-sided binomial envelope: the smallest k with
    P(Binomial(trials, delta) <= k) >= confidence.

    Computed exactly in integers, so ties resolve as they should.  With
    delta = a/d and confidence = c/e, the terms T_j = C(n, j) a^j (d-a)^(n-j)
    equal d^n P(X = j), and k is the first index with e sum_{j<=k} T_j >= c d^n.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < confidence <= 1.0:
        raise ValueError(f"confidence must lie in (0, 1], got {confidence}")
    n = int(trials)
    a, d = float(delta).as_integer_ratio()
    c, e = float(confidence).as_integer_ratio()
    target = -(-c * d**n // e)  # ceil(c d^n / e): the sums are integers
    term = (d - a) ** n
    total = term
    k = 0
    # terminates by k = n, where the sum is d^n and c <= e
    while total < target:
        # exact: the quotient is the integer T_{k+1}
        term = term * ((n - k) * a) // ((k + 1) * (d - a))
        k += 1
        total += term
    return k


def validate_bounds(report: AggregateReport) -> ValidationSummary:
    """Executable checks of the certificates against the Monte Carlo run."""
    if not report.bounds:
        raise ValueError("report carries no bound series")
    summary = ValidationSummary()

    # every certificate below assumes the step 1/L and the regret against
    # F*_t; a passing verdict on a run outside that would vouch for bounds
    # that do not apply to it
    traj = report.trajectory
    if traj.outside_theory:
        scope = f"{'; '.join(traj.theory_exceptions)}: no certificate applies"
    else:
        scope = "step 1/L: the certificates apply"
    summary.checks.append(CheckResult("theory_scope", not traj.outside_theory, scope))

    # inner-solver optimal values widen the pathwise tolerance
    tol = report.problem.fstar_tol
    viol = report.recursion_max_violation
    summary.checks.append(
        CheckResult(
            "recursion_pathwise",
            viol <= tol,
            f"max step residual {viol:.3e} (tol {tol:g})",
        )
    )

    expectation = report.bounds["expectation"]
    slack = 1e-12 * (1.0 + np.abs(expectation))
    gap = report.mean_regret - expectation
    worst = float(gap.max())
    summary.checks.append(
        CheckResult(
            "expectation_dominance",
            bool(np.all(gap <= slack)),
            f"max (mean - bound) = {worst:.3e} at t={int(gap.argmax())}",
        )
    )

    # at most 3 checkpoints x |deltas| tests at 99% each: by the union bound an
    # honest run fails the gate with probability at most 3 |deltas| 1%, 6%
    # for two deltas (the tests share trials, so 1 - 0.99^(3 |deltas|) does
    # not apply)
    trials = report.config.trials
    for delta in report.config.deltas:
        limit = coverage_envelope(trials, delta)
        exceeding = report.exceedances[f"highprob_{delta:g}"]
        counts = {cp: int(exceeding[cp]) for cp in report.checkpoints}
        bad = {cp: c for cp, c in counts.items() if c > limit}
        summary.checks.append(
            CheckResult(
                f"coverage_{delta:g}",
                not bad,
                f"violations {counts} vs envelope {limit} of {trials}",
            )
        )

    # the coverage claims are only as good as the envelope: re-test the
    # moment inequality of the K actually used against the measured norms
    # (normalized per step so time-varying scales pool into one inequality);
    # a step with K_t = 0 admits only zero errors
    theta = report.envelope_theta
    ks = report.envelope_k
    active = ks > 0
    samples = traj.error_norm[:, 1:]
    if np.any(samples[:, ~active]):
        moments_ok, detail = False, "nonzero errors under zero envelope"
    elif not np.any(active):
        moments_ok, detail = True, "degenerate envelope; all samples zero"
    else:
        # the fitted scale of the normalized norms is max_k ||e||_k / (K k^theta)
        ratio = fit_from_samples(samples[:, active] / ks[active], theta).k
        moments_ok = ratio <= 1.1
        detail = f"max ||e||_k / (K k^theta) = {ratio:.3f} (limit 1.1)"
    summary.checks.append(CheckResult("envelope_moments", moments_ok, detail))

    return summary


def _check_gradient(problem: OnlineProblem, seed: int, n_points: int = 100) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 4)))
    worst = 0.0
    h = 1e-6
    n = problem.n
    fd = np.empty((n_points, n))
    for t in sampled_times(problem.horizon):
        xs = _sample_ball(rng, n, 0.5 * problem.domain_radius, n_points)
        dx = h * np.maximum(1.0, np.abs(xs))
        # all points step along one axis at a time: row k of `points` holds
        # the floats of xs[k] +- dx[k, i] e_i, and the oracles work row by row
        points = xs.copy()
        for i in range(n):
            points[:, i] = xs[:, i] + dx[:, i]
            f_plus = problem.value(t, points)
            points[:, i] = xs[:, i] - dx[:, i]
            fd[:, i] = (f_plus - problem.value(t, points)) / (2.0 * dx[:, i])
            points[:, i] = xs[:, i]
        for fd_row, g in zip(fd, problem.grad(t, xs)):
            denom = max(np.linalg.norm(g), 1e-12)
            worst = max(worst, float(np.linalg.norm(fd_row - g) / denom))
    return CheckResult("gradient_fd", worst <= 1e-6, f"max relative error {worst:.2e}")


def _check_pl(problem: OnlineProblem, seed: int, n_samples: int = 1000) -> CheckResult:
    # looked up at call time, so a wrapper installed on the module sees it
    from .problems import prox_decrease

    ts = sampled_times(problem.horizon)
    mu = problem.pl_constant
    if problem.smooth_only():
        mu_hat = min(verify_pl(problem, t, n_samples, seed) for t in ts)
        ok = mu_hat >= mu - 1e-9
        return CheckResult("pl_certificate", ok, f"sampled mu {mu_hat:.6g} vs declared {mu:.6g}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 5)))
    reg = problem.regularizer
    mu_hat = np.inf
    for t in ts:
        fstar = problem.fstar(t)
        if reg.kind != "box":
            xs = _sample_ball(rng, problem.n, 0.5 * problem.domain_radius, n_samples)
        # blocks of 100 rows keep the temporaries small; the oracles work row
        # by row and the min is exact, so the blocks change no bit.  uniform
        # fills in C order, so box blocks hold the floats of one whole draw
        # (_sample_ball draws all normals before its radii, so not its points)
        for start in range(0, n_samples, 100):
            if reg.kind == "box":
                u = rng.uniform(0.0, 1.0, size=(min(100, n_samples - start), problem.n))
                block = reg.lo + u * (reg.hi - reg.lo)
            else:
                block = xs[start : start + 100]
            gap = problem.total_value(t, block) - fstar
            keep = gap > 1e-9
            if np.any(keep):
                ratios = prox_decrease(problem, t, block)[keep] / (2.0 * gap[keep])
                mu_hat = min(mu_hat, float(ratios.min()))
    ok = mu_hat >= mu - 1e-9
    return CheckResult("pl_certificate", ok, f"sampled proximal mu {mu_hat:.6g} vs declared {mu:.6g}")


def _check_prox(problem: OnlineProblem, seed: int, n_instances: int = 25) -> CheckResult:
    """Closed-form prox against the grid oracle, on random instances and the problem's own.

    The problem's regularizer is checked at the step 1/L on the
    prox-gradient input v = x - grad f_t(x) / L, for one seeded x per time
    index (0, T/2, T) drawn from the box or the domain ball.  A grid point
    that beats the closed form fails the check; on the problem's own case
    the prox objective can be large (about 1e6 for the 500-device box), so
    the slack there is relative, as in expectation_dominance.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 6)))
    cases = []  # (regularizer, step, v, objective-relative slack)
    for _ in range(n_instances):
        for n in (1, 2):
            v = rng.uniform(-3.0, 3.0, size=n)
            step = rng.uniform(0.1, 2.0)
            lo = rng.uniform(-2.0, 0.0, size=n)
            hi = lo + rng.uniform(0.5, 3.0, size=n)
            l1 = Regularizer.l1(rng.uniform(0.0, 2.0))
            for reg in (Regularizer.none(), l1, Regularizer.box(lo, hi)):
                cases.append((reg, step, v, 0.0))
    reg = problem.regularizer
    l = problem.smoothness
    for t in sampled_times(problem.horizon):
        if reg.kind == "box":
            x = reg.lo + rng.uniform(0.0, 1.0, size=problem.n) * (reg.hi - reg.lo)
        else:
            x = _sample_ball(rng, problem.n, 0.5 * problem.domain_radius, 1)[0]
        cases.append((reg, 1.0 / l, x - problem.grad(t, x) / l, 1.0))

    worst = 0.0
    for reg, step, v, rel in cases:
        closed = reg.prox(step, v)
        grid = grid_argmin_prox(reg, step, v)
        worst = max(worst, float(np.max(np.abs(closed - grid))))
        # the grid point is feasible, so its objective is finite
        at_grid = prox_objective(reg, step, v, grid)
        if at_grid - prox_objective(reg, step, v, closed) < -1e-12 * (1.0 + rel * abs(at_grid)):
            return CheckResult("prox_grid", False, "grid point beat the closed-form prox")
    return CheckResult("prox_grid", worst <= 1e-6, f"max |closed - grid| = {worst:.2e}")


BATTERY_CHECKS = ("gradient", "pl", "prox", "recursion", "dominance", "coverage", "moments")


def run_validation_battery(config: ExperimentConfig, checks=None) -> ValidationSummary:
    """Run the named invariant checks against one configured experiment.

    checks: subset of BATTERY_CHECKS; None means all.  An empty selection is
    an error.  A selection that runs the experiment also reports
    theory_scope, which fails for a run outside the theory's step size.
    """
    selected = tuple(checks) if checks is not None else BATTERY_CHECKS
    if not selected:
        raise ValueError("no checks selected")
    unknown = set(selected) - set(BATTERY_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; available: {BATTERY_CHECKS}")

    summary = ValidationSummary()
    needs_run = {"recursion", "dominance", "coverage", "moments"} & set(selected)
    problem = build_problem(config)

    if "gradient" in selected:
        summary.checks.append(_check_gradient(problem, config.seed))
    if "pl" in selected:
        summary.checks.append(_check_pl(problem, config.seed))
    if "prox" in selected:
        summary.checks.append(_check_prox(problem, config.seed))

    if needs_run:
        report = run_experiment(config)
        full = validate_bounds(report)
        keep = {
            "recursion": ("recursion_pathwise",),
            "dominance": ("expectation_dominance",),
            "coverage": tuple(f"coverage_{d:g}" for d in config.deltas),
            "moments": ("envelope_moments",),
        }
        wanted = {"theory_scope"}  # reported whenever the experiment runs
        for sel in needs_run:
            wanted.update(keep[sel])
        summary.checks.extend(c for c in full.checks if c.name in wanted)
    return summary


@dataclass(frozen=True)
class AsymptoteReport:
    asymptote: float
    burn_in: int
    tail_max: np.ndarray        # per-trial max regret beyond the burn-in
    median_tail_max: float
    frac_exceeding: float


def longrun_asymptote_check(config: ExperimentConfig, burn_in: int) -> AsymptoteReport:
    """Compare per-trial tail maxima against the long-run cap.

    Requires a static problem (measured variability identically zero) or an
    explicitly supplied psi_bar.
    """
    if not 0 <= burn_in < config.horizon:
        raise ValueError(f"burn_in {burn_in} must lie in [0, horizon {config.horizon})")
    report = run_experiment(config)
    if config.psi_bar is None and float(np.max(report.mean_psi, initial=0.0)) > 1e-10:
        raise ValueError(
            "problem is not static; supply psi_bar to check the long-run cap"
        )
    tail = report.trajectory.regret[:, burn_in + 1 :]
    tail_max = tail.max(axis=1)
    return AsymptoteReport(
        asymptote=report.asymptote_value,
        burn_in=burn_in,
        tail_max=tail_max,
        median_tail_max=float(np.median(tail_max)),
        frac_exceeding=float(np.mean(tail_max > report.asymptote_value)),
    )
