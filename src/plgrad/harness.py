"""Seeded Monte Carlo experiment runner and certificate validation.

Runs R independent trials of a configured experiment, aggregates the regret
statistics, computes every applicable certificate series, and checks the
executable content of the theory: pathwise recursions, expectation-bound
dominance of the Monte Carlo mean, and per-delta coverage of the
high-probability bounds.

Each trial draws its errors from its own noise stream keyed by
(seed, tag, trial), and all trials run as one batch through the solver kernel,
whose oracles work row by row, so a trial's trajectory does not depend on
how many other trials run with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .config import ConfigError, ExperimentConfig, build_noise, build_problem, initial_point
from .problems import OnlineProblem, _row_norm, _sample_ball, sampled_times, verify_pl
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
    certificates: list           # every bounds.Certificate, the configured mode first
    mean_err_moment: np.ndarray  # E||e_t||^power estimates, t = 0..T-1
    mean_psi: np.ndarray         # variability means, entries for tau = 1..T
    envelope_theta: float
    envelope_k: np.ndarray       # per-step K_t used in the high-prob series
    asymptote_value: float
    e_bar_used: float
    psi_bar_used: float
    psi_bar_source: str
    recursion_max_violation: float
    checkpoints: tuple           # the t at which coverage_<delta> reads its counts

    def configured(self, *kinds: str) -> list:
        """The configured input mode's records of the given kinds, in table order."""
        mode = self.config.bound_inputs
        return [c for c in self.certificates if c.mode == mode and c.kind in kinds]


def _normalized_fit(norms: np.ndarray, scales: np.ndarray, theta: float) -> float:
    """K fitted from norms[:, t] / scales[t] over the steps with scales[t] > 0,
    0 if there is none.  compress gives a C-ordered copy, divided in place,
    so ravel copies nothing (a boolean index would give another order)."""
    active = scales > 0
    if not np.any(active):
        return 0.0
    normalized = norms.compress(active, axis=1)
    normalized /= scales[active]
    return fit_from_samples(normalized.ravel(), theta).k


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Run R trials, aggregate, and attach every applicable certificate."""
    config.validate()
    problem = build_problem(config)
    model = build_noise(config)
    x0 = initial_point(config, problem)
    horizon = config.horizon
    zeta = 1.0 - problem.pl_constant / problem.smoothness
    if not 0.0 <= zeta < 1.0:
        raise ConfigError(f"contraction 1 - mu/L must lie in [0, 1), got {zeta}")
    # the solver name picks only the error cost; its power picks the moment
    # E||e||^2 or E||e|| that every input mode takes
    cost = bounds_mod.error_cost(config.solver, problem.smoothness, problem.diameter)
    cap = partial(bounds_mod.asymptote, problem.pl_constant, problem.smoothness, cost)
    if config.psi_bar is not None:  # a cap that overflows at e_bar = 0 always does
        try:
            cap(0.0, config.psi_bar)
        except ValueError as exc:
            raise ConfigError(f"psi_bar = {config.psi_bar:g}: {exc}") from exc
    # both input modes' series are always formed: a model without finite
    # closed forms is refused here, before any trial runs
    try:
        analytic = noise_mod.GradientErrors(problem, model).analytic(horizon, cost.power)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    traj = run(problem, model, horizon, x0, config.seed, range(config.trials), config.step_override)
    regret = traj.regret
    err = traj.error_norm

    mean_regret = regret.mean(axis=0)
    std_regret = regret.std(axis=0, ddof=0)
    r0 = float(mean_regret[0])

    # measured per-step inputs (trajectory-variability variant)
    mean_err_moment = (err[:, 1:] ** cost.power).mean(axis=0)
    theta = model.theta
    # column t+1 holds ||e_t||, which the envelope c_t K scales
    c = noise_mod.time_scales(model, horizon)
    fitted_ks = _normalized_fit(err[:, 1:], c, theta) * c
    mean_psi = traj.psi_tilde[:, 1:].mean(axis=0)

    # per-step (moments, envelope_ks) of each input mode, the configured mode first
    inputs = {
        "empirical": (mean_err_moment, fitted_ks),
        "analytic": analytic,
    }
    inputs = dict(sorted(inputs.items(), key=lambda item: item[0] != config.bound_inputs))
    # variability has no a-priori form: both modes use its mean
    certificates = bounds_mod.certificates(r0, zeta, cost, mean_psi, theta, config.deltas, inputs)
    moments_used, envelope_k_used = inputs[config.bound_inputs]

    # long-run cap from the supremum statistics over the horizon
    e_bar = float(np.max(moments_used))
    if config.psi_bar is not None:
        psi_bar, psi_src = config.psi_bar, "configured"
    else:
        psi_bar, psi_src = float(np.max(mean_psi)), "empirical sup"
    asymptote_value = cap(e_bar, psi_bar)

    # pathwise recursion residuals (positive = violation), a block of rows
    # at a time: every entry keeps its bits, and no (trials, horizon)
    # temporary is held
    block_max = []
    for lo in range(0, len(regret), 8):
        rows = slice(lo, lo + 8)
        resid = regret[rows, 1:] - zeta * regret[rows, :-1]
        coef = err[rows, 1:] ** cost.power
        resid -= np.multiply(coef, cost.weight, out=coef)
        resid -= traj.psi_tilde[rows, 1:]
        block_max.append(resid.max())
    recursion_max = float(np.max(block_max))

    # per configured series and per t >= 1, the trials whose regret exceeds
    # it.  t = 0 stays 0: each series starts at r0, a mean of R equal floats
    # that may round below them
    for cert in certificates:
        if cert.mode == config.bound_inputs:
            cert.counts = np.concatenate(([0], (regret[:, 1:] > cert.series[1:]).sum(axis=0)))
    checkpoints = tuple(sorted({max(1, horizon // 4), max(1, horizon // 2), horizon}))

    return AggregateReport(
        config=config,
        problem=problem,
        trajectory=traj,
        r0=r0,
        zeta=zeta,
        mean_regret=mean_regret,
        std_regret=std_regret,
        certificates=certificates,
        mean_err_moment=mean_err_moment,
        mean_psi=mean_psi,
        envelope_theta=theta,
        envelope_k=envelope_k_used,
        asymptote_value=asymptote_value,
        e_bar_used=e_bar,
        psi_bar_used=psi_bar,
        psi_bar_source=psi_src,
        recursion_max_violation=recursion_max,
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


RUN_CHECKS = ("recursion", "dominance", "coverage", "moments")
BATTERY_CHECKS = ("gradient", "pl", "prox", *RUN_CHECKS)


def validate_bounds(report: AggregateReport, checks=RUN_CHECKS) -> ValidationSummary:
    """Executable checks of the certificates against the Monte Carlo run.

    Reports theory_scope, then each run check named in `checks` (a subset
    of RUN_CHECKS) in RUN_CHECKS order; an unnamed check is not computed.
    """
    summary = ValidationSummary()

    # every certificate below assumes the step 1/L and iterates inside the
    # domain ball, where the constants hold; a passing verdict on a run
    # outside that would vouch for bounds that do not apply to it
    traj = report.trajectory
    if traj.outside_theory:
        scope = f"{'; '.join(traj.theory_exceptions)}: no certificate applies"
    else:
        scope = "step 1/L: the certificates apply"
    summary.checks.append(CheckResult("theory_scope", not traj.outside_theory, scope))

    if "recursion" in checks:
        # the pathwise tolerance is the accuracy of the optimal values
        tol = report.problem.fstar_tol
        viol = report.recursion_max_violation
        detail = f"max step residual {viol:.3e} (tol {tol:g})"
        summary.checks.append(CheckResult("recursion_pathwise", viol <= tol, detail))

    if "dominance" in checks:
        expectation = report.configured("expectation")[0].series
        gap = report.mean_regret - expectation
        ok = bool(np.all(gap <= 1e-12 * (1.0 + np.abs(expectation))))
        detail = f"max (mean - bound) = {float(gap.max()):.3e} at t={int(gap.argmax())}"
        summary.checks.append(CheckResult("expectation_dominance", ok, detail))

    if "coverage" in checks:
        # at most 3 checkpoints x |deltas| tests at 99% each: by the union
        # bound an honest run fails the gate with probability at most
        # 3 |deltas| 1%, 6% for two deltas (the tests share trials, so
        # 1 - 0.99^(3 |deltas|) does not apply)
        trials = report.config.trials
        for cert in report.configured("highprob"):
            limit = coverage_envelope(trials, cert.level)
            counts = {cp: int(cert.counts[cp]) for cp in report.checkpoints}
            bad = {cp: c for cp, c in counts.items() if c > limit}
            detail = f"violations {counts} vs envelope {limit} of {trials}"
            summary.checks.append(CheckResult(f"coverage_{cert.level:g}", not bad, detail))

    if "moments" in checks:
        # the coverage claims are only as good as the envelope: re-test the
        # moment inequality of the K actually used against the measured norms
        # (normalized per step so time-varying scales pool into one inequality);
        # a step with K_t = 0 admits only zero errors
        ks = report.envelope_k
        samples = traj.error_norm[:, 1:]
        if np.any(samples[:, ks <= 0]):
            moments_ok, detail = False, "nonzero errors under zero envelope"
        elif not np.any(ks > 0):
            moments_ok, detail = True, "degenerate envelope; all samples zero"
        else:
            # the fitted scale of the normalized norms is max_k ||e||_k / (K k^theta)
            ratio = _normalized_fit(samples, ks, report.envelope_theta)
            moments_ok = ratio <= 1.1
            detail = f"max ||e||_k / (K k^theta) = {ratio:.3f} (limit 1.1)"
        summary.checks.append(CheckResult("envelope_moments", moments_ok, detail))

    return summary


def _check_gradient(problem: OnlineProblem, seed: int) -> CheckResult:
    """Central differences against grad f_t at 100 points of the half ball.

    Point k passes at a relative error within 1e-6 + 4 eps sqrt(n) |f_t| /
    (h_k ||g_k||), h_k its smallest step.  A central difference is exact on
    a quadratic, and each stepped value is within 4 eps |f| (the residual's
    rounding, doubled by the square, then the square's and the sum's), so
    the n quotients move by at most sqrt(n) 4 eps |f| / h_k.  |f_t| is read
    at the last axis's stepped points, one step from x_k.
    """
    rng = noise_mod.stream(seed, "gradient")
    worst = 0.0
    passed = True
    h = 1e-6
    n = problem.n
    n_points = 100
    rounding = 4.0 * np.finfo(float).eps * math.sqrt(n)
    # all points step along one axis at a time: for axis i, row k of slab 0
    # holds the floats of xs[k] + dx[k, i] e_i and row k of slab 1 those of
    # xs[k] - dx[k, i] e_i, so one value call reads both (the oracles work
    # row by row); column i of both slabs is restored to xs before the next
    pair = np.empty((2, n_points, n))
    xs = pair[0]
    fd = np.empty((n_points, n))  # column i holds dx[:, i] until its quotient
    for t in sampled_times(problem.horizon):
        xs[...] = _sample_ball(rng, n, 0.5 * problem.domain_radius, n_points)
        pair[1] = xs
        np.maximum(np.abs(xs, out=fd), 1.0, out=fd)
        fd *= h
        h_min = fd.min(axis=1)
        for i in range(n):
            x_i = xs[:, i].copy()
            dx = fd[:, i]
            np.add(x_i, dx, out=xs[:, i])
            np.subtract(x_i, dx, out=pair[1, :, i])
            f = problem.value(t, pair)
            np.divide(f[0] - f[1], 2.0 * dx, out=dx)
            pair[:, :, i] = x_i
        g = problem.grad(t, xs, out=pair[1])
        g_norm = np.maximum(_row_norm(g), 1e-12)
        error = _row_norm(np.subtract(fd, g, out=fd)) / g_norm
        limit = 1e-6 + rounding * np.maximum(np.abs(f[0]), np.abs(f[1])) / (h_min * g_norm)
        worst = max(worst, float(error.max()))
        passed = passed and bool(np.all(error <= limit))
    return CheckResult("gradient_fd", passed, f"max relative error {worst:.2e}")


def _check_pl(problem: OnlineProblem, seed: int) -> CheckResult:
    # looked up at call time, so a wrapper installed on the module sees it
    from .problems import prox_decrease

    ts = sampled_times(problem.horizon)
    mu = problem.pl_constant
    if problem.smooth_only():
        mu_hat = min(verify_pl(problem, t, 1000, seed) for t in ts)
        ok = mu_hat >= mu - 1e-9
        return CheckResult("pl_certificate", ok, f"sampled mu {mu_hat:.6g} vs declared {mu:.6g}")
    # a regularized family carries a box: sample the proximal form on it
    rng = noise_mod.stream(seed, "pl")
    box = problem.regularizer
    mu_hat = np.inf
    for t in ts:
        fstar = problem.fstar(t)
        # 1,000 points in blocks of 100 rows keep temporaries small and change
        # no bit: the oracles work row by row, the min is exact, and uniform
        # fills in C order, so the blocks hold the floats of one whole draw
        for _ in range(10):
            block = rng.uniform(0.0, 1.0, size=(100, problem.n))
            block *= box.hi - box.lo  # lo + u (hi - lo), formed in place
            block += box.lo
            gap = problem.value(t, block) - fstar  # g = 0 inside the box
            keep = gap > 1e-9
            if np.any(keep):
                ratios = prox_decrease(problem, t, block)[keep] / (2.0 * gap[keep])
                mu_hat = min(mu_hat, float(ratios.min()))
    ok = mu_hat >= mu - 1e-9
    return CheckResult("pl_certificate", ok, f"sampled proximal mu {mu_hat:.6g} vs declared {mu:.6g}")


def _check_prox(problem: OnlineProblem, seed: int) -> CheckResult:
    """Closed-form prox against the grid oracle, on random instances and the problem's own.

    The problem's regularizer is checked at the step 1/L on the
    prox-gradient input v = x - grad f_t(x) / L, for one seeded x per time
    index (0, T/2, T) drawn from the box or the domain ball.  A grid point
    that beats the closed form fails the check; on the problem's own case
    the prox objective can be large (about 1e6 for the 500-device box), so
    the slack there is relative, as in expectation_dominance.
    """
    rng = noise_mod.stream(seed, "prox")
    cases = []  # (regularizer, step, v, objective-relative slack)
    for _ in range(25):
        for n in (1, 2):
            v = rng.uniform(-3.0, 3.0, size=n)
            step = rng.uniform(0.1, 2.0)
            lo = rng.uniform(-2.0, 0.0, size=n)
            hi = lo + rng.uniform(0.5, 3.0, size=n)
            for reg in (Regularizer.none(), Regularizer.box(lo, hi)):
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


def run_validation_battery(
    config: ExperimentConfig, checks=BATTERY_CHECKS
) -> ValidationSummary:
    """Run the named invariant checks against one configured experiment.

    checks: names from BATTERY_CHECKS, in any order and with repeats; the
    verdicts come in BATTERY_CHECKS order.  An empty selection or an unknown
    name is a ConfigError, raised before any work runs.  A selection with a
    run check also reports theory_scope, which fails for a step other than
    1/L or for iterates that leave the domain ball; only the selected run
    checks are computed.
    """
    selected = set(checks)
    if not selected:
        raise ConfigError("no checks selected")
    unknown = ", ".join(sorted(selected.difference(BATTERY_CHECKS)))
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; available: {', '.join(BATTERY_CHECKS)}")

    run_checks = selected.intersection(RUN_CHECKS)
    # the experiment builds the problem the static checks then read, so a
    # battery builds it once; its verdicts still follow those checks
    report = run_experiment(config) if run_checks else None
    problem = build_problem(config) if report is None else report.problem

    summary = ValidationSummary()
    if "gradient" in selected:
        summary.checks.append(_check_gradient(problem, config.seed))
    if "pl" in selected:
        summary.checks.append(_check_pl(problem, config.seed))
    if "prox" in selected:
        summary.checks.append(_check_prox(problem, config.seed))
    if run_checks:
        summary.checks.extend(validate_bounds(report, run_checks).checks)
    return summary


@dataclass(frozen=True)
class AsymptoteReport:
    asymptote: float
    burn_in: int
    tail_max: np.ndarray        # per-trial max regret beyond the burn-in
    median_tail_max: float


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
    )
