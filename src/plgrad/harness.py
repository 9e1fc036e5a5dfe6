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

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .config import ConfigError, ExperimentConfig, build_noise, build_problem, initial_point
from .problems import OnlineProblem, _row_norm, _sample_ball, _sample_box, sampled_times, verify_pl
from .prox import grid_argmin_prox, prox_objective
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
    recursion: bounds_mod.Recursion  # contraction and error cost of the solver
    mean_regret: np.ndarray
    std_regret: np.ndarray
    certificates: list           # every bounds.Certificate of both input modes
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
    # refused before any trial runs: a contraction outside [0, 1), a model
    # without finite closed forms of the moment E||e||^power the solver's
    # cost takes, or a level delta whose high-probability factor overflows
    try:
        rec = bounds_mod.recursion(
            config.solver, problem.smoothness, problem.pl_constant, problem.diameter
        )
        analytic = noise_mod.GradientErrors(problem, model).analytic(horizon, rec.power)
        for delta in config.deltas:
            bounds_mod.highprob_factor(rec.power, model.theta, delta)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if config.psi_bar is not None:  # a cap that overflows at e_bar = 0 always does
        try:
            rec.cap(0.0, config.psi_bar)
        except ValueError as exc:
            raise ConfigError(f"psi_bar = {config.psi_bar:g}: {exc}") from exc

    traj = run(problem, model, horizon, x0, config.seed, range(config.trials), config.step_override)
    regret = traj.regret
    err = traj.error_norm

    mean_regret = regret.mean(axis=0)
    r0 = float(mean_regret[0])

    # measured per-step inputs (trajectory-variability variant)
    mean_err_moment = (err[:, 1:] ** rec.power).mean(axis=0)
    theta = model.theta
    # column t+1 holds ||e_t||, which the envelope c_t K scales
    c = noise_mod.time_scales(model, horizon)

    try:  # a fit, series or cap that overflows a float is refused; nothing is written
        fitted_ks = _normalized_fit(err[:, 1:], c, theta) * c
        mean_psi = traj.psi_tilde[:, 1:].mean(axis=0)
        # per-step (moments, envelope_ks) of each input mode
        inputs = {
            "empirical": (mean_err_moment, fitted_ks),
            "analytic": analytic,
        }
        # variability has no a-priori form: both modes use its mean
        certificates = bounds_mod.certificates(r0, rec, mean_psi, theta, config.deltas, inputs)
        moments_used, envelope_k_used = inputs[config.bound_inputs]
        # long-run cap from the supremum statistics over the horizon
        e_bar = float(np.max(moments_used))
        if config.psi_bar is not None:
            psi_bar, psi_src = config.psi_bar, "configured"
        else:
            psi_bar, psi_src = float(np.max(mean_psi)), "empirical sup"
        asymptote_value = rec.cap(e_bar, psi_bar)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # formed after the refusals: the regret of a refused run can square past a float
    std_regret = regret.std(axis=0, ddof=0)

    # per configured series and per t >= 1, the trials whose regret exceeds
    # it.  t = 0 stays 0: each series starts at r0, a mean of R equal floats
    # that may round below them
    for cert in certificates:
        if cert.mode == config.bound_inputs:
            cert.counts = np.concatenate(([0], (regret[:, 1:] > cert.series[1:]).sum(axis=0)))
    checkpoints = tuple(sorted({max(1, horizon // 4), max(1, horizon // 2), horizon}))
    recursion_max = rec.max_residual(regret, err, traj.psi_tilde)

    return AggregateReport(
        config=config,
        problem=problem,
        trajectory=traj,
        r0=r0,
        recursion=rec,
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
    of RUN_CHECKS) in RUN_CHECKS order; an unnamed check is not computed,
    and a name outside RUN_CHECKS is a ConfigError.
    """
    unknown = ", ".join(sorted(set(checks).difference(RUN_CHECKS)))
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; available: {', '.join(RUN_CHECKS)}")
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
            try:  # its only reachable ValueError is an overflow: a ratio past any limit
                ratio = _normalized_fit(samples, ks, report.envelope_theta)
            except ValueError:
                ratio = math.inf
            moments_ok = ratio <= 1.1
            detail = f"max ||e||_k / (K k^theta) = {ratio:.3f} (limit 1.1)"
        summary.checks.append(CheckResult("envelope_moments", moments_ok, detail))

    return summary


def _check_gradient(problem: OnlineProblem, seed: int) -> CheckResult:
    """A central difference along one random direction against grad f_t, at
    100 points per time index, in three (100, n) arrays: the stepped pair,
    whose slabs first hold the points and the gradient, and the direction.

    The points x_k are drawn uniformly from the problem's box, where every
    iterate of the run stays, or, without a regularizer, from the half
    ball; then one random sign vector u_k = s_k / sqrt(n) each from the
    same stream, s_k's entries +-1 with probability 1/2 apiece; h_k = 1e-6
    max(1, ||x_k||_inf).  ||u_k|| = 1 holds only to the rounding of
    1/sqrt(n).  One grad and one value call per time index, whatever n is.
    E[u u^T] = I/n, so E[n (d.u)^2] = ||d||^2 and sqrt(n) |f+ - f- -
    2 h_k g_k.u_k| / (2 h_k ||g_k||) estimates ||fd - g|| / ||g|| of
    differences on every axis.  On a fault in one coordinate n (d.u)^2 =
    ||d||^2 exactly, so the reading is the axis-by-axis error, and a fault
    below 1e-6 passes, as it passes that reference.

    Point k passes within 1e-6 + sqrt(n) eps (4 |f| + (||x_k|| + 2 h_k)
    (||g_k|| + L h_k) / 2) / (h_k ||g_k||), |f| the larger stepped value.  A
    central difference is exact on a quadratic; each stepped value is taken
    as within 4 eps |f| (the residual's rounding, doubled by the square, then
    the square's and the sum's); each stepped coordinate is within eps/2
    (|x_i| + 2 h_k |u_i|) of x_i +- h_k u_i, so the steps p and q taken either
    side sum to 2 h_k u_k within r = eps (||x_k|| + 2 h_k) and differ by at
    most r, which moves g.(p + q) by ||g_k|| r and (p - q).H (p + q) / 2 by
    L h_k r.  The 4 eps |f| term is an estimate, not a bound: it leaves out
    the rounding of the residual's n-term sum and the cancellation in b_t.
    Over 300 seeds of fig3-demand-response and 20 at n_der = 500, a correct
    gradient's error read up to 0.45 times the rounding term, never above
    4.1e-08; the fixed 1e-6 covers any excess.
    """
    rng = noise_mod.stream(seed, "gradient")
    n = problem.n
    root_n = math.sqrt(n)
    reg = problem.regularizer
    worst = 0.0
    passed = True
    pair = np.empty((2, 100, n))
    xs = pair[0]
    u = np.empty((100, n))
    for t in sampled_times(problem.horizon):
        if reg.kind == "none":
            _sample_ball(rng, n, 0.5 * problem.domain_radius, 100, out=xs, scratch=u)
        else:
            _sample_box(rng, reg, xs)
        rng.random(out=u)
        u -= 0.5  # exact, so each sign has probability 1/2
        np.copysign(1.0 / root_n, u, out=u)
        g = problem.grad(t, xs, out=pair[1])
        g_u = np.vecdot(g, u)
        g_norm = np.maximum(_row_norm(g), 1e-12)
        h = 1e-6 * np.maximum(np.maximum(xs.max(axis=1), -xs.min(axis=1)), 1.0)
        step_rounding = 0.5 * (_row_norm(xs) + 2.0 * h) * (g_norm + problem.smoothness * h)
        u *= h[:, None]
        np.subtract(xs, u, out=pair[1])
        xs += u
        f = problem.value(t, pair)
        error = root_n * np.abs(f[0] - f[1] - 2.0 * h * g_u) / (2.0 * h * g_norm)
        rounding = 4.0 * np.abs(f).max(axis=0) + step_rounding
        limit = 1e-6 + root_n * np.finfo(float).eps * rounding / (h * g_norm)
        worst = max(worst, float(error.max()))
        passed = passed and bool(np.all(error <= limit))
    return CheckResult("gradient_fd", passed, f"max relative error {worst:.2e}")


def _check_pl(problem: OnlineProblem, seed: int) -> CheckResult:
    # looked up at call time, so a wrapper installed on the module sees it
    from .problems import prox_decrease

    mu = problem.pl_constant
    if problem.regularizer.kind == "none":
        label = "sampled mu"
        mu_hat = min(verify_pl(problem, t, 1000, seed) for t in sampled_times(problem.horizon))
    else:
        # the proximal form at 1,000 points of the box, in blocks of 100 rows
        # that change no bit: the oracles work row by row, the min is exact,
        # and random fills in C order the floats of one uniform(0, 1) draw
        label = "sampled proximal mu"
        rng = noise_mod.stream(seed, "pl")
        box = problem.regularizer
        mu_hat = np.inf
        block = np.empty((100, problem.n))  # reused, so temporaries stay small
        for t in sampled_times(problem.horizon):
            fstar = problem.fstar(t)
            for _ in range(10):
                _sample_box(rng, box, block)
                gap = problem.value(t, block) - fstar  # g = 0 inside the box
                keep = gap > 1e-9
                if np.any(keep):
                    ratios = prox_decrease(problem, t, block)[keep] / (2.0 * gap[keep])
                    mu_hat = min(mu_hat, float(ratios.min()))
    ok = mu_hat >= mu - 1e-9
    return CheckResult("pl_certificate", ok, f"{label} {mu_hat:.6g} vs declared {mu:.6g}")


def _check_prox(problem: OnlineProblem, seed: int) -> CheckResult:
    """Closed-form prox against the grid oracle, on the problem's own box.

    The box is checked at the step 1/L on the prox-gradient input
    v = x - grad f_t(x) / L, for one seeded x per time index (0, T/2, T)
    drawn from the box.  A grid point that beats the closed form fails the
    check; the prox objective can be large (about 1e6 for the 500-device
    box), so the slack is relative, as in expectation_dominance.  Without a
    regularizer the prox is the identity and the grid centred on v finds v,
    so the check draws nothing and says so.  Tier-1 tests the closed forms
    on random instances.
    """
    reg = problem.regularizer
    if reg.kind == "none":
        return CheckResult("prox_grid", True, "no regularizer: nothing checked")
    rng = noise_mod.stream(seed, "prox")
    l = problem.smoothness
    step = 1.0 / l
    worst = 0.0
    for t in sampled_times(problem.horizon):
        x = _sample_box(rng, reg, np.empty(problem.n))
        v = x - problem.grad(t, x) / l
        closed = reg.prox(step, v)
        grid = grid_argmin_prox(reg, step, v)
        worst = max(worst, float(np.max(np.abs(closed - grid))))
        # the grid point is feasible, so its objective is finite
        at_grid = prox_objective(reg, step, v, grid)
        if at_grid - prox_objective(reg, step, v, closed) < -1e-12 * (1.0 + abs(at_grid)):
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


def longrun_asymptote_check(report: AggregateReport, burn_in: int) -> np.ndarray:
    """Each trial's largest regret beyond burn_in, to hold against the
    long-run cap report.asymptote_value.

    Requires a static problem (measured variability identically zero) or an
    explicitly supplied psi_bar.
    """
    horizon = report.config.horizon
    if not 0 <= burn_in < horizon:
        raise ValueError(f"burn_in {burn_in} must lie in [0, horizon {horizon})")
    if report.config.psi_bar is None and float(np.max(report.mean_psi, initial=0.0)) > 1e-10:
        raise ValueError(
            "problem is not static; supply psi_bar to check the long-run cap"
        )
    return report.trajectory.regret[:, burn_in + 1 :].max(axis=1)
