"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single "ACCEPTANCE criterion N: PASS" line (visible with
pytest -s; with plain pytest -v the per-test verdict carries the same
information).  Expensive Monte Carlo runs are shared through module-scoped
fixtures; every criterion also enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from plgrad.bounds import error_cost, expectation_bound
from plgrad.cli import main as cli_main
from plgrad.config import make_config
from plgrad.harness import coverage_envelope, longrun_asymptote_check, run_experiment
from plgrad.noise import NoiseModel, sample
from plgrad.problems import (
    DemandResponse,
    DriftingLogistic,
    LtiTracking,
    TimeVaryingLeastSquares,
    synth_demand_response_traces,
)
from plgrad.prox import Regularizer, grid_argmin_prox
from plgrad.solvers import prox_gradient_step, run
from plgrad.subweibull import SubWeibullParams, fit_from_samples, hp_bound

ZETA = 0.9


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def fig1_report():
    cfg = make_config({}, {"preset": "fig1-ls"})
    assert cfg.trials == 100 and cfg.horizon == 500
    start = time.perf_counter()
    report = run_experiment(cfg)
    report.elapsed = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def coverage_report():
    cfg = make_config({}, {"preset": "static-ls"})
    cfg.trials = 1000
    cfg.horizon = 100
    cfg.deltas = (0.1, 0.05)
    start = time.perf_counter()
    report = run_experiment(cfg)
    report.elapsed = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def demand_response_report():
    cfg = make_config({}, {"preset": "fig3-demand-response"})
    assert cfg.trials == 50
    start = time.perf_counter()
    report = run_experiment(cfg)
    report.elapsed = time.perf_counter() - start
    return report


def test_criterion_01_noiseless_linear_convergence():
    start = time.perf_counter()
    problem = TimeVaryingLeastSquares(10, 20, 0.1, 1.0, 0.0, 0.0, seed=42, horizon=200)
    traj = run(problem, "ogd", NoiseModel("zero"), seed=0, x0=np.zeros(10))
    r = traj.regret[0]
    mask = r[:-1] > 1e-12
    ratios = r[1:][mask] / r[:-1][mask]
    elapsed = time.perf_counter() - start
    assert np.all(ratios <= ZETA + 1e-9), ratios.max()
    assert elapsed < 1.0
    _report(1, f"max contraction ratio {ratios.max():.4f} <= 0.9, {elapsed:.2f}s")


def test_criterion_02_expectation_dominance_and_plateau(fig1_report):
    report = fig1_report
    bound = report.bounds["expectation"]
    info = report.problem_info
    cost = error_cost("ogd", info["smoothness"], info["diameter"])
    direct = expectation_bound(info["r0"], report.zeta, cost, report.mean_err_sq, report.mean_psi)
    assert np.array_equal(bound, direct)
    slack = 1e-12 * (1.0 + bound)
    assert np.all(report.mean_regret <= bound + slack)
    tail = report.mean_regret[-100:]
    assert not np.all(np.diff(tail) > 0), "mean regret grows monotonically at the end"
    assert report.elapsed < 30.0
    _report(
        2,
        f"mean <= bound at all {len(bound)} steps; tail mean {tail.mean():.3f}, "
        f"{report.elapsed:.1f}s",
    )


def test_criterion_03_highprob_coverage(coverage_report):
    report = coverage_report
    trials = report.trials
    for delta in (0.1, 0.05):
        series = report.bounds[f"highprob_{delta:g}"]
        limit = coverage_envelope(trials, delta)
        for t in (50, 100):
            count = int(np.sum(report.regret_matrix[:, t] > series[t]))
            assert count <= limit, (delta, t, count, limit)
    assert report.elapsed < 60.0
    _report(3, f"violations within binomial envelopes at t=50,100; {report.elapsed:.1f}s")


def test_criterion_04_pathwise_recursions(
    fig1_report, coverage_report, demand_response_report
):
    for report in (fig1_report, coverage_report, demand_response_report):
        assert report.recursion_max_violation <= 1e-9, (
            report.problem_info["name"],
            report.recursion_max_violation,
        )
    _report(4, "recursions hold at 100% of steps on criteria 2, 3, and 6 runs")


def test_criterion_05_subweibull_property_suite():
    start = time.perf_counter()

    # closure formulas exact to machine precision
    from plgrad.subweibull import add, add_scalar, power, scale

    x = SubWeibullParams(0.5, 2.0)
    assert scale(x, -3.0) == SubWeibullParams(0.5, 6.0)
    assert add_scalar(x, 1.0) == SubWeibullParams(0.5, 3.0)
    assert add(x, SubWeibullParams(1.0, 1.0)) == SubWeibullParams(1.0, 3.0)
    assert power(x, 2.0) == SubWeibullParams(1.0, 4.0**0.5 * 4.0)

    # sampled moment tests for three families at n = 10, 1e5 samples
    from plgrad.noise import envelope_norm

    n, n_samples = 10, 10**5
    rng = np.random.default_rng(2026)
    samples = {}
    gauss = rng.normal(0.0, 0.4, size=(n_samples, n))
    samples["gaussian"] = (
        np.linalg.norm(gauss, axis=1),
        envelope_norm(NoiseModel("gaussian_iid", scale=0.4), n),
    )
    uniform = rng.uniform(-0.4, 0.4, size=(n_samples, n))
    samples["bounded"] = (
        np.linalg.norm(uniform, axis=1),
        envelope_norm(NoiseModel("bounded_uniform", scale=0.4), n),
    )
    radius = 0.4 * rng.weibull(0.5, size=n_samples)  # norm is the radius
    samples["weibull"] = (
        radius,
        envelope_norm(NoiseModel("weibull_tail", scale=0.4, weibull_shape=0.5), n),
    )
    orders = np.arange(1, 11)
    for name, (norms, env) in samples.items():
        sampled = np.array([np.mean(norms**k) ** (1.0 / k) for k in orders])
        assert np.all(sampled <= env.k * orders**env.theta * 1.1), name

    # quantile-bound coverage for the fitted envelope
    fitted = fit_from_samples(samples["gaussian"][0], theta=0.5)
    for delta in (0.1, 0.01):
        frac = float(np.mean(samples["gaussian"][0] > hp_bound(fitted, delta)))
        assert frac <= delta

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"closure exact, moment tests and coverage pass, {elapsed:.1f}s")


def test_criterion_06_demand_response_dominance(demand_response_report):
    report = demand_response_report
    bound = report.bounds["expectation"]
    info = report.problem_info
    cost = error_cost("opgm", info["smoothness"], info["diameter"])
    direct = expectation_bound(info["r0"], report.zeta, cost, report.mean_err_norm, report.mean_psi)
    assert np.array_equal(bound, direct)
    assert np.all(report.mean_regret <= bound + 1e-12 * (1.0 + bound))

    # two-orders-of-magnitude decrease from r0 to the plateau
    r0 = report.mean_regret[0]
    plateau = float(report.mean_regret[-100:].mean())
    assert r0 / plateau >= 100.0, (r0, plateau)

    # feasibility: an explicit rollout stays inside the box at every step
    cfg = report.config
    w, p_ref = synth_demand_response_traces(cfg.horizon, cfg.seed)
    lo = np.concatenate([np.full(10, -50.0), np.zeros(10)])
    hi = np.full(20, 50.0)
    problem = DemandResponse(20, cfg.seed, cfg.horizon, p_ref, w, lo, hi)
    model = NoiseModel("gaussian_iid", scale=10.0)
    raw = sample(model, problem.error_dim, cfg.seed, 0, cfg.horizon)
    x, step = np.zeros((1, 20)), 1.0 / problem.smoothness
    for t in range(cfg.horizon):
        x = prox_gradient_step(problem, t, x, step, problem.map_error(raw[t : t + 1]))
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)

    assert report.elapsed < 60.0
    _report(
        6,
        f"feasible, mean <= bound, drop {r0 / plateau:.0f}x from r0={r0:.0f}, "
        f"{report.elapsed:.1f}s",
    )


def test_criterion_07_prox_grid_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for kind in ("l1", "box"):
        checked = 0
        while checked < 100:
            n = 1 + (checked % 2)  # alternate 1-D and 2-D instances
            v = rng.uniform(-4.0, 4.0, size=n)
            step = rng.uniform(0.05, 2.0)
            if kind == "l1":
                reg = Regularizer.l1(rng.uniform(0.0, 2.0))
            else:
                lo = rng.uniform(-3.0, 0.0, size=n)
                reg = Regularizer.box(lo, lo + rng.uniform(0.2, 4.0, size=n))
            closed = reg.prox(step, v)
            oracle = grid_argmin_prox(reg, step, v)
            assert np.max(np.abs(closed - oracle)) <= 1e-6
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"200 instances within 1e-6, {elapsed:.1f}s")


def test_criterion_08_longrun_plateau():
    start = time.perf_counter()
    cfg = make_config({}, {"preset": "static-ls", "trials": 20})
    cfg.horizon = 10**4
    cfg.bound_inputs = "analytic"  # e_bar = n sigma^2 = 0.01 exactly
    out = longrun_asymptote_check(cfg, burn_in=5000)
    elapsed = time.perf_counter() - start
    assert out.asymptote == pytest.approx(0.05, rel=1e-12)
    assert out.median_tail_max <= out.asymptote
    assert elapsed < 60.0
    _report(
        8,
        f"median tail max {out.median_tail_max:.4f} <= cap {out.asymptote:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_gradient_correctness():
    start = time.perf_counter()
    problems = [
        TimeVaryingLeastSquares(10, 20, 0.1, 1.0, math.sqrt(0.1), math.sqrt(1e-3), 42, 10),
        DriftingLogistic(10, 40, seed=42, horizon=10, drift_std=0.01),
        LtiTracking(8, 12, seed=42, horizon=10),
    ]
    w, p_ref = synth_demand_response_traces(10, 42)
    lo = np.concatenate([np.full(10, -50.0), np.zeros(10)])
    problems.append(
        DemandResponse(20, 42, 10, p_ref, w, lo, np.full(20, 50.0))
    )
    rng = np.random.default_rng(0)
    for problem in problems:
        t = problem.horizon // 2
        for _ in range(100):
            x = rng.normal(size=problem.n)
            g = problem.grad(t, x)
            fd = np.empty_like(g)
            for i in range(problem.n):
                dx = np.zeros(problem.n)
                dx[i] = 1e-6 * max(1.0, abs(x[i]))
                fd[i] = (problem.value(t, x + dx) - problem.value(t, x - dx)) / (2 * dx[i])
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-6, (problem.name, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"four problem families match finite differences, {elapsed:.1f}s")


def test_criterion_10_byte_identical_outputs(tmp_path):
    cfg_text = (
        "[experiment]\n"
        "preset = fig1-ls\n"
        "trials = 10\n"
        "horizon = 120\n"
        "seed = 3\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)
    contents = []
    for sub in ("a", "b", "c"):
        out = tmp_path / sub
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert contents[0] == contents[1] == contents[2]
    _report(10, "three repeat runs byte-identical")
