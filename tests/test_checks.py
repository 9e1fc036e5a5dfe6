"""The sampled validation checks: gradient_fd, pl_certificate and prox_grid.

The gradient and PL checks evaluate their oracles in row blocks.  The
reference loops below are the per-point and unblocked forms those checks
replaced; since every oracle works row by row, the checks must return the
same results and see the same oracle outputs, bit for bit.  Negative
controls show that both checks fail on a wrong gradient or an overstated
slope, and a spy pins the time indices every check visits.  The proximal PL
check's exact decrease is held against a grid-oracle reference that never
calls the closed-form prox.
"""

import copy
import tracemalloc
from functools import cache

import numpy as np
import pytest

from plgrad.config import build_problem, make_config
from plgrad.harness import CheckResult, _check_gradient, _check_pl, _check_prox
from plgrad.problems import (
    DemandResponse,
    OnlineProblem,
    TimeVaryingLeastSquares,
    _sample_ball,
    prox_decrease,
    sampled_times,
    synth_demand_response_traces,
    verify_pl,
)
from plgrad.prox import grid_argmin_prox

CONFIGS = {
    "fig1-ls": ("fig1-ls", {}),
    "static-ls": ("static-ls", {}),
    "logistic": ("logistic", {}),
    "lti": ("lti", {}),
    "dr20": ("fig3-demand-response", {}),
    "dr500": ("fig3-demand-response", {"problem": {"n_der": 500}}),
}


@cache  # one build per config, shared by the tests below
def _configured(name):
    preset, sections = CONFIGS[name]
    cfg = make_config(sections, {"preset": preset})
    return build_problem(cfg), cfg.seed


def reference_gradient_fd(problem, seed, n_points=100):
    """Largest relative finite-difference error: one (2n, n) matrix per point."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 4)))
    worst = 0.0
    h = 1e-6
    n = problem.n
    axis = np.arange(n)
    points = np.empty((2 * n, n))  # rows i and n + i step along axis i
    for t in sampled_times(problem.horizon):
        xs = _sample_ball(rng, n, 0.5 * problem.domain_radius, n_points)
        for x in xs:
            g = problem.grad(t, x)
            dx = h * np.maximum(1.0, np.abs(x))
            points[:] = x
            points[axis, axis] += dx
            points[n + axis, axis] -= dx
            f = problem.value(t, points)
            fd = (f[:n] - f[n:]) / (2.0 * dx)
            denom = max(np.linalg.norm(g), 1e-12)
            worst = max(worst, float(np.linalg.norm(fd - g) / denom))
    return worst


def reference_pl_mu(problem, seed, n_samples=1000):
    """Sampled (proximal) PL slope, every sample matrix evaluated at once."""
    ts = sampled_times(problem.horizon)
    if problem.smooth_only():
        return min(verify_pl(problem, t, n_samples, seed) for t in ts)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 5)))
    reg = problem.regularizer
    mu_hat = np.inf
    for t in ts:
        fstar = problem.fstar(t)
        if reg.kind == "box":
            xs = reg.lo + rng.uniform(0.0, 1.0, size=(n_samples, problem.n)) * (
                reg.hi - reg.lo
            )
        else:
            xs = _sample_ball(rng, problem.n, 0.5 * problem.domain_radius, n_samples)
        gap = problem.total_value(t, xs) - fstar
        keep = gap > 1e-9
        if np.any(keep):
            ratios = prox_decrease(problem, t, xs)[keep] / (2.0 * gap[keep])
            mu_hat = min(mu_hat, float(ratios.min()))
    return mu_hat


def grid_prox_decrease(problem, t, x, points):
    """prox_decrease at one point, and its minimizer, from the grid oracle.

    <g, y - x> + L/2 ||y - x||^2 = L/2 ||y - (x - g/L)||^2 - ||g||^2 / (2L),
    so the surrogate's minimizer is the prox point of x - g/L at the step
    1/L; grid_argmin_prox finds it in any dimension without the closed form.
    """
    l = problem.smoothness
    g = problem.grad(t, x)
    reg = problem.regularizer
    y = grid_argmin_prox(reg, 1.0 / l, x - g / l, points)
    d = y - x
    return -2.0 * l * float(g @ d + 0.5 * l * (d @ d) + reg.value(y) - reg.value(x)), y


def pl_lhs(problem, t, x):
    """2 mu (F(x) - F*), the side the decrease must dominate."""
    return 2.0 * problem.pl_constant * (problem.total_value(t, x) - problem.fstar(t))


class OracleSpy:
    """Forwards to a problem and records every oracle result by (oracle, t)."""

    def __init__(self, problem):
        self.problem = problem
        self.results = {}  # (oracle, t) -> list of (rows, width) arrays

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def _record(self, oracle, t, result, width=1):
        rows = np.array(result, dtype=float).reshape(-1, width)
        self.results.setdefault((oracle, t), []).append(rows)
        return result

    def value(self, t, x):
        return self._record("value", t, self.problem.value(t, x))

    def grad(self, t, x, out=None):
        return self._record("grad", t, self.problem.grad(t, x, out=out), self.problem.n)

    def fstar(self, t):
        return self._record("fstar", t, self.problem.fstar(t))

    total_value = OnlineProblem.total_value  # through the recorded value

    def visited(self):
        return {t for _, t in self.results}

    def sorted_results(self):
        """Every recorded row, sorted, so call order and batching drop out."""
        out = {}
        for key, blocks in self.results.items():
            rows = np.concatenate(blocks)
            out[key] = rows[np.lexsort(rows.T[::-1])]
        return out


def assert_same_oracle_outputs(a, b):
    ra, rb = a.sorted_results(), b.sorted_results()
    assert ra.keys() == rb.keys()
    for key in ra:
        assert np.array_equal(ra[key], rb[key]), key


@pytest.mark.parametrize("name", list(CONFIGS))
def test_gradient_check_matches_the_per_point_loop(name):
    problem, seed = _configured(name)
    ref_spy, new_spy = OracleSpy(problem), OracleSpy(problem)
    worst = reference_gradient_fd(ref_spy, seed)
    expected = CheckResult("gradient_fd", worst <= 1e-6, f"max relative error {worst:.2e}")
    assert _check_gradient(new_spy, seed) == expected
    assert expected.passed
    assert_same_oracle_outputs(ref_spy, new_spy)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pl_check_matches_the_unblocked_loop(name):
    problem, seed = _configured(name)
    ref_spy, new_spy = OracleSpy(problem), OracleSpy(problem)
    mu_hat = reference_pl_mu(ref_spy, seed)
    mu = problem.pl_constant
    label = "sampled mu" if problem.smooth_only() else "sampled proximal mu"
    expected = CheckResult(
        "pl_certificate", mu_hat >= mu - 1e-9, f"{label} {mu_hat:.6g} vs declared {mu:.6g}"
    )
    assert _check_pl(new_spy, seed) == expected
    assert expected.passed
    assert_same_oracle_outputs(ref_spy, new_spy)


def traced_peak(check, name):
    """tracemalloc's peak over one passing run of a check on a built problem."""
    problem, seed = _configured(name)
    tracemalloc.start()
    try:
        assert check(problem, seed).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, problem.n


def test_pl_check_peak_stays_below_one_sample_matrix():
    # the box points are drawn one 100-row block at a time, so the check
    # never holds all n_samples points of the n = 500 problem at once.  Per
    # block it holds the points (scaled in place), the gradient and the one
    # buffer of prox_decrease; a fourth (100, n) array exceeds the slack
    n_samples = 1000  # the check's fixed sample size
    peak, n = traced_peak(_check_pl, "dr500")
    assert peak <= 3 * 100 * n * 8 + 128 * 1024 < n_samples * n * 8, peak


def test_gradient_check_peak_holds_the_pair_and_one_draw():
    # the (2, P, n) pair of stepped points, the (P, n) steps that become the
    # quotients, and one _sample_ball draw (its direction matrix and the
    # scaled copy copied into the pair); the slack covers ufunc buffers and
    # P- or n-wide vectors, below the P n 8 bytes of one more (P, n) array
    n_points = 100  # the check's fixed point count
    peak, n = traced_peak(_check_gradient, "dr500")
    assert peak <= 5 * n_points * n * 8 + 128 * 1024, peak


def test_prox_check_peak_holds_two_grid_buffers():
    # grid_argmin_prox keeps the (n, 201) grid and its objective, and a
    # broadcast ufunc over them takes up to 128 KiB of buffers; the rest of
    # the slack covers the cases and their n-wide vectors, below the
    # n 201 8 bytes of one more (n, 201) array
    peak, n = traced_peak(_check_prox, "dr500")
    assert peak <= 2 * n * 201 * 8 + 256 * 1024, peak


class TestProxPLVerification:
    def test_reduces_to_gradient_form_without_regularizer(self):
        p = TimeVaryingLeastSquares(2, 3, 0.2, 1.0, 0.0, 0.0, seed=9, horizon=1)
        x = np.array([0.7, -0.4])
        g = p.grad(0, x)
        rhs_grid, y = grid_prox_decrease(p, 0, x, points=301)
        assert prox_decrease(p, 0, x) == pytest.approx(float(g @ g), rel=1e-12)
        assert rhs_grid == pytest.approx(float(g @ g), rel=1e-3)
        np.testing.assert_allclose(y, x - g / p.smoothness, atol=2e-2)

    def test_both_sides_vanish_at_optimum(self):
        p = TimeVaryingLeastSquares(2, 2, 0.5, 1.0, 0.0, 0.0, seed=9, horizon=1)
        x = p.xstar(0)
        assert pl_lhs(p, 0, x) == pytest.approx(0.0, abs=1e-12)
        assert abs(prox_decrease(p, 0, x)) <= 1e-12
        assert abs(grid_prox_decrease(p, 0, x, points=101)[0]) <= 1e-12

    def test_box_quadratic_inequality_on_random_points(self):
        w = np.zeros((2, 1))
        p = DemandResponse(
            1, 0, 1, np.array([3.0, 3.0]), w, np.array([-1.0]), np.array([1.0])
        )
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=1)
            rhs_grid, _ = grid_prox_decrease(p, 0, x, points=4001)
            assert rhs_grid >= pl_lhs(p, 0, x) - 1e-6
            assert prox_decrease(p, 0, x) == pytest.approx(rhs_grid, abs=1e-5)

    def test_ten_devices_match_the_exact_decrease(self):
        # the per-coordinate grid has no dimension cap
        w, p_ref = synth_demand_response_traces(80, seed=11)
        lo = np.concatenate([np.full(5, -50.0), np.zeros(5)])
        p = DemandResponse(10, 11, 80, p_ref, w, lo, np.full(10, 50.0))
        rng = np.random.default_rng(8)
        for t in (0, 40, 80):
            x = lo + rng.uniform(0, 1, size=10) * (50.0 - lo)
            rhs_grid, _ = grid_prox_decrease(p, t, x, points=201)
            assert rhs_grid == pytest.approx(prox_decrease(p, t, x), rel=1e-9)
            assert rhs_grid >= pl_lhs(p, t, x)


class TestNegativeControls:
    @pytest.mark.parametrize("name", ["fig1-ls", "static-ls", "logistic", "lti", "dr20"])
    def test_gradient_off_by_one_percent_in_one_coordinate_fails(self, name):
        class SkewedGrad(OracleSpy):
            def grad(self, t, x, out=None):
                g = np.array(self.problem.grad(t, x))
                g[..., 0] *= 1.01
                return g

        problem, seed = _configured(name)
        assert _check_gradient(problem, seed).passed
        assert not _check_gradient(SkewedGrad(problem), seed).passed

    def test_slope_above_smoothness_fails_smooth_branch(self):
        problem, seed = _configured("static-ls")
        assert _check_pl(problem, seed).passed
        problem = copy.copy(problem)  # the cached one stays as built
        problem.pl_constant = 1.01 * problem.smoothness
        result = _check_pl(problem, seed)
        assert not result.passed and result.detail.startswith("sampled mu")

    def test_slope_above_sampled_fails_box_branch(self):
        problem, seed = _configured("dr20")
        assert problem.regularizer.kind == "box"
        assert _check_pl(problem, seed).passed
        problem = copy.copy(problem)
        problem.pl_constant = 10.0 * reference_pl_mu(problem, seed)
        result = _check_pl(problem, seed)
        assert not result.passed and result.detail.startswith("sampled proximal mu")


@pytest.mark.parametrize("check", [_check_gradient, _check_pl, _check_prox])
@pytest.mark.parametrize("preset", ["static-ls", "fig3-demand-response"])
def test_checks_visit_the_sampled_grid(check, preset):
    cfg = make_config({}, {"preset": preset})
    cfg.horizon = 30
    spy = OracleSpy(build_problem(cfg))
    check(spy, cfg.seed)
    assert spy.visited() == {0, 15, 30} == set(sampled_times(30))
