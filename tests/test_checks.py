"""The sampled validation checks: gradient_fd, pl_certificate and prox_grid.

The gradient and PL checks evaluate their oracles in row blocks.  The
reference loops below are the per-point and unblocked forms of those
checks; since every oracle works row by row, the checks must return the
same results and see the same oracle outputs, bit for bit.  gradient_fd
differences one random direction per point; the difference along every
axis it replaced is kept here, and every config's gradient still passes it.
Negative controls show that both checks fail on a wrong gradient or an
overstated slope, and a fault in one coordinate reads its axis-by-axis
error.  A spy pins the time indices every check visits, the oracle calls
the gradient check makes and the box its points lie in.  The proximal PL
check's exact decrease is held against a grid-oracle reference that never
calls the closed-form prox.
"""

import copy
import math
import tracemalloc
from functools import cache

import numpy as np
import pytest

from plgrad.config import build_problem, make_config
from plgrad.harness import (
    CheckResult,
    _check_gradient,
    _check_pl,
    _check_prox,
    run_validation_battery,
)
from plgrad.problems import (
    DemandResponse,
    OnlineProblem,
    TimeVaryingLeastSquares,
    _row_norm,
    _sample_ball,
    prox_decrease,
    sampled_times,
    synth_demand_response_traces,
    verify_pl,
)
from plgrad.prox import GRID_CELLS, Regularizer, grid_argmin_prox

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


EPS = np.finfo(float).eps


def reference_gradient_fd(problem, seed, n_points=100):
    """Central differences along every axis: one (2n, n) matrix per point.

    The largest relative error ||fd - g|| / ||g||, and whether every point
    is within 1e-6 + 4 eps sqrt(n) |f| / (h_k ||g_k||), h_k the point's
    smallest step and |f| read at the last axis's stepped points.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 4)))
    worst = 0.0
    passed = True
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
            error = float(np.linalg.norm(fd - g) / denom)
            f_last = max(abs(f[n - 1]), abs(f[-1]))
            passed = passed and error <= 1e-6 + 4 * EPS * math.sqrt(n) * f_last / (dx.min() * denom)
            worst = max(worst, error)
    return worst, passed


def reference_directional_fd(problem, seed, n_points=100):
    """gradient_fd one point at a time: one grad call and one value call on
    the pair x + h u, x - h u per point, after the block draws of the
    points (uniform on the box of a box problem, else in the half ball)
    and of the sign directions (-1 where a uniform draw falls below 1/2,
    over sqrt(n)).  Returns the check's CheckResult."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 4)))
    worst = 0.0
    passed = True
    n = problem.n
    reg = problem.regularizer
    for t in sampled_times(problem.horizon):
        if reg.kind == "box":
            xs = reg.lo + rng.uniform(0.0, 1.0, size=(n_points, n)) * (reg.hi - reg.lo)
        else:
            xs = _sample_ball(rng, n, 0.5 * problem.domain_radius, n_points)
        signs = np.where(rng.uniform(0.0, 1.0, size=(n_points, n)) < 0.5, -1.0, 1.0)
        us = signs / math.sqrt(n)
        for x, u in zip(xs, us):
            g = problem.grad(t, x)
            h = 1e-6 * max(1.0, float(np.abs(x).max()))
            hu = h * u
            f = problem.value(t, np.stack([x + hu, x - hu]))
            g_norm = max(_row_norm(g), 1e-12)
            error = math.sqrt(n) * abs(f[0] - f[1] - 2.0 * h * np.vecdot(g, u)) / (2.0 * h * g_norm)
            rounding = 4.0 * max(abs(f[0]), abs(f[1])) + 0.5 * (_row_norm(x) + 2.0 * h) * (
                g_norm + problem.smoothness * h
            )
            passed = passed and error <= 1e-6 + math.sqrt(n) * EPS * rounding / (h * g_norm)
            worst = max(worst, float(error))
    return CheckResult("gradient_fd", bool(passed), f"max relative error {worst:.2e}")


def reference_pl_mu(problem, seed, n_samples=1000):
    """Sampled (proximal) PL slope, every sample matrix evaluated at once."""
    ts = sampled_times(problem.horizon)
    if problem.regularizer.kind == "none":
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
    expected = reference_directional_fd(ref_spy, seed)
    assert _check_gradient(new_spy, seed) == expected
    assert expected.passed
    assert_same_oracle_outputs(ref_spy, new_spy)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_config_passes_the_differences_along_every_axis(name):
    # the per-coordinate coverage the directional check estimates
    problem, seed = _configured(name)
    worst, passed = reference_gradient_fd(problem, seed)
    assert passed, worst


class PointSpy(OracleSpy):
    """Records a copy of every point block the gradient oracle receives."""

    def __init__(self, problem):
        super().__init__(problem)
        self.points = []

    def grad(self, t, x, out=None):
        self.points.append(np.array(x))
        return super().grad(t, x, out=out)


@pytest.mark.parametrize("name", ["dr20", "dr500"])
def test_gradient_check_draws_its_points_from_the_box(name):
    # the run's iterates stay in the box, so the check differences there
    problem, seed = _configured(name)
    spy = PointSpy(problem)
    assert _check_gradient(spy, seed).passed
    reg = problem.regularizer
    assert len(spy.points) == len(sampled_times(problem.horizon))
    for xs in spy.points:
        assert np.all((reg.lo <= xs) & (xs <= reg.hi))


@pytest.mark.parametrize("name", ["static-ls", "dr500"])
def test_gradient_check_cost_does_not_grow_with_n(name):
    # per sampled t, one grad call on the 100 points and one value call on
    # their 200 stepped points, at n = 10 as at n = 500
    problem, seed = _configured(name)
    spy = OracleSpy(problem)
    _check_gradient(spy, seed)
    calls = {key: [len(rows) for rows in blocks] for key, blocks in spy.results.items()}
    times = sampled_times(problem.horizon)
    expected = {("grad", t): [100] for t in times} | {("value", t): [200] for t in times}
    assert calls == expected


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pl_check_matches_the_unblocked_loop(name):
    problem, seed = _configured(name)
    ref_spy, new_spy = OracleSpy(problem), OracleSpy(problem)
    mu_hat = reference_pl_mu(ref_spy, seed)
    mu = problem.pl_constant
    label = "sampled mu" if problem.regularizer.kind == "none" else "sampled proximal mu"
    expected = CheckResult(
        "pl_certificate", mu_hat >= mu - 1e-9, f"{label} {mu_hat:.6g} vs declared {mu:.6g}"
    )
    assert _check_pl(new_spy, seed) == expected
    assert expected.passed
    assert_same_oracle_outputs(ref_spy, new_spy)


@pytest.mark.parametrize("shape", [(100, 500), (500,)])
def test_random_draws_the_floats_and_stream_position_of_uniform(shape):
    # _sample_box fills the PL check's (100, n) block, the gradient check's
    # points and the prox check's (n,) point with Generator.random, and the
    # gradient check its signs: uniform(0, 1) returns 0 + 1 u, so each reads
    # the bits and leaves the stream where uniform(0, 1) does
    for seed in range(200):
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        u = np.empty(shape)
        drawn.random(out=u)
        assert u.tobytes() == reference.uniform(0.0, 1.0, size=shape).tobytes()
        assert drawn.bit_generator.state == reference.bit_generator.state


def peak_of(call):
    """tracemalloc's peak over one call, and the call's result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def traced_peak(check, name):
    """tracemalloc's peak over one passing run of a check on a built problem."""
    problem, seed = _configured(name)
    peak, result = peak_of(lambda: check(problem, seed))
    assert result.passed
    return peak, problem.n


def test_pl_check_peak_stays_below_one_sample_matrix():
    # the box points are drawn one 100-row block at a time, so the check
    # never holds all n_samples points of the n = 500 problem at once.  Per
    # block it holds the points (scaled in place), the gradient and the one
    # buffer of prox_decrease; a fourth (100, n) array exceeds the slack
    n_samples = 1000  # the check's fixed sample size
    peak, n = traced_peak(_check_pl, "dr500")
    assert peak <= 3 * 100 * n * 8 + 128 * 1024 < n_samples * n * 8, peak


def test_gradient_check_peak_holds_the_pair_and_the_quotients():
    # the (2, P, n) pair of stepped points, into whose first slab the points
    # are drawn, and the (P, n) directions that become the steps, which lend
    # a ball draw its squares; the slack covers ufunc buffers and P- or n-wide
    # vectors, below the P n 8 bytes of one more (P, n) array
    n_points = 100  # the check's fixed point count
    peak, n = traced_peak(_check_gradient, "dr500")
    assert peak <= 3 * n_points * n * 8 + 128 * 1024, peak


# the grid's two buffers of GRID_CELLS points, and up to 128 KiB of buffers
# for a broadcast ufunc over them; the rest covers the n-wide vectors, below
# the GRID_CELLS 8 bytes of a third block buffer
GRID_BUDGET = 2 * GRID_CELLS * 8 + 256 * 1024


def test_prox_check_peak_holds_two_grid_buffers():
    peak, _ = traced_peak(_check_prox, "dr500")
    assert peak <= GRID_BUDGET, peak


@pytest.mark.parametrize("kind", ["none", "box"])
@pytest.mark.parametrize("n", [500, 5000])
def test_grid_peak_does_not_grow_with_n(kind, n):
    rng = np.random.default_rng(n)
    v = rng.uniform(-3.0, 3.0, size=n)
    lo = rng.uniform(-2.0, 0.0, size=n)
    reg = Regularizer.none() if kind == "none" else Regularizer.box(lo, lo + 1.0)
    peak, _ = peak_of(lambda: grid_argmin_prox(reg, 0.5, v))
    assert peak <= GRID_BUDGET, peak


def test_battery_peak_holds_three_point_blocks():
    # the gradient and PL checks each hold three (100, n) arrays and the
    # prox check far less, so the battery, problem build included, stays
    # below a fourth (100, n) array.  The cached build has run first, so the
    # modules a first build imports are not counted
    n = _configured("dr500")[0].n
    preset, sections = CONFIGS["dr500"]
    cfg = make_config(sections, {"preset": preset})
    peak, summary = peak_of(lambda: run_validation_battery(cfg, ("gradient", "pl", "prox")))
    assert summary.passed
    assert peak <= 3 * 100 * n * 8 + 256 * 1024, peak


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


class ScaledGrad(OracleSpy):
    """A gradient oracle off by a constant factor."""

    def __init__(self, problem, factor):
        super().__init__(problem)
        self.factor = factor

    def grad(self, t, x, out=None):
        g = self.problem.grad(t, x, out=out)
        g *= self.factor
        return g


class CoordinateZeroOff(ScaledGrad):
    """A gradient oracle whose coordinate 0 is off by a constant factor."""

    def grad(self, t, x, out=None):
        g = self.problem.grad(t, x, out=out)
        g[..., 0] *= self.factor
        return g


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

    @pytest.mark.parametrize(
        "wrong", [(CoordinateZeroOff, 1 + 1e-4), (ScaledGrad, 1 + 1e-5)], ids=["skewed", "scaled"]
    )
    def test_slightly_wrong_gradient_fails_at_500_devices(self, wrong):
        # where the directional check drops the most work, it still catches
        # what the differences along every axis caught
        oracle, factor = wrong
        problem, seed = _configured("dr500")
        assert _check_gradient(problem, seed).passed
        assert not _check_gradient(oracle(problem, factor), seed).passed

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


@pytest.mark.parametrize("factor", [1 + 1e-2, 1 + 1e-4])
@pytest.mark.parametrize("name", ["dr20", "dr500"])
def test_one_coordinate_fault_reads_its_axis_by_axis_error(name, factor):
    # demand response has g = r 1, so a fault k r in coordinate 0 is off by
    # ||d|| / ||g|| = k / sqrt(n); a sign direction has u_0^2 = 1/n exactly,
    # so every point reads that error, up to the difference's rounding
    problem, seed = _configured(name)
    result = _check_gradient(CoordinateZeroOff(problem, factor), seed)
    assert not result.passed
    expected = (factor - 1.0) / math.sqrt(problem.n)
    assert float(result.detail.split()[-1]) == pytest.approx(expected, rel=1e-2)


def static_ls(obs_noise_std):
    """static-ls with the given observation noise in b_t, and its seed."""
    cfg = make_config({"problem": {"obs_noise_std": obs_noise_std}}, {"preset": "static-ls"})
    return build_problem(cfg), cfg.seed


class TestRoundingLimit:
    """gradient_fd's limit grows with the rounding in f, and no further.

    Observation noise of standard deviation s in b_t leaves the gradient's
    form as it is but makes f about s^2 large; at s = 3e3 and 1e4 the
    rounding in f alone puts a correct gradient past the fixed 1e-6.
    """

    @pytest.mark.parametrize("obs_noise_std", [3e3, 1e4])
    def test_correct_gradient_passes_when_f_is_large(self, obs_noise_std):
        result = _check_gradient(*static_ls(obs_noise_std))
        assert result.passed
        assert float(result.detail.split()[-1]) > 1e-6, result.detail

    @pytest.mark.parametrize(
        "obs_noise_std, factor",
        [(0.0, 1 + 1e-5), (1.0, 1 + 1e-5), (100.0, 1 + 1e-5), (1e3, 1 + 1e-5), (1e4, 1 + 1e-3)],
    )
    def test_scaled_gradient_fails(self, obs_noise_std, factor):
        problem, seed = static_ls(obs_noise_std)
        assert not _check_gradient(ScaledGrad(problem, factor), seed).passed


@pytest.mark.parametrize("check", [_check_gradient, _check_pl, _check_prox])
@pytest.mark.parametrize("preset", ["static-ls", "fig3-demand-response"])
def test_checks_visit_the_sampled_grid(check, preset):
    cfg = make_config({}, {"preset": preset})
    cfg.horizon = 30
    spy = OracleSpy(build_problem(cfg))
    check(spy, cfg.seed)
    grid = {0, 15, 30}
    assert set(sampled_times(30)) == grid
    # without a regularizer the prox check has nothing to check: it visits no t
    skipped = check is _check_prox and spy.regularizer.kind == "none"
    assert spy.visited() == (set() if skipped else grid)


@pytest.mark.parametrize("preset", ["static-ls", "fig3-demand-response"])
def test_prox_check_solves_one_prox_per_sampled_time(monkeypatch, preset):
    # the check covers the regularizer the run steps with and nothing else:
    # one closed-form prox and one grid search per time index on a box, and
    # none without a regularizer
    from plgrad import harness

    calls = []

    class CountedProx(Regularizer):
        def prox(self, step, v, out=None):
            calls.append("prox")
            return super().prox(step, v, out=out)

    def counted_grid(reg, step, v):
        calls.append("grid")
        return grid_argmin_prox(reg, step, v)

    monkeypatch.setattr(harness, "grid_argmin_prox", counted_grid)
    cfg = make_config({}, {"preset": preset})
    problem = build_problem(cfg)
    reg = problem.regularizer
    problem.regularizer = CountedProx(reg.kind, lo=reg.lo, hi=reg.hi)
    assert _check_prox(problem, cfg.seed).passed
    n_times = len(sampled_times(problem.horizon)) if reg.kind == "box" else 0
    assert calls.count("grid") == calls.count("prox") == n_times
