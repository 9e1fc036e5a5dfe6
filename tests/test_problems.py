"""Problem-suite tests: constants, oracles, certificates, variability."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from plgrad import problems as problems_mod
from plgrad.config import PROBLEM_KINDS, build_problem, make_config
from plgrad.harness import _check_pl
from plgrad.noise import GradientErrors, NoiseModel, sample
from plgrad.problems import (
    DemandResponse,
    DriftingLogistic,
    LtiTracking,
    QuadraticTracking,
    TimeVaryingLeastSquares,
    load_demand_response_traces,
    prox_decrease,
    synth_demand_response_traces,
    verify_pl,
)
from plgrad.prox import Regularizer
from plgrad.solvers import run
from plgrad.subweibull import fit_from_samples


def fd_gradient(problem, t, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[i] = h * max(1.0, abs(x[i]))
        g[i] = (problem.value(t, x + dx) - problem.value(t, x - dx)) / (2 * dx[i])
    return g


def evaluated(problem, t, x):
    """problem.evaluate's results at x as one row: f_t, f_{t-1}, grad f_t."""
    g = np.empty_like(x)
    f, f_prev = problem.evaluate(t, x, grad_out=g)
    return np.concatenate([np.stack([f, f_prev], axis=-1), g], axis=-1)


def weighted_demand_response(horizon, p_ref, w, lo, hi, a_x, a_w=None):
    """Demand response with device weights a_x and load weights a_w (ones
    by default): the one-row QuadraticTracking over the box, with the
    constants of that structure, L = ||a_x||^2, the smallest nonzero a_i^2
    as the proximal slope and the error gain ||a_x||.  DemandResponse
    builds the case a_x = ones."""
    a_w = np.ones(w.shape[1]) if a_w is None else a_w
    b = p_ref[: horizon + 1] - w[: horizon + 1] @ a_w
    return QuadraticTracking(
        "demand_response", a_x[None, :], b[:, None], horizon,
        smoothness=float(a_x @ a_x), pl_constant=float(np.min(a_x[a_x != 0.0] ** 2)),
        domain_radius=1.05 * float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))),
        error_gain=float(np.linalg.norm(a_x)), box=(lo, hi),
    )


def sampled_pl(problem, t, n_samples, seed):
    """verify_pl's slope with the largest violation 2 mu (f - f*) - ||grad||^2
    of the declared mu and the number of samples used, both computed here
    on verify_pl's samples with its skip bound."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3, t)))  # the verify tag
    xs = problems_mod._sample_ball(rng, problem.n, problem.domain_radius, n_samples)
    fstar = problem.fstar(t)
    gap = problem.value(t, xs) - fstar
    gsq = np.sum(problem.grad(t, xs) ** 2, axis=-1)
    keep = gap > 1e-12 * max(1.0, abs(fstar))
    gap, gsq = gap[keep], gsq[keep]
    mu_hat = verify_pl(problem, t, n_samples, seed)
    if keep.any():
        assert mu_hat == float(np.min(gsq / (2.0 * gap)))  # the same samples
    max_violation = float(np.max(2.0 * problem.pl_constant * gap - gsq, initial=0.0))
    return mu_hat, max_violation, int(keep.sum())


@pytest.fixture(scope="module")
def ls_problem():
    return TimeVaryingLeastSquares(
        10, 20, 0.1, 1.0, math.sqrt(0.1), math.sqrt(1e-3), seed=42, horizon=60
    )


@pytest.fixture(scope="module")
def static_ls():
    return TimeVaryingLeastSquares(10, 20, 0.1, 1.0, 0.0, 0.0, seed=42, horizon=60)


@pytest.fixture(scope="module")
def logistic_problem():
    return DriftingLogistic(5, 24, seed=7, horizon=12, drift_std=0.02)


@pytest.fixture(scope="module")
def lti_problem():
    return LtiTracking(6, 9, seed=3, horizon=40)


@pytest.fixture(scope="module")
def dr_problem():
    w, p_ref = synth_demand_response_traces(80, seed=11)
    lo = np.concatenate([np.full(5, -50.0), np.zeros(5)])
    hi = np.full(10, 50.0)
    return DemandResponse(10, 11, 80, p_ref, w, lo, hi)


class TestLeastSquares:
    def test_spectrum_matches_requested_grid(self, ls_problem):
        eigs = np.sort(np.linalg.eigvalsh(ls_problem.matrix.T @ ls_problem.matrix))
        np.testing.assert_allclose(eigs, np.linspace(0.1, 1.0, 10), atol=1e-10)
        assert ls_problem.smoothness == pytest.approx(1.0, abs=1e-12)
        assert ls_problem.pl_constant == pytest.approx(0.1, abs=1e-12)

    def test_fstar_matches_inner_solver(self, ls_problem):
        for t in (0, 30, 60):
            res = minimize(
                lambda x: ls_problem.value(t, x),
                np.zeros(10),
                jac=lambda x: ls_problem.grad(t, x),
                method="L-BFGS-B",
                options={"gtol": 1e-12, "ftol": 1e-16},
            )
            assert ls_problem.fstar(t) == pytest.approx(res.fun, abs=1e-8)

    def test_xstar_attains_fstar(self, ls_problem):
        for t in (0, 25):
            xs = ls_problem.xstar(t)
            assert ls_problem.value(t, xs) == pytest.approx(ls_problem.fstar(t), abs=1e-10)

    def test_static_noiseless_fstar_zero(self, static_ls):
        for t in (0, 10, 60):
            assert static_ls.fstar(t) == pytest.approx(0.0, abs=1e-18)

    def test_static_variability_identically_zero(self, static_ls):
        model = NoiseModel("gaussian_iid", scale=0.5)
        traj = run(static_ls, model, seed=0, trials=range(4))
        assert np.array_equal(traj.psi_tilde, np.zeros((4, 61)))

    def test_quadratic_lower_bound_near_minimizer(self, ls_problem):
        # gradient domination implies f(x) - f* >= mu/2 ||x - x*||^2
        rng = np.random.default_rng(15)
        mu = ls_problem.pl_constant
        for t in (0, 30):
            xs_opt = ls_problem.xstar(t)
            fstar = ls_problem.fstar(t)
            for _ in range(200):
                x = rng.normal(size=10) * 3.0
                gap = ls_problem.value(t, x) - fstar
                assert gap >= 0.5 * mu * np.sum((x - xs_opt) ** 2) - 1e-9

    def test_dimension_and_constant_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingLeastSquares(10, 5, 0.1, 1.0, 0.0, 0.0, seed=0, horizon=1)
        with pytest.raises(ValueError):
            TimeVaryingLeastSquares(4, 8, 1.0, 0.1, 0.0, 0.0, seed=0, horizon=1)


class TestLogistic:
    def test_value_at_origin(self, logistic_problem):
        # every term is log(1 + exp(0)) = log 2
        d = logistic_problem.d
        assert logistic_problem.value(3, np.zeros(5)) == pytest.approx(
            d * math.log(2.0), rel=1e-12
        )

    def test_static_drift_freezes_optimum(self):
        p = DriftingLogistic(4, 20, seed=5, horizon=6, drift_std=0.0)
        for t in range(1, 7):
            assert abs(p.fstar(t) - p.fstar(t - 1)) == 0.0

    def test_optimum_is_the_origin(self):
        # centered signed rows make grad f_t(0) = 0.5 sum_i c_{t,i} vanish
        p = DriftingLogistic(6, 200, seed=11, horizon=12, drift_std=0.05)
        zeros = np.zeros(p.n)
        for t in range(p.horizon + 1):
            assert p.fstar(t) == float(p.value(t, zeros))
            np.testing.assert_array_equal(p.xstar(t), zeros)
            assert np.linalg.norm(p.grad(t, zeros)) <= 1e-12

    def test_no_reference_solve_ends_below_fstar(self, logistic_problem):
        # an independent L-BFGS-B solve from random starts never beats f*_t
        p = logistic_problem
        rng = np.random.default_rng(23)
        for t in range(p.horizon + 1):
            fstar = p.fstar(t)
            for _ in range(5):
                res = minimize(
                    lambda x: (p.value(t, x), p.grad(t, x)),
                    rng.normal(size=p.n) * 3.0,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-9},
                )
                assert res.fun >= fstar - 1e-12 * abs(fstar)

    def test_declared_mu_is_conservative(self, logistic_problem):
        mu_hat, max_violation, _ = sampled_pl(logistic_problem, 5, n_samples=500, seed=2)
        assert mu_hat >= logistic_problem.pl_constant - 1e-9
        assert max_violation <= 1e-9

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            DriftingLogistic(5, 5, seed=0, horizon=1, drift_std=0.0)


class TestLtiTracking:
    def test_constants_are_extreme_eigenvalues(self, lti_problem):
        eigs = np.linalg.eigvalsh(lti_problem.matrix.T @ lti_problem.matrix)
        assert lti_problem.pl_constant == pytest.approx(eigs[0], rel=1e-12)
        assert lti_problem.smoothness == pytest.approx(eigs[-1], rel=1e-12)
        assert lti_problem.pl_constant > 0

    @staticmethod
    def measured_grad(p, t, x, eta):
        """The physical model: G^T (yhat_t - ybar_t), yhat_t = G x + H w_t + eta."""
        yhat = p.matrix @ x + p.disturbance_map @ p.disturbance[t] + eta
        return p.matrix.T @ (yhat - p.reference[t])

    def test_measured_grad_with_zero_noise_is_exact(self, lti_problem):
        rng = np.random.default_rng(8)
        for t in (0, 20, 40):
            x = rng.normal(size=6)
            v = self.measured_grad(lti_problem, t, x, np.zeros(9))
            np.testing.assert_allclose(v, lti_problem.grad(t, x), atol=1e-12)

    def test_measurement_noise_maps_through_output_matrix(self, lti_problem):
        # the run path's error model: measured = grad + G^T eta
        rng = np.random.default_rng(9)
        errors = GradientErrors(lti_problem, NoiseModel())
        for t in (0, 5, 40):
            x = rng.normal(size=6)
            eta = rng.normal(size=9)
            v = self.measured_grad(lti_problem, t, x, eta)
            np.testing.assert_allclose(v, lti_problem.grad(t, x) + errors.map(eta), atol=1e-12)

    def test_error_envelope_dominates_fit(self, lti_problem):
        # ||G^T eta|| <= smax(G) ||eta||: the scaled envelope must cover a
        # fitted one, and stays below the crude smax * s * sqrt(m) cap
        s = 0.3
        model = NoiseModel("gaussian_iid", scale=s)
        errors = GradientErrors(lti_problem, model)
        k = errors.analytic(1, 2)[1][0]  # the K a run certifies
        norms = np.linalg.norm(errors.map(sample(model, 9, 0, 0, 20000)), axis=1)
        fitted = fit_from_samples(norms, theta=0.5)
        assert fitted.k <= k * 1.05
        assert k <= lti_problem.error_gain * s * math.sqrt(9) + 1e-12

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel("gaussian_iid", scale=0.1, bias=0.2),
            NoiseModel("bounded_uniform", scale=0.3, bias=-0.15),
            NoiseModel("weibull_tail", scale=0.3, weibull_shape=2.0, bias=0.1),
        ],
        ids=["gaussian", "uniform", "weibull"],
    )
    def test_error_moment_with_bias_matches_monte_carlo(self, lti_problem, model):
        # raw = z + b 1: E||G^T raw||^2 = (E||z||^2 / m) ||G||_F^2 + b^2 ||G^T 1||^2
        draws = 10**5
        errors = GradientErrors(lti_problem, model)
        mapped = errors.map(sample(model, 9, 5, 0, draws))
        sq = np.vecdot(mapped, mapped)
        sem = float(sq.std()) / math.sqrt(draws)
        second = errors.analytic(1, 2)[0][0]
        assert abs(float(sq.mean()) - second) <= 4.0 * sem
        # the bias term carries weight: dropping it misses by many errors
        unbiased = GradientErrors(lti_problem, replace(model, bias=0.0)).analytic(1, 2)[0][0]
        assert second - unbiased > 20.0 * sem
        # power 1 keeps its Jensen bound
        assert errors.analytic(1, 1)[0][0] == math.sqrt(second)
        assert float(np.sqrt(sq).mean()) <= math.sqrt(second)


class TestDemandResponse:
    def test_reachable_target_has_zero_optimum(self):
        w = np.zeros((5, 1))
        p_ref = np.full(5, 10.0)  # reachable: s ranges over [-50, 100]
        p = DemandResponse(
            2, 0, 4, p_ref, w, np.array([-50.0, 0.0]), np.array([50.0, 50.0])
        )
        for t in range(5):
            assert p.fstar(t) == 0.0

    def test_unreachable_target_clamp_distance(self):
        w = np.zeros((3, 1))
        p_ref = np.full(3, 250.0)  # max reachable s = 100
        p = DemandResponse(
            2, 0, 2, p_ref, w, np.array([-50.0, 0.0]), np.array([50.0, 50.0])
        )
        assert p.fstar(0) == pytest.approx(0.5 * 150.0**2, rel=1e-12)

    def test_fstar_against_scalar_grid_search(self, dr_problem):
        # dense sweep of the only degree of freedom the cost sees: a segment
        # between the box corners where a^T x is smallest and largest
        a = dr_problem.matrix[0]
        reg = dr_problem.regularizer
        x_min = np.where(a > 0, reg.lo, reg.hi)
        x_max = np.where(a > 0, reg.hi, reg.lo)
        lam = np.linspace(0.0, 1.0, 200001)[:, None]
        xs = x_min + lam * (x_max - x_min)
        for t in (0, 40, 80):
            vals = dr_problem.value(t, xs)
            assert dr_problem.fstar(t) == pytest.approx(vals.min(), abs=1e-4)

    def test_one_row_oracles_keep_the_scalar_forms(self):
        # the one-row path must give the bits of the scalar cost
        # 0.5 s^2 with s = a_x^T x + c_t, c_t = a_w^T w_t - p_ref_t
        rng = np.random.default_rng(12)
        # a long horizon: squaring by multiplication instead of pow changes
        # the last bit of about one clamp distance in a thousand
        n, horizon = 7, 8000
        a_x = rng.uniform(-2.0, 2.0, size=n)
        a_w = rng.uniform(0.5, 1.5, size=3)
        w = rng.normal(scale=40.0, size=(horizon + 1, 3))
        # targets far outside the box exercise the clamp in fstar
        p_ref = rng.normal(scale=100.0, size=horizon + 1) + np.where(
            np.arange(horizon + 1) % 2 == 0, 400.0, -400.0
        )
        lo, hi = np.full(n, -3.0), np.full(n, 4.0)
        p = weighted_demand_response(horizon, p_ref, w, lo, hi, a_x, a_w)
        c = w @ a_w - p_ref
        s_min = float(np.sum(np.minimum(a_x * lo, a_x * hi)))
        s_max = float(np.sum(np.maximum(a_x * lo, a_x * hi)))
        xs = lo + rng.uniform(size=(9, n)) * (hi - lo)
        raw = rng.normal(size=(9, 1))
        for t in (0, 1, horizon // 2, horizon):
            for x, r in ((xs, raw), (xs[0], raw[0])):
                s = np.vecdot(a_x, x) + c[t]
                assert np.array_equal(p.value(t, x), 0.5 * (s * s))
                expected = s[..., None] * a_x
                assert np.array_equal(p.grad(t, x), expected)
                out = np.full(expected.shape, np.nan)
                assert p.grad(t, x, out=out) is out
                assert np.array_equal(out, expected)
                expected = r[..., :1] * a_x
                assert np.array_equal(GradientErrors(p, NoiseModel()).map(r), expected)
            assert p.xstar(t) is None
        for t in range(horizon + 1):
            target = -c[t]
            reachable = min(max(target, s_min), s_max)
            assert p.fstar(t) == 0.5 * (reachable - target) ** 2
        assert p.fstar(0) > 0.0

    def test_one_row_adjoint_is_the_broadcast_product(self):
        # A^T r on a one-row A gives the bits of np.multiply(r, a), except
        # that a zero product is +0.0 where multiply can give -0.0
        a_x = np.array([1.5, -2.0, 0.0, 5e-324, -1e150, 1e-310, 7.0])
        n = a_x.size
        p = weighted_demand_response(
            1, np.zeros(2), np.zeros((2, 1)), np.full(n, -1.0), np.ones(n), a_x
        )
        vals = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -4.5, 1e300]
        )
        with np.errstate(all="ignore"):
            for r in [vals[:, None], *(vals[i : i + 1] for i in range(vals.size))]:
                expected = np.multiply(r, a_x)
                got = p._adjoint(r)
                out = np.full(expected.shape, np.nan)
                assert p._adjoint(r, out=out) is out
                zero = expected == 0.0
                for result in (got, out):
                    assert result.shape == expected.shape
                    bits, want = result.view(np.int64), expected.view(np.int64)
                    assert np.array_equal(bits[~zero], want[~zero])
                    assert np.all(result[zero] == 0.0)
            products = np.multiply(vals[:, None], a_x)
        assert np.signbit(products[products == 0.0]).any()  # both zero signs occur

    def test_one_row_adjoint_allocates_no_iteration_buffers(self):
        # a broadcast np.multiply of (50, 1) by (500,) allocates numpy's two
        # 8192-element ufunc buffers, 129,104 B in all
        rng = np.random.default_rng(5)
        n = 500
        w, p_ref = synth_demand_response_traces(1, seed=5)
        p = weighted_demand_response(
            1, p_ref, w, np.zeros(n), np.ones(n), rng.uniform(0.5, 1.5, size=n)
        )
        r = rng.normal(size=(50, 1))
        out = np.empty((50, n))
        p._adjoint(r, out=out)  # a first call may load code
        tracemalloc.start()
        try:
            p._adjoint(r, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak

    def test_constants(self, dr_problem):
        assert dr_problem.smoothness == pytest.approx(10.0)  # ||ones(10)||^2
        assert dr_problem.pl_constant == pytest.approx(1.0)
        assert dr_problem.diameter == pytest.approx(
            np.linalg.norm(np.full(5, 100.0).tolist() + np.full(5, 50.0).tolist())
        )

    def test_scalar_error_map(self, dr_problem):
        raw = np.array([2.5])
        errors = GradientErrors(dr_problem, NoiseModel())
        np.testing.assert_allclose(errors.map(raw), np.full(10, 2.5))
        assert errors.dim == 1
        assert dr_problem.error_gain == pytest.approx(math.sqrt(10.0))

    def test_trace_length_validation(self):
        w = np.zeros((3, 1))
        with pytest.raises(ValueError):
            DemandResponse(2, 0, 5, np.zeros(3), w, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def test_bounds_validation(self):
        w = np.zeros((3, 1))
        with pytest.raises(ValueError):
            DemandResponse(2, 0, 2, np.zeros(3), w, np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_trace_csv_roundtrip(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(
            "t,w_1,w_2,p_ref\n0,1.5,-2.0,10.0\n1,1.6,-2.1,11.0\n2,1.7,-2.2,12.0\n"
        )
        w, p_ref = load_demand_response_traces(path)
        np.testing.assert_allclose(w, [[1.5, -2.0], [1.6, -2.1], [1.7, -2.2]])
        np.testing.assert_allclose(p_ref, [10.0, 11.0, 12.0])

    def test_trace_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,w,p\n0,1,2\n")
        with pytest.raises(ValueError):
            load_demand_response_traces(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # once read as two loads, w = [[1, 2], [4, 5]] and p_ref = [3, 6]
            ("0,1,2,3\n1,4,5,6\n", "as wide as the header {} data row 1 does not"),
            ("0,1,2\n1,4\n", "as wide as the header {} data row 2 does not"),
            ("0,1,2\n1,x,3\n", "data row 2: could not convert string to float: 'x'"),
        ],
        ids=["wide", "short", "bad-cell"],
    )
    def test_trace_csv_rows_must_match_the_header(self, tmp_path, rows, message):
        path = tmp_path / "rows.csv"
        path.write_text("t,w_1,p_ref\n" + rows)
        with pytest.raises(ValueError) as info:
            load_demand_response_traces(path)
        rule = "and t must read 0, 1, 2, ... in order;"
        assert str(info.value).startswith(f"{path}: ") and message.format(rule) in str(info.value)

    @pytest.mark.parametrize(
        "t_column, bad_row", [((5, 2, 2), 1), ((0, 1, 1), 3), ((1, 2, 3), 1), ((0, 2, 1), 2)]
    )
    def test_trace_csv_t_must_count_from_zero(self, tmp_path, t_column, bad_row):
        path = tmp_path / "shuffled.csv"
        path.write_text("t,w_1,p_ref\n" + "".join(f"{t},1.0,2.0\n" for t in t_column))
        with pytest.raises(ValueError, match=f"in order; data row {bad_row} does not"):
            load_demand_response_traces(path)

    def test_reference_must_hold_one_value_per_step(self):
        w = np.zeros((3, 1))
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        # raveled, a (3, 2) reference would pass the length check and read b_t = [1, 2, 3]
        with pytest.raises(ValueError, match="reshape"):
            DemandResponse(2, 0, 2, np.arange(1.0, 7.0).reshape(3, 2), w, lo, hi)
        column = DemandResponse(2, 0, 2, np.arange(1.0, 4.0)[:, None], w, lo, hi)
        flat = DemandResponse(2, 0, 2, np.arange(1.0, 4.0), w, lo, hi)
        assert np.array_equal(column._b_pairs[:, 0], flat._b_pairs[:, 0])

    @pytest.mark.parametrize("given", ["bounds_lo", "bounds_hi"])
    def test_a_bound_given_alone_is_refused(self, given):
        with pytest.raises(ValueError, match="bounds_lo and bounds_hi must be given together"):
            DemandResponse(4, 0, 5, **{given: 1.0})

    @pytest.mark.parametrize("given", ["p_ref_trace", "w_trace"])
    def test_a_trace_given_alone_is_refused(self, given):
        with pytest.raises(ValueError, match="p_ref_trace and w_trace must be given together"):
            DemandResponse(4, 0, 5, **{given: np.zeros((6, 1))})

    def test_per_device_bounds_of_the_wrong_length_are_refused(self):
        with pytest.raises(ValueError, match="bounds_lo must have 1 or 4 entries, got 3"):
            DemandResponse(4, 0, 5, None, None, [-1.0, -2.0, -3.0], 10.0)
        with pytest.raises(ValueError, match="bounds_hi must have 1 or 4 entries, got 0"):
            DemandResponse(4, 0, 5, None, None, -1.0, [])

    @pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), ([-10.0], (10,)), (np.array(-10.0), 10)])
    def test_one_value_fills_the_box(self, lo, hi):
        box = DemandResponse(4, 0, 5, None, None, lo, hi).regularizer
        assert np.array_equal(box.lo, np.full(4, -10.0))
        assert np.array_equal(box.hi, np.full(4, 10.0))
        assert box.lo.dtype == box.hi.dtype == np.float64

    def test_default_build_is_the_configs_bit_for_bit(self):
        # the constructor draws its traces and lays out its box as config
        # did for it: b_t, the box, f*_t and the constants keep every bit
        n_der, seed, horizon = 7, 12, 30
        own = DemandResponse(n_der, seed, horizon)
        cfg = make_config(
            {"problem": {"n_der": n_der}},
            {"preset": "fig3-demand-response", "seed": seed, "horizon": horizon},
        )
        built = build_problem(cfg)
        assert np.array_equal(own._b_pairs[:, 0], built._b_pairs[:, 0])
        assert np.array_equal(own.regularizer.lo, built.regularizer.lo)
        assert np.array_equal(own.regularizer.hi, built.regularizer.hi)
        assert np.array_equal(own._fstar, built._fstar)
        constants = ("smoothness", "pl_constant", "diameter")
        assert [getattr(own, c) for c in constants] == [getattr(built, c) for c in constants]
        # the first ceil(n / 2) devices are storage, the rest solar
        assert own.regularizer.lo.tolist() == [-50.0] * 4 + [0.0] * 3
        assert own.regularizer.hi.tolist() == [50.0] * 7
        w, p_ref = synth_demand_response_traces(horizon, seed)
        assert np.array_equal(own._b_pairs[:, 0, 0], p_ref - w @ np.ones(4))
        other = DemandResponse(n_der, seed + 1, horizon)
        assert not np.any(other._b_pairs[:, 0] == own._b_pairs[:, 0])


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_every_family_draws_its_data_from_its_seed(kind):
    """Two builds from one (seed, horizon) agree bit for bit, and another
    seed moves the cost, at t = 0, T/2 and T."""
    horizon = 20

    def values(seed):
        cfg = make_config(
            {"problem": {"kind": kind}},
            {"solver": "opgm", "seed": seed, "horizon": horizon, "trials": 1},
        )
        problem = build_problem(cfg)
        x = np.linspace(-0.5, 0.75, problem.n)
        return np.array([problem.value(t, x) for t in (0, horizon // 2, horizon)])

    first = values(3)
    assert np.array_equal(first, values(3))
    assert np.all(values(4) != first)


def reference_sample_ball(rng, n, radius, size):
    """_sample_ball's expression form, with a fresh array at every step."""
    direction = rng.normal(size=(size, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
    return direction * radii


@pytest.mark.parametrize("lent", [(), ("out",), ("out", "scratch")])
@pytest.mark.parametrize("size,n", [(1, 2), (100, 500), (1000, 10)])
def test_sample_ball_in_place_has_the_bits_of_the_expression_form(size, n, lent):
    # the points verify_pl, _check_gradient and _check_prox draw, so every
    # sampled certificate, and DriftingLogistic's mu, keeps its bits
    expected_rng, rng = np.random.default_rng(size + n), np.random.default_rng(size + n)
    expected = reference_sample_ball(expected_rng, n, 2.5, size)
    buffers = {name: np.full((size, n), np.nan) for name in lent}
    xs = problems_mod._sample_ball(rng, n, 2.5, size, **buffers)
    assert xs.tobytes() == expected.tobytes()
    if "out" in buffers:
        assert xs is buffers["out"]
    assert rng.random() == expected_rng.random()  # both streams end at one place


class TestGradientsAndSmoothness:
    @pytest.mark.parametrize(
        "fixture",
        ["ls_problem", "logistic_problem", "lti_problem", "dr_problem"],
    )
    def test_gradient_matches_finite_differences(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        for t in (0, problem.horizon // 2):
            for _ in range(25):
                x = rng.normal(size=problem.n)
                g = problem.grad(t, x)
                fd = fd_gradient(problem, t, x)
                denom = max(np.linalg.norm(g), 1e-12)
                assert np.linalg.norm(fd - g) / denom <= 1e-6

    @pytest.mark.parametrize(
        "fixture",
        ["ls_problem", "logistic_problem", "lti_problem", "dr_problem"],
    )
    def test_gradient_lipschitz(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        rng = np.random.default_rng(14)
        t = problem.horizon // 2
        for _ in range(1000):
            x = rng.normal(size=problem.n)
            y = rng.normal(size=problem.n)
            lhs = np.linalg.norm(problem.grad(t, x) - problem.grad(t, y))
            assert lhs <= problem.smoothness * np.linalg.norm(x - y) * (1 + 1e-9) + 1e-12


class TestSlopeCertificates:
    def test_ls_certificate_at_least_declared(self, ls_problem):
        for t in (0, 30):
            mu_hat, max_violation, _ = sampled_pl(ls_problem, t, n_samples=1000, seed=6)
            assert mu_hat >= 0.1 - 1e-9
            assert max_violation <= 1e-9

    def test_pure_quadratic_certificate_is_exact(self):
        # slope mu quadratic: ||grad||^2 = 2 mu f at every point
        mu = 0.37
        p = TimeVaryingLeastSquares(3, 3, mu, mu, 0.0, 0.0, seed=2, horizon=1)
        assert verify_pl(p, 0, n_samples=200, seed=1) == pytest.approx(mu, rel=1e-9)

    def test_requires_smooth_problem(self, dr_problem):
        with pytest.raises(ValueError):
            verify_pl(dr_problem, 0, n_samples=10, seed=0)

    def test_samples_at_the_optimum_are_skipped(self):
        # degenerate cost that sits at its optimum everywhere: both sides of
        # the inequality vanish, so every sample is a 0/0 and gets skipped
        from plgrad.problems import OnlineProblem

        class Flat(OnlineProblem):
            name = "flat"
            n = 2
            horizon = 1
            smoothness = 1.0
            pl_constant = 0.5
            domain_radius = 1.0
            diameter = 2.0
            mu_exact = True

            def value(self, t, x):
                return np.full(np.shape(x)[:-1], 3.0)  # one value per row

            def grad(self, t, x, out=None):
                return np.zeros_like(x)

            def fstar(self, t):
                return 3.0

        mu_hat, max_violation, n_used = sampled_pl(Flat(), 0, n_samples=50, seed=0)
        assert n_used == 0
        assert mu_hat == math.inf  # every mu holds on no sample
        assert max_violation == 0.0
        assert _check_pl(Flat(), 0).passed

    def test_rejects_zero_samples(self, ls_problem):
        with pytest.raises(ValueError):
            verify_pl(ls_problem, 0, n_samples=0, seed=0)


class TestProxPLVerification:
    def test_exact_decrease_certifies_declared_mu(self, dr_problem):
        rng = np.random.default_rng(33)
        reg = dr_problem.regularizer
        worst = np.inf
        for t in (0, 40):
            fstar = dr_problem.fstar(t)
            for _ in range(500):
                x = reg.lo + rng.uniform(0, 1, size=10) * (reg.hi - reg.lo)
                gap = dr_problem.total_value(t, x) - fstar
                if gap <= 1e-9:
                    continue
                worst = min(worst, prox_decrease(dr_problem, t, x) / (2 * gap))
        assert worst >= dr_problem.pl_constant - 1e-9


class TestVariability:
    """run's psi_tilde_t = sigma_t + phi_tilde_t against the two-evaluation
    formulas, and the evaluate oracle it reads f_{t-1}(x_t) from."""

    def test_two_evaluation_oracle(self, ls_problem):
        model = NoiseModel("gaussian_iid", scale=0.1)
        for t in (1, 30, 60):
            # x_final of a run to t is x_t, the point of phi_tilde_t
            traj = run(ls_problem, model, seed=3, trials=range(3), horizon=t)
            x = traj.x_final
            direct_phi = np.abs(ls_problem.value(t, x) - ls_problem.value(t - 1, x))
            sigma = abs(ls_problem.fstar(t) - ls_problem.fstar(t - 1))
            assert np.array_equal(traj.psi_tilde[:, t], sigma + direct_phi)

    def test_no_previous_value_at_t_zero(self, ls_problem):
        # there is no f_{-1}; run records zero variability in column 0
        x = np.full(10, 0.3)
        f, f_prev = ls_problem.evaluate(0, x)
        assert f == ls_problem.value(0, x) and f_prev is None

    @pytest.mark.parametrize(
        "fixture", ["ls_problem", "logistic_problem", "lti_problem", "dr_problem"]
    )
    def test_evaluate_matches_value_and_grad(self, fixture, request):
        # the shared evaluation gives the separate oracles' bits, and with a
        # step's noise from GradientErrors.draw the measured gradient
        # grad + e, e the mapped raw noise; the norm draw records is the
        # error's, which demand response (a_x = ones here) forms as
        # ||a_x|| |eta|
        problem = request.getfixturevalue(fixture)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(7, problem.n))
        errors = GradientErrors(problem, NoiseModel("gaussian_iid", scale=1.0))
        raw = np.stack([sample(errors.model, errors.dim, 8, k, 2) for k in range(7)], axis=1)
        error_norm, steps = errors.draw(8, range(7), 2)
        assert error_norm.shape == (7, 3) and np.all(error_norm[:, 0] == 0.0)
        # the norms are finished when draw returns: reading steps writes none
        drawn = error_norm.copy()
        for step, (t, noise) in enumerate(zip((1, problem.horizon), steps)):
            e = errors.map(raw[step])
            g = np.full_like(xs, np.nan)
            f, f_prev = problem.evaluate(t, xs, grad_out=g)
            assert np.array_equal(f, problem.value(t, xs))
            assert np.array_equal(f_prev, problem.value(t - 1, xs))
            assert np.array_equal(g, problem.grad(t, xs))
            f, f_prev = problem.evaluate(t, xs, grad_out=g, noise=noise)
            assert np.array_equal(f, problem.value(t, xs))
            assert np.array_equal(f_prev, problem.value(t - 1, xs))
            assert np.array_equal(g, problem.grad(t, xs) + e)
            norm = error_norm[:, step + 1]
            if fixture == "dr_problem":
                assert np.array_equal(norm, problem.error_gain * np.abs(raw[step, :, 0]))
                np.testing.assert_allclose(norm, np.linalg.norm(e, axis=1), rtol=1e-15)
            else:
                assert np.array_equal(norm, np.sqrt(np.vecdot(e, e)))
        assert error_norm.tobytes() == drawn.tobytes()
        # value and grad give evaluate's bits at t = 0, where there is no
        # f_{-1}, on one 1-D point, and on demand response's compacted view
        cases = [(problem, 0, xs), (problem, 0, xs[0]), (problem, problem.horizon, xs[0])]
        found = problem.compacted(np.zeros(problem.n))
        assert (found is not None) == (fixture == "dr_problem")
        if found is not None:
            view = found[0]
            xv = rng.normal(size=(7, view.n))
            cases += [(view, t, x) for t in (0, 1, view.horizon) for x in (xv, xv[0])]
        for oracle, t, x in cases:
            g = np.full_like(x, np.nan)
            f, f_prev = oracle.evaluate(t, x, grad_out=g)
            assert np.array_equal(f, oracle.value(t, x))
            assert np.array_equal(g, oracle.grad(t, x))
            if t:
                assert np.array_equal(f_prev, oracle.value(t - 1, x))
            else:
                assert f_prev is None
        with pytest.raises(IndexError):
            problem.evaluate(problem.horizon + 1, xs)


class TestRowInvariance:
    """Batched oracles give each row exactly the bits of the 1-D call on it."""

    FIXTURES = ["ls_problem", "logistic_problem", "lti_problem", "dr_problem"]
    EACH_REGULARIZER = pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.box(np.full(6, -0.5), np.full(6, 0.8)),
        ],
        ids=["none", "box"],
    )

    @staticmethod
    def _batch(problem, rows=13, seed=5):
        rng = np.random.default_rng(seed)
        if problem.regularizer.kind == "box":
            reg = problem.regularizer
            return reg.lo + rng.uniform(size=(rows, problem.n)) * (reg.hi - reg.lo)
        return rng.normal(size=(rows, problem.n))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_oracles_match_the_1d_call(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        xs = self._batch(problem)
        t = problem.horizon // 2
        oracles = {
            "value": lambda x: problem.value(t, x),
            "grad": lambda x: problem.grad(t, x),
            "total_value": lambda x: problem.total_value(t, x),
            "prox_decrease": lambda x: prox_decrease(problem, t, x),
            "evaluate": lambda x: evaluated(problem, t, x),
        }
        for name, oracle in oracles.items():
            batch = oracle(xs)
            assert batch.shape[0] == xs.shape[0], name
            for k, x in enumerate(xs):
                assert np.array_equal(batch[k], oracle(x)), (name, k)
            # a leading sub-batch keeps its bits too
            assert np.array_equal(oracle(xs[:5]), batch[:5]), name

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_error_map_matches_the_1d_call(self, fixture, request):
        errors = GradientErrors(request.getfixturevalue(fixture), NoiseModel())
        raw = np.random.default_rng(6).normal(size=(11, errors.dim))
        batch = errors.map(raw)
        assert batch.shape == (11, errors.problem.n)
        for k in range(11):
            assert np.array_equal(batch[k], errors.map(raw[k]))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_out_forms_match_the_allocating_call(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        xs = self._batch(problem)
        t = problem.horizon // 2
        for x in (xs, xs[0]):
            expected = problem.grad(t, x)
            out = np.full(expected.shape, np.nan)
            assert problem.grad(t, x, out=out) is out
            assert np.array_equal(out, expected)

    @EACH_REGULARIZER
    def test_prox_out_forms_match_the_allocating_call(self, reg):
        xs = np.random.default_rng(8).normal(scale=0.6, size=(17, 6))
        for v in (xs, xs[0]):
            expected = reg.prox(0.3, v)
            out = np.full(v.shape, np.nan)
            assert reg.prox(0.3, v, out=out) is out
            assert np.array_equal(out, expected)
            # in place, as the prox-gradient step applies it
            inplace = v.copy()
            assert reg.prox(0.3, inplace, out=inplace) is inplace
            assert np.array_equal(inplace, expected)

    @EACH_REGULARIZER
    def test_regularizer_matches_the_1d_call(self, reg):
        xs = np.random.default_rng(7).normal(scale=0.6, size=(17, 6))
        values = reg.value(xs)
        proxes = reg.prox(0.3, xs)
        assert values.shape == (17,)
        for k, x in enumerate(xs):
            assert np.array_equal(values[k], reg.value(x))
            assert np.array_equal(proxes[k], reg.prox(0.3, x))
        if reg.kind == "box":
            assert np.isinf(values).any() and (values == 0.0).any()
