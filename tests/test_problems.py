"""Problem-suite tests: constants, oracles, certificates, variability."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from plgrad.noise import NoiseModel, sample
from plgrad.problems import (
    DemandResponse,
    DriftingLogistic,
    LtiTracking,
    TimeVaryingLeastSquares,
    load_demand_response_traces,
    prox_decrease,
    synth_demand_response_traces,
    variability,
    verify_pl,
    verify_prox_pl,
)
from plgrad.prox import Regularizer
from plgrad.subweibull import fit_from_samples


def fd_gradient(problem, t, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[i] = h * max(1.0, abs(x[i]))
        g[i] = (problem.value(t, x + dx) - problem.value(t, x - dx)) / (2 * dx[i])
    return g


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

    def test_alternate_spacing_squares_the_grid(self):
        p = TimeVaryingLeastSquares(
            4, 6, 0.1, 1.0, 0.0, 0.0, seed=1, horizon=2, spacing="singular_values"
        )
        eigs = np.sort(np.linalg.eigvalsh(p.matrix.T @ p.matrix))
        np.testing.assert_allclose(eigs, np.linspace(0.1, 1.0, 4) ** 2, atol=1e-12)

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
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        for t in range(1, 61):
            assert variability(static_ls, t, x) == (0.0, 0.0)

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

    def test_inner_solve_reaches_stationarity(self, logistic_problem):
        for t in (0, 6, 12):
            g = logistic_problem.grad(t, logistic_problem.xstar(t))
            assert np.linalg.norm(g) <= 1e-10

    def test_declared_mu_is_conservative(self, logistic_problem):
        rep = verify_pl(logistic_problem, 5, n_samples=500, seed=2)
        assert rep.mu_hat >= logistic_problem.pl_constant - 1e-9
        assert rep.max_violation <= 1e-9

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            DriftingLogistic(5, 5, seed=0, horizon=1, drift_std=0.0)


class TestLtiTracking:
    def test_constants_are_extreme_eigenvalues(self, lti_problem):
        eigs = np.linalg.eigvalsh(lti_problem.matrix.T @ lti_problem.matrix)
        assert lti_problem.pl_constant == pytest.approx(eigs[0], rel=1e-12)
        assert lti_problem.smoothness == pytest.approx(eigs[-1], rel=1e-12)
        assert lti_problem.pl_constant > 0

    def test_measured_grad_with_zero_noise_is_exact(self, lti_problem):
        rng = np.random.default_rng(8)
        for t in (0, 20, 40):
            x = rng.normal(size=6)
            v = lti_problem.measured_grad(t, x, np.zeros(9))
            np.testing.assert_allclose(v, lti_problem.grad(t, x), atol=1e-12)

    def test_measurement_noise_maps_through_output_matrix(self, lti_problem):
        rng = np.random.default_rng(9)
        x = rng.normal(size=6)
        eta = rng.normal(size=9)
        v = lti_problem.measured_grad(5, x, eta)
        np.testing.assert_allclose(
            v - lti_problem.grad(5, x), lti_problem.matrix.T @ eta, atol=1e-12
        )

    def test_error_envelope_dominates_fit(self, lti_problem):
        # ||G^T eta|| <= smax(G) ||eta||: the scaled envelope must cover a
        # fitted one, and stays below the crude smax * s * sqrt(m) cap
        s = 0.3
        model = NoiseModel("gaussian_iid", scale=s)
        env = lti_problem.error_envelope(model)
        norms = np.linalg.norm(lti_problem.map_error(sample(model, 9, 0, 0, 20000)), axis=1)
        fitted = fit_from_samples(norms, theta=0.5)
        assert fitted.k <= env.k * 1.05
        assert env.k <= lti_problem.error_gain * s * math.sqrt(9) + 1e-12


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
        # 0.5 s^2 with s = a^T x + c_t, c_t = a_w^T w_t - p_ref_t
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
        p = DemandResponse(n, 0, horizon, p_ref, w, lo, hi, a_x=a_x, a_w=a_w)
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
                assert np.array_equal(p.map_error(r), expected)
                out = np.full(expected.shape, np.nan)
                assert p.map_error(r, out=out) is out
                assert np.array_equal(out, expected)
            assert p.xstar(t) is None
        for t in range(horizon + 1):
            target = -c[t]
            reachable = min(max(target, s_min), s_max)
            assert p.fstar(t) == 0.5 * (reachable - target) ** 2
        assert p.fstar(0) > 0.0

    def test_constants(self, dr_problem):
        assert dr_problem.smoothness == pytest.approx(10.0)  # ||ones(10)||^2
        assert dr_problem.pl_constant == pytest.approx(1.0)
        assert dr_problem.diameter == pytest.approx(
            np.linalg.norm(np.full(5, 100.0).tolist() + np.full(5, 50.0).tolist())
        )

    def test_scalar_error_map(self, dr_problem):
        raw = np.array([2.5])
        np.testing.assert_allclose(dr_problem.map_error(raw), np.full(10, 2.5))
        assert dr_problem.error_dim == 1
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
            rep = verify_pl(ls_problem, t, n_samples=1000, seed=6)
            assert rep.mu_hat >= 0.1 - 1e-9
            assert rep.max_violation <= 1e-9

    def test_pure_quadratic_certificate_is_exact(self):
        # slope mu quadratic: ||grad||^2 = 2 mu f at every point
        mu = 0.37
        p = TimeVaryingLeastSquares(3, 3, mu, mu, 0.0, 0.0, seed=2, horizon=1)
        rep = verify_pl(p, 0, n_samples=200, seed=1)
        assert rep.mu_hat == pytest.approx(mu, rel=1e-9)

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
            regularizer = None
            fstar_exact = True
            mu_exact = True

            def value(self, t, x):
                return 3.0

            def grad(self, t, x):
                return np.zeros(2)

            def fstar(self, t):
                return 3.0

        rep = verify_pl(Flat(), 0, n_samples=50, seed=0)
        assert rep.n_used == 0 and rep.n_skipped == 50
        assert rep.mu_hat == rep.declared_mu
        assert rep.max_violation == 0.0

    def test_rejects_zero_samples(self, ls_problem):
        with pytest.raises(ValueError):
            verify_pl(ls_problem, 0, n_samples=0, seed=0)


class TestProxPLVerification:
    def test_reduces_to_gradient_form_without_regularizer(self):
        p = TimeVaryingLeastSquares(2, 3, 0.2, 1.0, 0.0, 0.0, seed=9, horizon=1)
        x = np.array([0.7, -0.4])
        rep = verify_prox_pl(p, 0, x, grid_resolution=301)
        g = p.grad(0, x)
        assert rep.rhs_exact == pytest.approx(float(g @ g), rel=1e-12)
        assert rep.rhs_grid == pytest.approx(float(g @ g), rel=1e-3)
        step_target = x - g / p.smoothness
        np.testing.assert_allclose(rep.grid_minimizer, step_target, atol=2e-2)

    def test_both_sides_vanish_at_optimum(self):
        p = TimeVaryingLeastSquares(2, 2, 0.5, 1.0, 0.0, 0.0, seed=9, horizon=1)
        rep = verify_prox_pl(p, 0, p.xstar(0), grid_resolution=101)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.rhs_exact) <= 1e-12

    def test_box_quadratic_inequality_on_random_points(self):
        w = np.zeros((2, 1))
        p = DemandResponse(
            1, 0, 1, np.array([3.0, 3.0]), w, np.array([-1.0]), np.array([1.0])
        )
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=1)
            rep = verify_prox_pl(p, 0, x, grid_resolution=4001)
            assert rep.rhs_grid >= rep.lhs - 1e-6
            assert rep.rhs_exact == pytest.approx(rep.rhs_grid, abs=1e-5)

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

    def test_dimension_cap(self, dr_problem):
        with pytest.raises(ValueError):
            verify_prox_pl(dr_problem, 0, np.zeros(10), grid_resolution=11)


class TestVariability:
    def test_two_evaluation_oracle(self, ls_problem):
        x = np.full(10, 0.3)
        for t in (1, 30, 60):
            sigma, phi_tilde = variability(ls_problem, t, x)
            direct_phi = abs(ls_problem.value(t, x) - ls_problem.value(t - 1, x))
            direct_sigma = abs(ls_problem.fstar(t) - ls_problem.fstar(t - 1))
            assert phi_tilde == pytest.approx(direct_phi, rel=1e-12)
            assert sigma == pytest.approx(direct_sigma, rel=1e-12)

    def test_rejects_t_zero(self, ls_problem):
        with pytest.raises(ValueError):
            variability(ls_problem, 0, np.zeros(10))


@pytest.fixture(scope="module")
def l1_ls_problem():
    p = TimeVaryingLeastSquares(4, 7, 0.2, 1.0, 0.1, 0.01, seed=8, horizon=6)
    p.regularizer = Regularizer.l1(0.3)
    return p


class TestRowInvariance:
    """Batched oracles give each row exactly the bits of the 1-D call on it."""

    FIXTURES = ["ls_problem", "l1_ls_problem", "logistic_problem", "lti_problem", "dr_problem"]
    EACH_REGULARIZER = pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.l1(0.4),
            Regularizer.box(np.full(6, -0.5), np.full(6, 0.8)),
        ],
        ids=["none", "l1", "box"],
    )

    @staticmethod
    def _batch(problem, rows=13, seed=5):
        rng = np.random.default_rng(seed)
        if problem.regularizer is not None and problem.regularizer.kind == "box":
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
            "phi_tilde": lambda x: variability(problem, t, x)[1],
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
        problem = request.getfixturevalue(fixture)
        raw = np.random.default_rng(6).normal(size=(11, problem.error_dim))
        batch = problem.map_error(raw)
        assert batch.shape == (11, problem.n)
        for k in range(11):
            assert np.array_equal(batch[k], problem.map_error(raw[k]))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_out_forms_match_the_allocating_call(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        xs = self._batch(problem)
        raw = np.random.default_rng(6).normal(size=(11, problem.error_dim))
        t = problem.horizon // 2
        calls = {
            "grad": lambda x, out=None: problem.grad(t, x, out=out),
            "map_error": lambda x, out=None: problem.map_error(x, out=out),
        }
        for name, arg in (("grad", xs), ("map_error", raw)):
            for a in (arg, arg[0]):
                expected = calls[name](a)
                out = np.full(expected.shape, np.nan)
                assert calls[name](a, out=out) is out, name
                assert np.array_equal(out, expected), name

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
