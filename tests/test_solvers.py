"""Step semantics, determinism, and the pathwise regret recursions."""

import math

import numpy as np
import pytest

from plgrad.noise import NoiseModel, sample
from plgrad.problems import DemandResponse, TimeVaryingLeastSquares, synth_demand_response_traces
from plgrad.prox import Regularizer
from plgrad.solvers import ogd_step, opgm_step, run

ZERO = NoiseModel("zero")


def quadratic_problem(mu, l, n=2, horizon=50, seed=3):
    return TimeVaryingLeastSquares(n, n, mu, l, 0.0, 0.0, seed=seed, horizon=horizon)


class TestSingleSteps:
    def test_one_step_reaches_optimum_of_pure_quadratic(self):
        # curvature equals the step's L, so one exact step minimizes
        p = quadratic_problem(0.8, 0.8, n=3)
        x = np.array([2.0, -1.0, 0.5])
        out = ogd_step(p, 0, x, 1.0 / p.smoothness, np.zeros(3))
        np.testing.assert_allclose(out, p.xstar(0), atol=1e-12)

    def test_steps_act_on_each_row(self):
        # a batch of iterates steps exactly as each row would alone
        p = quadratic_problem(0.3, 1.0, n=3)
        rng = np.random.default_rng(4)
        x, e = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        batch = ogd_step(p, 2, x, 0.7, e)
        for k in range(5):
            assert np.array_equal(batch[k], ogd_step(p, 2, x[k], 0.7, e[k]))
        # the buffer form run uses gives the same bits
        buf = np.full_like(x, np.nan)
        assert ogd_step(p, 2, x, 0.7, e, out=buf) is buf
        assert np.array_equal(buf, batch)

    def test_scalar_mode_contracts_at_squared_rate(self):
        # start along the flattest eigenvector: per-step regret ratio is
        # exactly (1 - mu/L)^2
        p = quadratic_problem(0.25, 1.0, n=2, horizon=30)
        eigvals, eigvecs = np.linalg.eigh(p.matrix.T @ p.matrix)
        x0 = p.xstar(0) + eigvecs[:, 0]
        traj = run(p, "ogd", ZERO, horizon=30, x0=x0, seed=0)
        ratios = traj.regret[0, 1:25] / traj.regret[0, :24]
        np.testing.assert_allclose(ratios, (1 - 0.25) ** 2, rtol=1e-9)

    def test_constant_error_shifts_the_fixed_point(self):
        # biased noise: iterates settle at xstar - (A^T A)^{-1} e
        p = quadratic_problem(0.5, 1.0, n=2, horizon=300)
        bias = 0.05
        model = NoiseModel("zero", bias=bias)
        traj = run(p, "ogd", model, horizon=300, x0=np.zeros(2), seed=0)
        m = p.matrix.T @ p.matrix
        expected = p.xstar(0) - np.linalg.solve(m, np.full(2, bias))
        np.testing.assert_allclose(traj.x_final[0], expected, atol=1e-10)

    def test_ogd_rejects_regularized_problem(self):
        p = quadratic_problem(0.5, 1.0)
        p.regularizer = Regularizer.l1(0.1)
        with pytest.raises(ValueError):
            ogd_step(p, 0, np.zeros(2), 1.0, np.zeros(2))

    def test_opgm_requires_prox_handle(self):
        p = quadratic_problem(0.5, 1.0)
        with pytest.raises(ValueError):
            opgm_step(p, 0, np.zeros(2), 1.0, np.zeros(2))

    def test_opgm_clamps_to_box(self):
        w, p_ref = synth_demand_response_traces(5, seed=2)
        p = DemandResponse(
            2, 2, 5, p_ref, w, np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        )
        x = np.array([[0.9, -0.9], [-0.9, 0.9]])
        e = np.full((2, 2), 5.0)
        out = opgm_step(p, 0, x, 1.0 / p.smoothness, e)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
        buf = np.full_like(x, np.nan)
        assert opgm_step(p, 0, x, 1.0 / p.smoothness, e, out=buf) is buf
        assert np.array_equal(buf, out)


class TestRun:
    def test_horizon_zero_records_only_r0(self):
        p = quadratic_problem(0.5, 1.0)
        traj = run(p, "ogd", ZERO, horizon=0, x0=np.array([0.2, -0.4]), seed=0)
        assert len(traj) == 1
        assert traj.regret[0, 0] > 0

    def test_identical_keys_reproduce_bitwise(self):
        p = TimeVaryingLeastSquares(4, 8, 0.1, 1.0, 0.1, 0.01, seed=5, horizon=40)
        model = NoiseModel("gaussian_iid", scale=0.05)
        a = run(p, "ogd", model, seed=9, trials=[3])
        b = run(p, "ogd", model, seed=9, trials=[3])
        assert np.array_equal(a.regret, b.regret)
        assert np.array_equal(a.x_final, b.x_final)
        c = run(p, "ogd", model, seed=9, trials=[4])
        assert not np.array_equal(a.regret, c.regret)

    def test_static_noiseless_regret_nonincreasing(self):
        p = quadratic_problem(0.1, 1.0, n=5, horizon=100, seed=8)
        traj = run(p, "ogd", ZERO, x0=np.zeros(5), seed=0)
        diffs = np.diff(traj.regret[0])
        assert np.all(diffs <= 1e-15)

    def test_static_noiseless_contraction_factor(self):
        p = quadratic_problem(0.1, 1.0, n=5, horizon=100, seed=8)
        zeta = 1 - 0.1 / 1.0
        traj = run(p, "ogd", ZERO, x0=np.zeros(5), seed=0)
        r = traj.regret[0]
        mask = r[:-1] > 1e-12
        assert np.all(r[1:][mask] <= zeta * r[:-1][mask] + 1e-9)

    def test_trajectory_shape_and_t0_row(self):
        p = quadratic_problem(0.5, 1.0, horizon=20)
        traj = run(p, "ogd", ZERO, seed=0)
        assert len(traj) == 21
        assert traj.regret.shape == (1, 21)
        assert traj.error_norm[0, 0] == 0.0
        assert traj.sigma[0, 0] == 0.0 and traj.phi_tilde[0, 0] == 0.0

    def test_opgm_with_none_regularizer_equals_ogd(self):
        p1 = TimeVaryingLeastSquares(3, 6, 0.2, 1.0, 0.05, 0.01, seed=12, horizon=30)
        p2 = TimeVaryingLeastSquares(3, 6, 0.2, 1.0, 0.05, 0.01, seed=12, horizon=30)
        p2.regularizer = Regularizer.none()
        model = NoiseModel("gaussian_iid", scale=0.1)
        a = run(p1, "ogd", model, seed=4, trials=[1])
        b = run(p2, "opgm", model, seed=4, trials=[1])
        assert np.array_equal(a.regret, b.regret)
        assert np.array_equal(a.x_final, b.x_final)

    def test_l1_iterates_reach_grid_argmin_of_composite(self):
        # 1-D static quadratic + l1, no noise: the prox-gradient fixed point
        # is the composite minimizer, cross-checked on a dense grid
        p = TimeVaryingLeastSquares(1, 1, 0.5, 0.5, 0.0, 0.0, seed=6, horizon=400)
        lam = 0.2
        p.regularizer = Regularizer.l1(lam)
        traj = run(p, "opgm", ZERO, x0=np.array([3.0]), seed=0)
        grid = np.linspace(-5.0, 5.0, 2000001)
        composite = p.value(0, grid[:, None]) + lam * np.abs(grid)
        x_grid = grid[np.argmin(composite)]
        assert traj.x_final[0, 0] == pytest.approx(x_grid, abs=1e-5)

    def test_domain_monitor_flags_excursions(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        x0 = np.zeros(2)
        # huge constant bias drives the iterate far outside the ball
        model = NoiseModel("zero", bias=1e4)
        traj = run(p, "ogd", model, seed=0, x0=x0)
        assert traj.domain_excursions[0] > 0

    def test_max_step_norm_recorded(self):
        p = quadratic_problem(0.5, 1.0, horizon=10)
        traj = run(p, "ogd", ZERO, x0=np.array([2.0, 2.0]), seed=0)
        assert traj.max_step_norm[0] > 0

    def test_step_override_flags_outside_theory(self):
        p = quadratic_problem(0.5, 1.0, horizon=10)
        traj = run(p, "ogd", ZERO, seed=0, x0=np.ones(2), step_override=0.5)
        assert traj.outside_theory and traj.step == 0.5
        default = run(p, "ogd", ZERO, seed=0, x0=np.ones(2))
        assert not default.outside_theory and default.step == 1.0 / p.smoothness

    def test_l1_term_flags_outside_theory(self):
        # fstar ignores the l1 term, so a positive weight leaves the theory
        for weight, flagged in ((0.3, True), (0.0, False)):
            p = quadratic_problem(0.5, 1.0, horizon=3)
            p.regularizer = Regularizer.l1(weight)
            traj = run(p, "opgm", ZERO, seed=0, x0=np.ones(2))
            assert traj.outside_theory is flagged

    def test_inconsistent_fstar_oracle_rejected(self):
        # an optimal-value oracle above the true optimum drives the regret
        # below -1e-6 and must abort
        from plgrad.problems import OnlineProblem

        class BadOracle(OnlineProblem):
            name = "bad"
            n = 1
            horizon = 3
            smoothness = 1.0
            pl_constant = 1.0
            domain_radius = 10.0
            diameter = 20.0
            regularizer = None
            fstar_exact = True
            mu_exact = True

            def value(self, t, x):
                return 0.5 * x[..., 0] ** 2

            def grad(self, t, x, out=None):
                return np.positive(x, out=out)

            def fstar(self, t):
                return 1.0  # true optimum is 0

        with pytest.raises(RuntimeError, match="inconsistent"):
            run(BadOracle(), "ogd", ZERO, x0=np.array([0.5]), seed=0)

    def test_nan_aborts_with_diagnostic(self):
        p = quadratic_problem(0.5, 1.0, horizon=10)
        model = NoiseModel("gaussian_iid", scale=1e200)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError):
            run(p, "ogd", model, seed=0, x0=np.zeros(2))

    def test_x0_validation(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        with pytest.raises(ValueError):
            run(p, "ogd", ZERO, x0=np.full(2, 1e6), seed=0)  # outside the ball
        with pytest.raises(ValueError):
            run(p, "ogd", ZERO, x0=np.zeros(3), seed=0)  # wrong shape

    def test_infeasible_x0_for_box(self):
        w, p_ref = synth_demand_response_traces(5, seed=2)
        p = DemandResponse(
            2, 2, 5, p_ref, w, np.array([0.5, 0.5]), np.array([1.0, 1.0])
        )
        with pytest.raises(ValueError):
            run(p, "opgm", ZERO, x0=np.zeros(2), seed=0)

    def test_horizon_beyond_built_range(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        with pytest.raises(ValueError):
            run(p, "ogd", ZERO, horizon=6, seed=0)

    def test_solver_dispatch_validation(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        with pytest.raises(ValueError):
            run(p, "sgd", ZERO, seed=0)
        with pytest.raises(ValueError):
            run(p, "opgm", ZERO, seed=0)  # no prox handle


class TestPathwiseRecursions:
    def test_ogd_recursion_on_noisy_drifting_run(self):
        p = TimeVaryingLeastSquares(
            6, 12, 0.1, 1.0, math.sqrt(0.1), math.sqrt(1e-3), seed=10, horizon=120
        )
        model = NoiseModel("gaussian_iid", scale=math.sqrt(1e-3))
        zeta = 0.9
        for trial in range(5):
            traj = run(p, "ogd", model, seed=17, trials=[trial])
            r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
            lhs = r[1:]
            rhs = zeta * r[:-1] + e[1:] ** 2 / (2 * p.smoothness) + psi[1:]
            assert np.all(lhs <= rhs + 1e-9)

    def test_ogd_recursion_on_logistic_with_sampled_mu(self):
        # inner-solver optimal values widen the tolerance to 1e-6
        from plgrad.problems import DriftingLogistic

        p = DriftingLogistic(4, 20, seed=19, horizon=30, drift_std=0.01)
        model = NoiseModel("gaussian_iid", scale=0.05)
        zeta = 1 - p.pl_constant / p.smoothness
        traj = run(p, "ogd", model, seed=31, trials=[0])
        r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
        assert np.all(r[1:] <= zeta * r[:-1] + e[1:] ** 2 / (2 * p.smoothness) + psi[1:] + 1e-6)

    def test_opgm_recursion_on_noisy_box_run(self):
        w, p_ref = synth_demand_response_traces(150, seed=13)
        lo = np.concatenate([np.full(4, -50.0), np.zeros(4)])
        hi = np.full(8, 50.0)
        p = DemandResponse(8, 13, 150, p_ref, w, lo, hi)
        model = NoiseModel("gaussian_iid", scale=10.0)
        zeta = 1 - p.pl_constant / p.smoothness
        for trial in range(5):
            traj = run(p, "opgm", model, seed=23, trials=[trial])
            r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
            lhs = r[1:]
            rhs = zeta * r[:-1] + 2 * p.diameter * e[1:] + psi[1:]
            assert np.all(lhs <= rhs + 1e-9)


def _families():
    """One small instance of each problem family with the solver it runs."""
    from plgrad.problems import DriftingLogistic, LtiTracking

    w, p_ref = synth_demand_response_traces(40, seed=13)
    lo = np.concatenate([np.full(3, -50.0), np.zeros(3)])
    return {
        "ls": (
            TimeVaryingLeastSquares(4, 8, 0.1, 1.0, 0.1, 0.01, seed=5, horizon=40),
            "ogd",
            NoiseModel("gaussian_iid", scale=0.05),
        ),
        "logistic": (
            DriftingLogistic(3, 12, seed=19, horizon=15, drift_std=0.01),
            "ogd",
            NoiseModel("weibull_tail", scale=0.05, weibull_shape=1.5),
        ),
        "lti": (
            LtiTracking(3, 5, seed=2, horizon=40),
            "ogd",
            NoiseModel("bounded_uniform", scale=0.1),
        ),
        "dr": (
            DemandResponse(6, 13, 40, p_ref, w, lo, np.full(6, 50.0)),
            "opgm",
            NoiseModel("gaussian_iid", scale=10.0),
        ),
    }


FAMILY_NAMES = ("dr", "logistic", "ls", "lti")
PER_TRIAL = ("regret", "error_norm", "psi_tilde", "x_final", "min_raw_regret")


class TestBatchedKernel:
    @pytest.fixture(scope="class")
    def families(self):
        return _families()

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_chunks_reproduce_the_full_batch(self, families, family):
        problem, solver, model = families[family]
        full = run(problem, solver, model, seed=3, trials=range(25))
        head = run(problem, solver, model, seed=3, trials=range(7))
        tail = run(problem, solver, model, seed=3, trials=range(7, 25))
        for name in PER_TRIAL + ("domain_excursions", "max_step_norm"):
            joined = np.concatenate([getattr(head, name), getattr(tail, name)])
            assert np.array_equal(joined, getattr(full, name)), name
        assert full.trials == tuple(range(25))

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_a_per_trial_reference_loop(self, families, family):
        problem, solver, model = families[family]
        trials = (4, 0, 9)
        x0 = np.zeros(problem.n)
        batch = run(problem, solver, model, seed=8, trials=trials)
        step = 1.0 / problem.smoothness
        for row, trial in enumerate(trials):
            raw = sample(model, problem.error_dim, 8, trial, problem.horizon)
            x = x0.copy()
            regret = [problem.total_value(0, x) - problem.fstar(0)]
            err, psi = [0.0], [0.0]
            for t in range(problem.horizon):
                e = problem.map_error(raw[t])
                x = x - step * (problem.grad(t, x) + e)
                if solver == "opgm":
                    x = problem.regularizer.prox(step, x)
                regret.append(problem.total_value(t + 1, x) - problem.fstar(t + 1))
                err.append(np.linalg.norm(e))
                psi.append(
                    abs(problem.fstar(t + 1) - problem.fstar(t))
                    + abs(problem.value(t + 1, x) - problem.value(t, x))
                )
            regret = np.maximum(regret, 0.0)
            np.testing.assert_allclose(batch.regret[row], regret, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(batch.psi_tilde[row], psi, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(batch.error_norm[row], err, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(batch.x_final[row], x, rtol=1e-12, atol=0.0)
