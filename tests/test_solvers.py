"""Step semantics, determinism, and the pathwise regret recursions."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from plgrad import noise as noise_mod
from plgrad import problems as problems_mod
from plgrad import solvers as solvers_mod
from plgrad.config import build_noise, build_problem, initial_point, make_config
from plgrad.harness import run_experiment
from plgrad.noise import GradientErrors, NoiseModel, sample
from plgrad.problems import (
    DemandResponse,
    OnlineProblem,
    QuadraticTracking,
    TimeVaryingLeastSquares,
    synth_demand_response_traces,
)
from plgrad.prox import Regularizer
from plgrad.solvers import _row_norm, prox_gradient_step, run
from test_checks import OracleSpy
from test_problems import weighted_demand_response

ZERO = NoiseModel()


def quadratic_problem(mu, l, n=2, horizon=50, seed=3):
    return TimeVaryingLeastSquares(n, n, mu, l, 0.0, 0.0, seed=seed, horizon=horizon)


class TestSingleSteps:
    def test_one_step_reaches_optimum_of_pure_quadratic(self):
        # curvature equals the step's L, so one exact step minimizes
        p = quadratic_problem(0.8, 0.8, n=3)
        x = np.array([2.0, -1.0, 0.5])
        out = prox_gradient_step(p, 0, x, 1.0 / p.smoothness, np.zeros(3))
        np.testing.assert_allclose(out, p.xstar(0), atol=1e-12)

    def test_steps_act_on_each_row(self):
        # a batch of iterates steps exactly as each row would alone
        p = quadratic_problem(0.3, 1.0, n=3)
        rng = np.random.default_rng(4)
        x, e = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        batch = prox_gradient_step(p, 2, x, 0.7, e)
        for k in range(5):
            assert np.array_equal(batch[k], prox_gradient_step(p, 2, x[k], 0.7, e[k]))

    def test_scalar_mode_contracts_at_squared_rate(self):
        # start along the flattest eigenvector: per-step regret ratio is
        # exactly (1 - mu/L)^2
        p = quadratic_problem(0.25, 1.0, n=2, horizon=30)
        eigvals, eigvecs = np.linalg.eigh(p.matrix.T @ p.matrix)
        x0 = p.xstar(0) + eigvecs[:, 0]
        traj = run(p, ZERO, horizon=30, x0=x0, seed=0)
        ratios = traj.regret[0, 1:25] / traj.regret[0, :24]
        np.testing.assert_allclose(ratios, (1 - 0.25) ** 2, rtol=1e-9)

    def test_constant_error_shifts_the_fixed_point(self):
        # biased noise: iterates settle at xstar - (A^T A)^{-1} e
        p = quadratic_problem(0.5, 1.0, n=2, horizon=300)
        bias = 0.05
        model = NoiseModel(bias=bias)
        traj = run(p, model, horizon=300, x0=np.zeros(2), seed=0)
        m = p.matrix.T @ p.matrix
        expected = p.xstar(0) - np.linalg.solve(m, np.full(2, bias))
        np.testing.assert_allclose(traj.x_final[0], expected, atol=1e-10)

    def test_opgm_clamps_to_box(self):
        w, p_ref = synth_demand_response_traces(5, seed=2)
        p = DemandResponse(
            2, 2, 5, p_ref, w, np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        )
        x = np.array([[0.9, -0.9], [-0.9, 0.9]])
        e = np.full((2, 2), 5.0)
        out = prox_gradient_step(p, 0, x, 1.0 / p.smoothness, e)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class SpikedGradient(OnlineProblem):
    """A flat cost whose gradient is `spike` on one row at step t and 0
    elsewhere: every value and optimal value is 0 whatever the iterates."""

    name = "spiked"
    n = 2
    horizon = 5
    smoothness = 1.0
    pl_constant = 1.0
    domain_radius = 10.0
    diameter = 20.0
    mu_exact = True

    def __init__(self, spike, t, row):
        self.spike, self.t, self.row = spike, t, row

    def value(self, t, x):
        return np.zeros(np.shape(x)[:-1])[()]

    def grad(self, t, x, out=None):
        g = np.multiply(x, 0.0, out=out)
        if t == self.t:
            g[self.row] = self.spike
        return g

    def fstar(self, t):
        return 0.0


class ScriptedValues(SpikedGradient):
    """SpikedGradient whose value is scale * values[(t, row)] on the scripted
    rows and 0 elsewhere; the iterates stay at 0 except on the spiked row."""

    def __init__(self, values, spike=np.nan, t=-1, row=0, scale=1.0):
        super().__init__(spike, t, row)
        self.values, self.scale = values, scale

    def value(self, t, x):
        f = np.zeros(np.shape(x)[:-1])
        for (vt, row), v in self.values.items():
            if vt == t:
                f[row] = v
        return f * self.scale


class TestRun:
    def test_horizon_zero_records_only_r0(self):
        p = quadratic_problem(0.5, 1.0)
        traj = run(p, ZERO, horizon=0, x0=np.array([0.2, -0.4]), seed=0)
        assert len(traj) == 1
        assert traj.regret[0, 0] > 0

    def test_identical_keys_reproduce_bitwise(self):
        p = TimeVaryingLeastSquares(4, 8, 0.1, 1.0, 0.1, 0.01, seed=5, horizon=40)
        model = NoiseModel("gaussian_iid", scale=0.05)
        a = run(p, model, seed=9, trials=[3])
        b = run(p, model, seed=9, trials=[3])
        assert np.array_equal(a.regret, b.regret)
        assert np.array_equal(a.x_final, b.x_final)
        c = run(p, model, seed=9, trials=[4])
        assert not np.array_equal(a.regret, c.regret)

    def test_static_noiseless_regret_nonincreasing(self):
        p = quadratic_problem(0.1, 1.0, n=5, horizon=100, seed=8)
        traj = run(p, ZERO, x0=np.zeros(5), seed=0)
        diffs = np.diff(traj.regret[0])
        assert np.all(diffs <= 1e-15)

    def test_static_noiseless_contraction_factor(self):
        p = quadratic_problem(0.1, 1.0, n=5, horizon=100, seed=8)
        zeta = 1 - 0.1 / 1.0
        traj = run(p, ZERO, x0=np.zeros(5), seed=0)
        r = traj.regret[0]
        mask = r[:-1] > 1e-12
        assert np.all(r[1:][mask] <= zeta * r[:-1][mask] + 1e-9)

    def test_trajectory_shape_and_t0_row(self):
        p = quadratic_problem(0.5, 1.0, horizon=20)
        traj = run(p, ZERO, seed=0)
        assert len(traj) == 21
        assert traj.regret.shape == (1, 21)
        assert traj.error_norm[0, 0] == 0.0
        assert traj.psi_tilde.shape == (1, 21) and traj.psi_tilde[0, 0] == 0.0

    def test_opgm_with_none_regularizer_equals_ogd(self):
        # the solver name picks only the certificate: on a smooth family
        # both names run one trajectory, and the error cost's power picks
        # the measured moment, E||e||^2 or E||e||
        reports = {
            solver: run_experiment(
                make_config(
                    {"experiment": {"solver": solver, "horizon": 30, "trials": 3}},
                    {"preset": "fig1-ls"},
                )
            )
            for solver in ("ogd", "opgm")
        }
        ogd, opgm = reports["ogd"].trajectory, reports["opgm"].trajectory
        for name in ("regret", "error_norm", "psi_tilde", "x_final"):
            assert np.array_equal(getattr(ogd, name), getattr(opgm, name)), name
        for solver, power in (("ogd", 2), ("opgm", 1)):
            moment = (ogd.error_norm[:, 1:] ** power).mean(axis=0)
            assert np.array_equal(reports[solver].mean_err_moment, moment)
        assert not np.array_equal(
            reports["ogd"].configured("expectation")[0].series,
            reports["opgm"].configured("expectation")[0].series,
        )

    def test_domain_monitor_flags_excursions(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        x0 = np.zeros(2)
        # huge constant bias drives the iterate far outside the ball
        model = NoiseModel(bias=1e4)
        traj = run(p, model, seed=0, x0=x0)
        assert traj.domain_excursions[0] > 0
        # the constants hold on the domain ball only
        assert traj.outside_theory
        assert f"in {traj.domain_excursions[0]} trial-steps" in traj.theory_exceptions[-1]

    def test_step_override_flags_outside_theory(self):
        p = quadratic_problem(0.5, 1.0, horizon=10)
        traj = run(p, ZERO, seed=0, x0=np.ones(2), step_override=0.5)
        assert traj.theory_exceptions == ["step_override = 0.5"]
        default = run(p, ZERO, seed=0, x0=np.ones(2))
        assert not default.outside_theory
        # the default step is 1/L
        at_1_over_l = run(p, ZERO, seed=0, x0=np.ones(2), step_override=1.0 / p.smoothness)
        assert np.array_equal(at_1_over_l.x_final, default.x_final)

    def test_l1_regularizer_rejected(self):
        # run records F_t - fstar with g_t(x_t) = 0, so it needs no refusal
        # of its own: a problem cannot hold an l1 term, which no fstar includes
        with pytest.raises(ValueError, match="unknown regularizer kind"):
            Regularizer("l1")

    def test_inconsistent_fstar_oracle_rejected(self):
        # an optimal-value oracle above the true optimum drives the regret
        # below -1e-6 and must abort
        class BadOracle(OnlineProblem):
            name = "bad"
            n = 1
            horizon = 3
            smoothness = 1.0
            pl_constant = 1.0
            domain_radius = 10.0
            diameter = 20.0
            mu_exact = True

            def value(self, t, x):
                return 0.5 * x[..., 0] ** 2

            def grad(self, t, x, out=None):
                return np.positive(x, out=out)

            def fstar(self, t):
                return 1.0  # true optimum is 0

        with pytest.raises(RuntimeError, match="inconsistent"):
            run(BadOracle(), ZERO, x0=np.array([0.5]), seed=0)

    def test_nan_aborts_with_diagnostic(self):
        p = quadratic_problem(0.5, 1.0, horizon=10)
        model = NoiseModel("gaussian_iid", scale=1e200)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError):
            run(p, model, seed=0, x0=np.zeros(2))

    @pytest.mark.parametrize("spike", [np.inf, np.nan])
    def test_non_finite_row_names_its_trial_and_step(self, spike):
        # the values stay finite, so only the iterate check can see the row
        with pytest.raises(RuntimeError, match=r"non-finite iterate at t=3 \(seed=4, trial=5\)"):
            run(SpikedGradient(spike, t=2, row=1), ZERO, seed=4, trials=(3, 5, 7))

    def test_overflowing_value_names_its_trial_and_step(self):
        # 1e200 * 1e200 overflows on row 1 at t=3; every iterate stays finite
        problem = ScriptedValues({(3, 1): 1e200}, scale=1e200)
        with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=r"^non-finite regret at t=3 \(seed=4, trial=5\)$"
        ):
            run(problem, ZERO, seed=4, trials=(3, 5, 7))

    def test_inconsistent_fstar_names_its_value_trial_and_step(self):
        problem = ScriptedValues({(2, 2): -1.0})
        message = (
            "regret -1.000e+00 below -1e-09 at t=2 (trial=7): inconsistent optimal-value oracle"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run(problem, ZERO, seed=4, trials=(3, 5, 7))

    @pytest.mark.parametrize(
        "values, spike_t, message",
        [
            # a regret failure two steps before a non-finite iterate
            ({(2, 0): np.inf}, 3, "non-finite regret at t=2 (seed=4, trial=3)"),
            ({(1, 2): -1.0}, 2, "regret -1.000e+00 below -1e-09 at t=1 (trial=7)"),
            # a non-finite iterate two steps before a regret failure
            ({(4, 0): np.inf}, 1, "non-finite iterate at t=2 (seed=4, trial=5)"),
            # at the same t the iterate check comes first
            ({(3, 0): np.inf}, 2, "non-finite iterate at t=3 (seed=4, trial=5)"),
            ({(3, 0): -1.0}, 2, "non-finite iterate at t=3 (seed=4, trial=5)"),
            # at the same t a non-finite regret comes before a low one
            ({(2, 2): -1.0, (2, 1): np.nan}, -1, "non-finite regret at t=2 (seed=4, trial=5)"),
        ],
        ids=["regret", "low-regret", "iterate", "iterate-then-regret", "iterate-then-low",
             "non-finite-then-low"],
    )
    def test_earliest_failure_is_reported(self, values, spike_t, message):
        # the gradient spike on row 1 at spike_t makes x_{spike_t + 1} nan there
        problem = ScriptedValues(values, spike=np.nan, t=spike_t, row=1)
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}"):
            run(problem, ZERO, seed=4, trials=(3, 5, 7))

    def test_finite_row_whose_sum_overflows_runs_the_scan_and_passes(self):
        # x_1 = (-1e308, -1e308) on row 1: every entry is finite, but the
        # row's sum, and so the iterate's, is -inf, so the full finiteness
        # scan runs and finds no entry
        with np.errstate(over="ignore"):
            traj = run(SpikedGradient(1e308, t=0, row=1), ZERO, seed=0, trials=range(3))
            sums = np.add.reduce(traj.x_final, axis=1)
        assert np.array_equal(sums, [0.0, -np.inf, 0.0])
        assert np.isfinite(traj.x_final).all()

    def test_x0_validation(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        with pytest.raises(ValueError):
            run(p, ZERO, x0=np.full(2, 1e6), seed=0)  # outside the ball
        with pytest.raises(ValueError):
            run(p, ZERO, x0=np.zeros(3), seed=0)  # wrong shape
        with pytest.raises(ValueError, match="finite"):
            run(p, ZERO, x0=np.array([np.nan, 0.0]), seed=0)

    def test_infeasible_x0_for_box(self):
        w, p_ref = synth_demand_response_traces(5, seed=2)
        p = DemandResponse(
            2, 2, 5, p_ref, w, np.array([0.5, 0.5]), np.array([1.0, 1.0])
        )
        with pytest.raises(ValueError):
            run(p, ZERO, x0=np.zeros(2), seed=0)

    def test_horizon_beyond_built_range(self):
        p = quadratic_problem(0.5, 1.0, horizon=5)
        with pytest.raises(ValueError):
            run(p, ZERO, horizon=6, seed=0)


class TestMemory:
    def test_no_noise_draws_no_block(self, monkeypatch):
        # scale = bias = 0 draws nothing, so the run peaks at least one
        # (T, trials, n) block below noise whose every c_t is 0, which draws
        # a block of zeros; both records hold the same bytes
        cfg = make_config(
            {"noise": {"scale": 0.0}}, {"preset": "static-ls", "trials": 200, "horizon": 100}
        )
        problem, silent = build_problem(cfg), build_noise(cfg)
        zeros = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(0.0,) * cfg.horizon)
        x0 = initial_point(cfg, problem)
        draws = []
        draw = noise_mod.sample

        def counted_sample(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(noise_mod, "sample", counted_sample)
        peaks, records = [], []
        for model in (silent, zeros):
            tracemalloc.start()
            try:
                records.append(run(problem, model, x0=x0, seed=cfg.seed, trials=range(cfg.trials)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(draws) == cfg.trials  # all from the zero block's run
        assert peaks[0] + cfg.horizon * cfg.trials * problem.n * 8 <= peaks[1], peaks
        assert not records[0].error_norm.any()
        for name in PER_TRIAL + ("domain_excursions",):
            assert getattr(records[0], name).tobytes() == getattr(records[1], name).tobytes(), name

    @pytest.mark.parametrize(
        "preset", ["fig1-ls", "static-ls", "fig3-demand-response", "logistic", "lti"]
    )
    def test_no_noise_keeps_the_zero_block_bytes(self, preset):
        cfg = make_config({}, {"preset": preset, "trials": 5})
        problem = build_problem(cfg)
        x0 = initial_point(cfg, problem)
        zeros = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(0.0,) * cfg.horizon)
        silent, fed = (
            run(problem, model, x0=x0, seed=cfg.seed, trials=range(5))
            for model in (NoiseModel(), zeros)
        )
        for name in PER_TRIAL + ("domain_excursions",):
            assert getattr(silent, name).tobytes() == getattr(fed, name).tobytes(), name

    def test_peak_on_500_devices_stays_within_budget(self):
        # The full-size demand-response run needs its (trials, T+1) outputs,
        # the noise block and one batch-sized work array: the loop iterates
        # one column per device class, each (trials, n) widening of the
        # iterate (for A x) is dropped after its reduction, and the record
        # widens x_final only when it is read.
        # The error a_x eta is never formed, since the gradient is read from
        # the noisy scalar residual and ||e|| = ||a_x|| |eta|.  The 96 KiB
        # slack holds ufunc buffers and small objects, so one extra
        # (trials, T+1) or (trials, n) float array takes the peak over.
        cfg = make_config({"problem": {"n_der": 500}}, {"preset": "fig3-demand-response"})
        problem, model = build_problem(cfg), build_noise(cfg)
        x0 = initial_point(cfg, problem)
        trials, horizon, n = cfg.trials, cfg.horizon, problem.n
        budget = (
            3 * trials * (horizon + 1) * 8  # regret, error_norm, psi_tilde
            + horizon * trials * GradientErrors(problem, model).dim * 8  # the noise block
            + trials * n * 8  # a widened iterate
            + 96 * 1024
        )
        tracemalloc.start()
        try:
            run(problem, model, x0=x0, seed=cfg.seed, trials=range(trials))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)

    def test_aggregation_peak_on_500_devices_stays_within_budget(self):
        # run_experiment's peak sits where two (trials, T) arrays join the
        # record's three (trials, T+1) arrays: the empirical envelope fit's
        # normalized copy of the norms and its power buffer (fit_from_samples
        # takes no abs copy of norms), then the recursion residual and its
        # error term.  The record holds x_final compact, and psi_tilde is
        # read from it, not formed again.  The slack holds the problem's
        # data, the bound series, the per-step means and small objects, so
        # one extra (trials, T+1) or (trials, n) array takes the peak over.
        # The second call is traced, so the first one's caches and imports
        # stay out of the count.
        cfg = make_config({"problem": {"n_der": 500}}, {"preset": "fig3-demand-response"})
        trials, horizon = cfg.trials, cfg.horizon
        budget = (
            3 * trials * (horizon + 1) * 8  # regret, error_norm, psi_tilde
            + 2 * trials * horizon * 8  # two (trials, T) work arrays
            + 256 * 1024
        )
        run_experiment(cfg)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)


class TestZeroSign:
    def test_multiply_adjoint_gives_the_same_outputs(self, monkeypatch):
        # Zero entries of a_x make zero products, which np.multiply signs
        # with the noise and the one-row adjoint's einsum makes +0.0, and
        # lo = 0 on half the devices makes clamps at 0; no output sees it.
        n, horizon = 12, 200
        w, p_ref = synth_demand_response_traces(horizon, seed=29)
        devices = np.arange(n)
        a_x = np.where(devices % 3 == 0, 0.0, np.linspace(-2.0, 2.0, n))
        lo = np.where(devices % 2 == 0, 0.0, -40.0)
        p = weighted_demand_response(horizon, p_ref, w, lo, np.full(n, 40.0), a_x)
        model = NoiseModel("gaussian_iid", scale=10.0)
        new = run(p, model, seed=31, trials=range(6))

        negative_zeros = []

        def multiply_adjoint(self, r, out=None):
            out = np.multiply(r, self.matrix[0], out=out)
            negative_zeros.append(np.count_nonzero((out == 0.0) & np.signbit(out)))
            return out

        monkeypatch.setattr(QuadraticTracking, "_adjoint", multiply_adjoint)
        old = run(p, model, seed=31, trials=range(6))
        assert sum(negative_zeros) > 0
        assert np.any(old.x_final[:, lo == 0.0] == 0.0)
        for field in ("regret", "error_norm", "psi_tilde", "x_final"):
            a, b = getattr(new, field), getattr(old, field)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), field


class TestPathwiseRecursions:
    def test_ogd_recursion_on_noisy_drifting_run(self):
        p = TimeVaryingLeastSquares(
            6, 12, 0.1, 1.0, math.sqrt(0.1), math.sqrt(1e-3), seed=10, horizon=120
        )
        model = NoiseModel("gaussian_iid", scale=math.sqrt(1e-3))
        zeta = 0.9
        for trial in range(5):
            traj = run(p, model, seed=17, trials=[trial])
            r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
            lhs = r[1:]
            rhs = zeta * r[:-1] + e[1:] ** 2 / (2 * p.smoothness) + psi[1:]
            assert np.all(lhs <= rhs + 1e-9)

    def test_ogd_recursion_on_logistic_with_sampled_mu(self):
        # the closed-form optimum f*_t = f_t(0) keeps the exact tolerance 1e-9
        from plgrad.problems import DriftingLogistic

        p = DriftingLogistic(4, 20, seed=19, horizon=30, drift_std=0.01)
        model = NoiseModel("gaussian_iid", scale=0.05)
        zeta = 1 - p.pl_constant / p.smoothness
        traj = run(p, model, seed=31, trials=[0])
        r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
        assert np.all(r[1:] <= zeta * r[:-1] + e[1:] ** 2 / (2 * p.smoothness) + psi[1:] + 1e-9)

    def test_opgm_recursion_on_noisy_box_run(self):
        w, p_ref = synth_demand_response_traces(150, seed=13)
        lo = np.concatenate([np.full(4, -50.0), np.zeros(4)])
        hi = np.full(8, 50.0)
        p = DemandResponse(8, 13, 150, p_ref, w, lo, hi)
        model = NoiseModel("gaussian_iid", scale=10.0)
        zeta = 1 - p.pl_constant / p.smoothness
        for trial in range(5):
            traj = run(p, model, seed=23, trials=[trial])
            r, e, psi = traj.regret[0], traj.error_norm[0], traj.psi_tilde[0]
            lhs = r[1:]
            rhs = zeta * r[:-1] + 2 * p.diameter * e[1:] + psi[1:]
            assert np.all(lhs <= rhs + 1e-9)


def _families():
    """One small instance of each problem family with its noise model."""
    from plgrad.problems import DriftingLogistic, LtiTracking

    w, p_ref = synth_demand_response_traces(40, seed=13)
    lo = np.concatenate([np.full(3, -50.0), np.zeros(3)])
    # zero and non-unit entries, as in TestZeroSign: (r + eta) a_x then
    # rounds differently from r a_x + eta a_x
    devices = np.arange(6)
    a_x = np.where(devices % 3 == 0, 0.0, np.linspace(-2.0, 2.0, 6))
    return {
        "ls": (
            TimeVaryingLeastSquares(4, 8, 0.1, 1.0, 0.1, 0.01, seed=5, horizon=40),
            NoiseModel("gaussian_iid", scale=0.05),
        ),
        "logistic": (
            DriftingLogistic(3, 12, seed=19, horizon=15, drift_std=0.01),
            NoiseModel("weibull_tail", scale=0.05, weibull_shape=1.5),
        ),
        "lti": (
            LtiTracking(3, 5, seed=2, horizon=40),
            NoiseModel("bounded_uniform", scale=0.1),
        ),
        "dr": (
            DemandResponse(6, 13, 40, p_ref, w, lo, np.full(6, 50.0)),
            NoiseModel("gaussian_iid", scale=10.0),
        ),
        "dr-general": (
            weighted_demand_response(40, p_ref, w, lo, np.full(6, 50.0), a_x),
            NoiseModel("gaussian_iid", scale=10.0),
        ),
    }


FAMILY_NAMES = ("dr", "dr-general", "logistic", "ls", "lti")
# the families whose measured gradient has the bits of grad f_t + e_t
EXACT_FAMILY_NAMES = ("dr", "logistic", "ls", "lti")
PER_TRIAL = ("regret", "error_norm", "psi_tilde", "x_final", "min_raw_regret")


class TestBatchedKernel:
    @pytest.fixture(scope="class")
    def families(self):
        return _families()

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_chunks_reproduce_the_full_batch(self, families, family):
        problem, model = families[family]
        full = run(problem, model, seed=3, trials=range(25))
        head = run(problem, model, seed=3, trials=range(7))
        tail = run(problem, model, seed=3, trials=range(7, 25))
        for name in PER_TRIAL + ("domain_excursions",):
            joined = np.concatenate([getattr(head, name), getattr(tail, name)])
            assert np.array_equal(joined, getattr(full, name)), name
        assert full.regret.shape[0] == 25

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_a_per_trial_reference_loop(self, families, family):
        problem, model = families[family]
        trials = (4, 0, 9)
        x0 = np.zeros(problem.n)
        batch = run(problem, model, seed=8, trials=trials)
        step = 1.0 / problem.smoothness
        errors = GradientErrors(problem, model)
        for row, trial in enumerate(trials):
            raw = sample(model, errors.dim, 8, trial, problem.horizon)
            x = x0.copy()
            regret = [problem.total_value(0, x) - problem.fstar(0)]
            err, psi = [0.0], [0.0]
            for t in range(problem.horizon):
                e = errors.map(raw[t])
                x = problem.regularizer.prox(step, x - step * (problem.grad(t, x) + e))
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

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_error_norm_is_the_norm_of_the_mapped_noise(self, families, family):
        problem, model = families[family]
        trials = range(5)
        traj = run(problem, model, seed=8, trials=trials)
        errors = GradientErrors(problem, model)
        raw = np.stack(
            [sample(model, errors.dim, 8, k, problem.horizon) for k in trials], axis=1
        )
        recorded = traj.error_norm[:, 1:].T  # one row per step, as raw
        materialized = _row_norm(errors.map(raw))
        assert np.all(traj.error_norm[:, 0] == 0.0)
        if problem.name == "demand_response":
            # a one-row A: ||a eta|| = ||a|| |eta| in closed form
            assert np.array_equal(recorded, problem.error_gain * np.abs(raw[..., 0]))
            np.testing.assert_allclose(recorded, materialized, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(recorded, materialized)


def reference_run(problem, model, seed, trials, x0=None):
    """The kernel loop before it shared f_{t+1}(x_{t+1}), read f* once,
    skipped g on prox outputs and iterated one column per device class:
    per step, total_value (g included) and f*_t for the regret, and a
    variability that evaluates both f_{t+1} and f_t and reads f*_{t+1}
    and f*_t, all on n columns.  The error norm of demand response (a
    one-row A, problem or spy) is the closed form ||a_x|| |eta|.  Every
    trial starts at x0, the origin by default."""
    one_row = problem.name == "demand_response"
    trials = tuple(trials)
    horizon = problem.horizon
    step = 1.0 / problem.smoothness
    errors = GradientErrors(problem, model)
    raw = np.stack([sample(model, errors.dim, seed, k, horizon) for k in trials], axis=1)
    shape = (len(trials), horizon + 1)
    regret = np.empty(shape)
    error_norm = np.zeros(shape)
    sigma = np.zeros(horizon + 1)
    phi_tilde = np.zeros(shape)
    excursions = np.zeros(len(trials), dtype=int)
    min_raw = np.full(len(trials), np.inf)

    def record(t, xt):
        r = problem.total_value(t, xt) - problem.fstar(t)
        np.minimum(min_raw, r, out=min_raw)
        regret[:, t] = np.maximum(r, 0.0)
        excursions[_row_norm(xt) >= problem.domain_radius] += 1

    def variability(t, xt):
        sigma = abs(problem.fstar(t) - problem.fstar(t - 1))
        return sigma, abs(problem.value(t, xt) - problem.value(t - 1, xt))

    x = np.zeros((len(trials), problem.n)) if x0 is None else np.tile(x0, (len(trials), 1))
    record(0, x)
    for t in range(horizon):
        e = errors.map(raw[t])
        x = prox_gradient_step(problem, t, x, step, e)
        record(t + 1, x)
        if one_row:
            error_norm[:, t + 1] = problem.error_gain * np.abs(raw[t, :, 0])
        else:
            error_norm[:, t + 1] = _row_norm(e)
        sigma[t + 1], phi_tilde[:, t + 1] = variability(t + 1, x)
    return {
        "regret": regret,
        "error_norm": error_norm,
        "psi_tilde": sigma + phi_tilde,
        "x_final": x,
        "domain_excursions": excursions,
        "min_raw_regret": min_raw,
    }


class EvaluationSpy(OracleSpy):
    """OracleSpy that also records each evaluate call: its t and whether it
    asked for the gradient and passed noise.  It forwards to the problem's
    own evaluate, so the value and grad calls a default evaluate makes are
    not recorded."""

    def __init__(self, problem):
        super().__init__(problem)
        self.evaluations = []

    def evaluate(self, t, x, grad_out=None, noise=None):
        self.evaluations.append((t, grad_out is not None, noise is not None))
        return self.problem.evaluate(t, x, grad_out=grad_out, noise=noise)

    def compacted(self, x0):
        """The problem's compacted view under a spy that records into
        this spy's lists, so run's calls on the view are seen here."""
        found = self.problem.compacted(x0)
        if found is None:
            return None
        view, runs = found
        spy = EvaluationSpy(view)
        spy.results, spy.evaluations = self.results, self.evaluations
        return spy, runs


class TestOneValuePerStep:
    """run evaluates each iterate once: one evaluate call, one A x on the
    quadratic core, gives f_t(x_t) for the regret, f_{t-1}(x_t) for
    phi_tilde and the gradient of the next step.  It reads each f*_t once
    and evaluates g only in its check of x0: g = 0 on every iterate."""

    @pytest.fixture(scope="class")
    def families(self):
        return _families()

    @pytest.mark.parametrize("family", EXACT_FAMILY_NAMES)
    def test_matches_the_two_evaluation_loop(self, families, family, monkeypatch):
        problem, model = families[family]
        spy, ref_spy = EvaluationSpy(problem), OracleSpy(problem)
        g_calls = []
        g_value = Regularizer.value

        def counted_g_value(reg, x):
            g_calls.append(x.shape)
            return g_value(reg, x)

        products = []  # the matrix of every row-wise product the problems form
        matvec = problems_mod._matvec

        def counted_matvec(a, x, out=None):
            products.append(a)
            return matvec(a, x, out=out)

        monkeypatch.setattr(Regularizer, "value", counted_g_value)
        monkeypatch.setattr(problems_mod, "_matvec", counted_matvec)
        traj = run(spy, model, seed=8, trials=range(5))
        run_g_calls = len(g_calls)
        run_products = list(products)
        ref = reference_run(ref_spy, model, seed=8, trials=range(5))
        for name, expected in ref.items():
            assert np.array_equal(getattr(traj, name), expected), name

        def calls(s, oracle):
            return sum(len(blocks) for (o, _), blocks in s.results.items() if o == oracle)

        horizon = problem.horizon
        # one evaluation per iterate, the measured gradient at all but the last
        assert spy.evaluations == [(t, t < horizon, t < horizon) for t in range(horizon + 1)]
        assert calls(spy, "value") == calls(spy, "grad") == 0
        if isinstance(problem, QuadraticTracking):
            assert sum(a is problem.matrix for a in run_products) == horizon + 1
        assert calls(ref_spy, "value") == 3 * horizon + 1
        assert calls(ref_spy, "grad") == horizon
        assert calls(spy, "fstar") == horizon + 1
        assert calls(ref_spy, "fstar") == 3 * horizon + 1
        # g = 0 on x0 and on the box prox outputs: only the x0 check reads it
        assert run_g_calls == 1

    @pytest.mark.parametrize("family", ("dr", "dr-general"))
    def test_one_row_adjoint_runs_once_per_step_on_the_residual(
        self, families, family, monkeypatch
    ):
        # the noise rides the scalar residual: no second adjoint forms the
        # (trials, n) error a_x eta
        problem, model = families[family]
        shapes = []
        adjoint = QuadraticTracking._adjoint

        def counted_adjoint(self, r, out=None):
            shapes.append(r.shape)
            return adjoint(self, r, out=out)

        monkeypatch.setattr(QuadraticTracking, "_adjoint", counted_adjoint)
        run(problem, model, seed=8, trials=range(5))
        assert shapes == [(5, 1)] * problem.horizon

    def test_lti_maps_each_step_once(self, monkeypatch):
        # a many-row map's noise is mapped once, as one (T, trials, m)
        # block, before the loop: then one adjoint of the residual per step,
        # and the norms keep the bits of mapping each trial's whole block
        cfg = make_config({}, {"preset": "lti"})
        problem, model = build_problem(cfg), build_noise(cfg)
        calls = []
        adjoint = QuadraticTracking._adjoint

        def counted_adjoint(self, r, out=None):
            calls.append(r.shape)
            return adjoint(self, r, out=out)

        monkeypatch.setattr(QuadraticTracking, "_adjoint", counted_adjoint)
        x0 = initial_point(cfg, problem)
        traj = run(problem, model, x0=x0, seed=cfg.seed, trials=range(cfg.trials))
        m = problem.matrix.shape[0]
        assert calls == [(cfg.horizon, cfg.trials, m)] + [(cfg.trials, m)] * cfg.horizon
        assert len(calls) == 301 == cfg.horizon + 1
        monkeypatch.undo()
        expected = np.zeros_like(traj.error_norm)
        for k in range(cfg.trials):
            e = problem._adjoint(sample(model, len(problem.error_map), cfg.seed, k, cfg.horizon))
            expected[k, 1:] = np.sqrt(np.vecdot(e, e))
        assert traj.error_norm.tobytes() == expected.tobytes()


class TestBallCount:
    """run counts domain-ball excursions per step unless the problem's box
    lies strictly inside the ball, where no iterate can leave it."""

    @staticmethod
    def boxed(radius, lo, hi, horizon=12):
        # one-row A = (1, 1) with the unreachable target 10: the step leaves
        # the box toward its corner (hi, hi), where the clamp puts it
        return QuadraticTracking(
            "boxed", np.ones((1, 2)), np.full((horizon + 1, 1), 10.0), horizon,
            smoothness=2.0, pl_constant=1.0, domain_radius=radius, box=(lo, hi),
        )

    # bounds of shape (n,) and (1,): the corner is taken over all n coordinates
    @pytest.mark.parametrize("lo, hi", [([-1.0, -1.0], [1.0, 1.0]), ([-1.0], [1.0])])
    def test_box_reaching_outside_the_ball_is_counted(self, lo, hi):
        # the corner (1, 1) has norm sqrt(2) > 1.2, and every iterate after x0 sits on it
        problem = self.boxed(1.2, np.array(lo), np.array(hi))
        traj = run(problem, ZERO, seed=0, trials=range(3))
        assert np.array_equal(traj.x_final, np.ones((3, 2)))
        assert np.array_equal(traj.domain_excursions, [12, 12, 12])
        assert traj.theory_exceptions == ["iterates left the domain ball in 36 trial-steps"]
        ref = reference_run(problem, ZERO, seed=0, trials=range(3))
        for name, expected in ref.items():
            assert np.array_equal(getattr(traj, name), expected), name

    def test_box_inside_the_ball_skips_the_count(self, monkeypatch):
        problem = self.boxed(1.5, np.array([-1.0, -0.5]), np.array([1.0, 1.0]))
        model = NoiseModel("gaussian_iid", scale=3.0)
        shapes = []
        row_norm = solvers_mod._row_norm

        def counted_row_norm(x):
            shapes.append(x.shape)
            return row_norm(x)

        monkeypatch.setattr(solvers_mod, "_row_norm", counted_row_norm)
        traj = run(problem, model, seed=4, trials=range(5))
        # the corner once and nothing per step: no per-iterate ball scan
        assert shapes == [(2,)]
        assert not traj.domain_excursions.any() and not traj.outside_theory
        ref = reference_run(problem, model, seed=4, trials=range(5))
        for name, expected in ref.items():
            assert np.array_equal(getattr(traj, name), expected), name


def bits(a):
    """a's bit patterns: equal bits, not equal values (-0.0 differs from 0.0)."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestCompaction:
    """run iterates one column per run of equal devices only on a one-row
    box problem with measurement noise, and runs any other problem as it
    was given."""

    @staticmethod
    def demand_response(bounds=None, n_der=500):
        problem = {"n_der": n_der}
        if bounds is not None:
            problem["bounds_lo"], problem["bounds_hi"] = bounds
        cfg = make_config({"problem": problem}, {"preset": "fig3-demand-response"})
        return build_problem(cfg), build_noise(cfg)

    def test_default_bounds_give_one_run_per_device_class(self):
        problem, _ = self.demand_response()
        view, runs = problem.compacted(np.zeros(problem.n))
        assert runs.tolist() == [250, 250] and view.n == 2
        assert view.regularizer.lo.tolist() == [-50.0, 0.0]
        assert view.regularizer.hi.tolist() == [50.0, 50.0]
        assert view.matrix.shape == (1, 2) and view.error_map is problem.matrix

    def test_scalar_bounds_give_one_run(self):
        problem, _ = self.demand_response(((-10.0,), (10.0,)))
        view, runs = problem.compacted(np.zeros(problem.n))
        assert runs.tolist() == [500] and view.n == 1

    def test_a_differing_start_splits_a_run(self):
        problem, _ = self.demand_response(((-10.0,), (10.0,)), n_der=6)
        x0 = np.array([0.0, 0.0, 1.0, 1.0, 1.0, -0.0])
        assert problem.compacted(x0)[1].tolist() == [2, 3, 1]

    @pytest.mark.parametrize("case", ["default", "alternating", "unmeasured"])
    def test_only_equal_neighbours_are_compacted(self, case, monkeypatch):
        if case == "unmeasured":
            # TestBallCount's box: one row, but n-dimensional noise
            problem = TestBallCount.boxed(1.5, np.array([-1.0]), np.array([1.0]))
            model = NoiseModel("gaussian_iid", scale=3.0)
        else:
            bounds = None if case == "default" else ((-50.0, 0.0) * 10, (50.0,))
            problem, model = self.demand_response(bounds, n_der=20)
        evaluated, repeats = set(), []
        evaluate, repeat = QuadraticTracking.evaluate, np.repeat

        def spied_evaluate(self, *args, **kwargs):
            evaluated.add(id(self))
            return evaluate(self, *args, **kwargs)

        def counted_repeat(a, *args, **kwargs):
            repeats.append(np.shape(a))
            return repeat(a, *args, **kwargs)

        monkeypatch.setattr(QuadraticTracking, "evaluate", spied_evaluate)
        monkeypatch.setattr(np, "repeat", counted_repeat)
        traj = run(problem, model, seed=5, trials=range(3))
        if case == "default":
            assert evaluated and id(problem) not in evaluated
            assert repeats and all(shape[-1] == 2 for shape in repeats)
        else:
            assert problem.compacted(np.zeros(problem.n)) is None
            assert evaluated == {id(problem)} and repeats == []
        ref = reference_run(problem, model, seed=5, trials=range(3))
        for name, expected in ref.items():
            assert np.array_equal(bits(getattr(traj, name)), bits(expected)), name

    def test_signed_zero_bounds_stay_apart(self):
        # lo = -0.0 and lo = 0.0 compare equal; merged into one run, the
        # loads clamped at lo would all take one sign in x_final.  The
        # reference sits below the reachable sum, so every device ends at lo
        horizon = 40
        w, p_ref = synth_demand_response_traces(horizon, seed=13)
        lo = np.repeat([-50.0, -0.0, 0.0], 4)
        problem = weighted_demand_response(
            horizon, p_ref - 1000.0, w, lo, np.full(12, 50.0), np.ones(12))
        model = NoiseModel("gaussian_iid", scale=10.0)
        assert problem.compacted(np.zeros(12))[1].tolist() == [4, 4, 4]
        traj = run(problem, model, seed=3, trials=range(4))
        negative, positive = traj.x_final[:, 4:8], traj.x_final[:, 8:]
        assert (negative == 0.0).any() and (positive == 0.0).any()
        assert np.signbit(negative[negative == 0.0]).all()
        assert not np.signbit(positive[positive == 0.0]).any()
        ref = reference_run(problem, model, seed=3, trials=range(4))
        for name, expected in ref.items():
            assert np.array_equal(bits(getattr(traj, name)), bits(expected)), name
