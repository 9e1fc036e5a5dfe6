"""Monte Carlo harness: determinism, aggregation, validation verdicts."""

import time

import numpy as np
import pytest

from plgrad.bounds import error_cost, expectation_bound
from plgrad.cli import write_report
from plgrad.config import build_problem, make_config
from plgrad.harness import (
    _check_prox,
    coverage_envelope,
    longrun_asymptote_check,
    run_experiment,
    run_validation_battery,
    validate_bounds,
)
from plgrad.prox import Regularizer


def small_config(preset="static-ls", trials=25, horizon=80, **extra):
    cfg = make_config({}, {"preset": preset, "trials": trials})
    cfg.horizon = horizon
    for key, value in extra.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def static_report():
    return run_experiment(small_config())


@pytest.fixture(scope="module")
def drifting_report():
    return run_experiment(small_config(preset="fig1-ls", trials=30, horizon=120))


class TestDeterminism:
    def test_trials_are_independent(self, static_report):
        # a trial's trajectory must not depend on how many trials run with it
        fewer = run_experiment(small_config(trials=10))
        assert np.array_equal(fewer.trajectory.regret, static_report.trajectory.regret[:10])
        assert np.array_equal(
            fewer.trajectory.error_norm, static_report.trajectory.error_norm[:10]
        )

    def test_repeat_runs_identical(self, static_report):
        again = run_experiment(small_config())
        assert np.array_equal(again.mean_regret, static_report.mean_regret)
        assert np.array_equal(again.envelope_k, static_report.envelope_k)


class TestAggregation:
    def test_single_trial_mean_is_the_trajectory(self):
        report = run_experiment(small_config(trials=1, horizon=40))
        assert np.array_equal(report.mean_regret, report.trajectory.regret[0])
        assert np.all(report.std_regret == 0.0)

    def test_shapes(self, static_report):
        T = static_report.config.horizon
        R = static_report.config.trials
        assert static_report.trajectory.regret.shape == (R, T + 1)
        assert static_report.mean_err_sq.shape == (T,)
        assert static_report.mean_psi.shape == (T,)
        assert len(static_report.bounds["expectation"]) == T + 1

    def test_band_is_three_sigma(self, drifting_report, tmp_path):
        write_report(drifting_report, tmp_path)
        columns = np.loadtxt(tmp_path / "regret.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(
            columns[:, 4],  # band_hi
            drifting_report.mean_regret + 3 * drifting_report.std_regret,
            rtol=1e-12,
        )

    def test_static_problem_has_zero_variability(self, static_report):
        assert float(np.max(static_report.mean_psi)) == 0.0

    def test_checkpoints(self, static_report):
        assert static_report.checkpoints == (20, 40, 80)


class TestDominanceAndCoverage:
    def test_mean_below_expectation_bound(self, static_report, drifting_report):
        for report in (static_report, drifting_report):
            bound = report.bounds["expectation"]
            assert np.all(report.mean_regret <= bound + 1e-12 * (1 + bound))

    def test_validation_passes_on_honest_runs(self, static_report, drifting_report):
        for report in (static_report, drifting_report):
            summary = validate_bounds(report)
            assert summary.passed, summary.failed_names()

    def test_coverage_counts_match_matrix(self):
        # one count per series and per t, brute-forced trial by trial.  A
        # small step slows the run below the certified rate, so some trials
        # cross the expectation series and the counts are not all 0 or R
        cfg = small_config(trials=20, horizon=60, step_override=0.05)
        cfg.noise["scale"] = 0.1
        report = run_experiment(cfg)
        regret = report.trajectory.regret
        partial = report.exceedances["expectation"]
        assert np.any((partial > 0) & (partial < cfg.trials))
        assert report.exceedances.keys() == report.bounds.keys()
        for name, series in report.bounds.items():
            counts = report.exceedances[name]
            assert counts.shape == series.shape
            for t in range(len(series)):
                manual = sum(1 for row in regret if row[t] > series[t])
                assert counts[t] == manual, (name, t)

    def test_opgm_experiment(self):
        report = run_experiment(
            small_config(preset="fig3-demand-response", trials=8, horizon=120)
        )
        summary = validate_bounds(report)
        assert summary.passed, summary.failed_names()
        problem = report.problem
        cost = error_cost("opgm", problem.smoothness, problem.diameter)
        direct = expectation_bound(
            report.r0, report.zeta, cost, report.mean_err_norm, report.mean_psi
        )
        assert np.array_equal(report.bounds["expectation"], direct)

    @pytest.mark.parametrize("preset", ["lti", "logistic"])
    def test_other_presets_validate(self, preset):
        report = run_experiment(small_config(preset=preset, trials=6, horizon=25))
        summary = validate_bounds(report)
        assert summary.passed, summary.failed_names()

    def test_noiseless_static_run_passes_with_zero_slack(self):
        cfg = small_config(trials=5, horizon=50)
        cfg.noise = {"family": "zero"}
        report = run_experiment(cfg)
        summary = validate_bounds(report)
        assert summary.passed, summary.failed_names()
        assert report.exceedances.keys() == report.bounds.keys()
        assert all(np.all(counts == 0) for counts in report.exceedances.values())
        assert report.recursion_max_violation <= 0.0


class TestNegativeControls:
    def test_halved_envelope_fails_moment_check(self):
        cfg = small_config(trials=60, horizon=60, bound_inputs="analytic")
        cfg.noise["envelope_k_scale"] = 0.5
        summary = validate_bounds(run_experiment(cfg))
        assert "envelope_moments" in summary.failed_names()

    def test_severely_understated_envelope_fails_coverage(self):
        # the horizon must outlive the zeta^t r0 head so the tail term,
        # quadratic in K, controls the bound at the last checkpoint
        cfg = small_config(trials=400, horizon=100, bound_inputs="analytic")
        cfg.noise["envelope_k_scale"] = 1.0 / 32.0
        summary = validate_bounds(run_experiment(cfg))
        failed = summary.failed_names()
        assert any(name.startswith("coverage_") for name in failed)
        assert "envelope_moments" in failed

    def test_honest_analytic_envelope_passes(self):
        cfg = small_config(trials=60, horizon=60, bound_inputs="analytic")
        summary = validate_bounds(run_experiment(cfg))
        assert summary.passed, summary.failed_names()

    def test_time_varying_envelope_validates(self):
        # per-step scales must pool through normalization, not raw samples
        cfg = small_config(trials=40, horizon=30)
        cfg.noise["per_time_scale"] = tuple(1.0 + 0.5 * np.sin(np.arange(31)))
        report = run_experiment(cfg)
        summary = validate_bounds(report)
        assert summary.passed, summary.failed_names()
        assert not np.all(report.envelope_k == report.envelope_k[0])

    def test_error_at_a_zero_scale_step_fails_moment_check(self):
        cfg = small_config(trials=40, horizon=30)
        cfg.noise["per_time_scale"] = (1.0, 0.0) * 16
        report = run_experiment(cfg)
        assert validate_bounds(report).passed
        assert report.envelope_k[1] == 0.0
        traj = report.trajectory
        traj.error_norm = traj.error_norm.copy()
        traj.error_norm[3, 2] = 0.1  # column t + 1 holds ||e_t||; c_1 = 0
        assert "envelope_moments" in validate_bounds(report).failed_names()


class TestCoverageEnvelope:
    def test_against_brute_force_binomial_quantile(self):
        from math import comb

        def brute(n, p, conf=0.99):
            acc = 0.0
            for k in range(n + 1):
                acc += comb(n, k) * p**k * (1 - p) ** (n - k)
                if acc >= conf:
                    return k
            return n

        for n, p in [(100, 0.1), (1000, 0.05), (1000, 0.1), (50, 0.5)]:
            assert coverage_envelope(n, p) == brute(n, p)

    def test_matches_scipy_binomial_quantile(self):
        from scipy.stats import binom  # independent oracle, test-only

        deltas = [0.05, 0.1, *np.random.default_rng(11).uniform(0.001, 0.999, 8)]
        for n in (1, 2, 3, 7, 20, 50, 100, 333, 1000, 2000):
            for delta in deltas:
                expected = int(binom.ppf(0.99, n, delta))
                assert coverage_envelope(n, float(delta)) == expected, (n, delta)

    def test_exact_tie(self):
        # P(Bin(2, 0.1) <= 1) is 0.99 in decimal; with the binary values of
        # 0.1 and 0.99 it exceeds the confidence by 7.8e-18, below a
        # double's resolution there, so only exact arithmetic settles k = 1
        assert coverage_envelope(2, 0.1) == 1

    def test_ten_thousand_trials_are_fast(self):
        start = time.perf_counter()
        limit = coverage_envelope(10**4, 0.05)
        assert time.perf_counter() - start < 1.0  # about 0.4 s on a 2-core host
        assert 500 < limit < 560  # mean 500, standard deviation 21.8

    def test_rejects_out_of_range_inputs(self):
        for delta in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="delta"):
                coverage_envelope(10, delta)
        with pytest.raises(ValueError, match="confidence"):
            coverage_envelope(10, 0.1, confidence=0.0)


class TestLongRun:
    def test_noiseless_static_tail_below_geometric_envelope(self):
        cfg = small_config(trials=3, horizon=200)
        cfg.noise = {"family": "zero"}
        out = longrun_asymptote_check(cfg, burn_in=50)
        r0 = run_experiment(cfg).mean_regret[0]
        zeta = 0.9
        # the cap itself is 0 here; finite-time decay is the sharp statement
        assert out.asymptote == 0.0
        assert np.all(out.tail_max <= zeta**50 * r0 * (1 + 1e-9))

    def test_burn_in_validation(self):
        cfg = small_config(trials=2, horizon=50)
        for burn_in in (50, -1):
            with pytest.raises(ValueError, match="burn_in"):
                longrun_asymptote_check(cfg, burn_in=burn_in)

    def test_drifting_problem_requires_psi_bar(self):
        cfg = small_config(preset="fig1-ls", trials=3, horizon=40)
        with pytest.raises(ValueError):
            longrun_asymptote_check(cfg, burn_in=10)
        cfg.psi_bar = 5.0
        out = longrun_asymptote_check(cfg, burn_in=10)
        assert out.asymptote > 0

    @pytest.mark.parametrize("solver", ["ogd", "opgm"])
    def test_asymptote_is_the_method_recursion_fixed_point(self, solver):
        # (L/mu)(weight sup E||e||^power + psi_bar): the gradient method's error
        # enters as ||e||^2 / (2L), the prox method's as 2D ||e||
        cfg = small_config(preset="fig1-ls", trials=6, horizon=40, solver=solver)
        report = run_experiment(cfg)
        problem = report.problem
        if solver == "ogd":
            weight, moments = 1.0 / (2.0 * problem.smoothness), report.mean_err_sq
        else:
            weight, moments = 2.0 * problem.diameter, report.mean_err_norm
        assert report.psi_bar_used > 0
        expected = (problem.smoothness / problem.pl_constant) * (
            weight * float(moments.max()) + report.psi_bar_used
        )
        assert report.e_bar_used == float(moments.max())
        assert report.asymptote_value == pytest.approx(expected, rel=1e-12)


class TestBattery:
    def test_full_battery_passes(self):
        summary = run_validation_battery(small_config(trials=10, horizon=40))
        assert summary.passed, summary.failed_names()
        names = {c.name for c in summary.checks}
        assert {"gradient_fd", "pl_certificate", "prox_grid", "recursion_pathwise"} <= names

    def test_subset_selection(self):
        summary = run_validation_battery(
            small_config(trials=4, horizon=20), checks=("prox",)
        )
        assert [c.name for c in summary.checks] == ["prox_grid"]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no checks selected"):
            run_validation_battery(small_config(trials=2, horizon=10), checks=())

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_validation_battery(small_config(trials=2, horizon=10), checks=("spectral",))

    def test_prox_check_fails_on_a_wrong_box_prox(self):
        # negative control: a prox that clamps to a shifted box must fail
        # the check of the configured regularizer
        class ShiftedBox(Regularizer):
            def prox(self, step, v, out=None):
                return np.clip(v, self.lo + 0.5, self.hi + 0.5)

        problem = build_problem(small_config(preset="fig3-demand-response"))
        assert _check_prox(problem, 42).passed
        reg = problem.regularizer
        problem.regularizer = ShiftedBox("box", lo=reg.lo, hi=reg.hi)
        assert not _check_prox(problem, 42).passed

    def test_iterates_leaving_the_ball_fail_theory_scope(self):
        cfg = small_config(trials=2, horizon=5)
        cfg.noise = {"family": "zero", "bias": 1e4}  # drives the iterates far out
        summary = run_validation_battery(cfg, checks=("recursion",))
        scope = next(c for c in summary.checks if c.name == "theory_scope")
        assert not scope.passed and "left the domain ball" in scope.detail

    def test_battery_on_prox_problem(self):
        summary = run_validation_battery(
            small_config(preset="fig3-demand-response", trials=6, horizon=60),
            checks=("pl", "recursion", "dominance"),
        )
        assert summary.passed, summary.failed_names()
