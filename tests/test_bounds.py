"""Certificate series: recursion-vs-sum agreement, factors, limits."""

import math

import numpy as np
import pytest

from plgrad.bounds import (
    ErrorCost,
    asymptote,
    error_cost,
    expectation_bound,
    geometric_recursion,
    highprob_bound,
    highprob_factor,
    markov_highprob_bound,
)
from plgrad.subweibull import SubWeibullParams, hp_bound


def ogd(smoothness):
    return error_cost("ogd", smoothness, None)


def opgm(diameter):
    return error_cost("opgm", None, diameter)


def direct_sum(r0, zeta, costs):
    """Oracle: evaluate zeta^t r0 + sum_tau zeta^(t - tau) costs[tau - 1]."""
    t_max = len(costs)
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        acc = zeta**t * r0
        for tau in range(1, t + 1):
            acc += zeta ** (t - tau) * costs[tau - 1]
        out[t] = acc
    return out


class TestGeometricBackbone:
    def test_recursion_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            zeta = rng.uniform(0.05, 0.99)
            r0 = rng.uniform(0.0, 10.0)
            costs = rng.uniform(0.0, 2.0, size=1000)
            rec = geometric_recursion(r0, zeta, costs)
            np.testing.assert_allclose(rec, direct_sum(r0, zeta, costs), rtol=1e-12)

    def test_zero_costs_decay_geometrically(self):
        values = geometric_recursion(2.0, 0.9, np.zeros(100))
        np.testing.assert_allclose(values, 2.0 * 0.9 ** np.arange(101), rtol=1e-12)

    def test_constant_costs_reach_geometric_limit(self):
        # m/(2L) + p over 1 - zeta; frozen at 0.05 for the worked numbers
        series = expectation_bound(1.0, 0.9, ogd(1.0), np.full(2000, 0.01), np.zeros(2000))
        assert series[-1] == pytest.approx(0.05, rel=1e-9)

    def test_zeta_validation(self):
        with pytest.raises(ValueError):
            geometric_recursion(1.0, 1.0, np.zeros(3))
        with pytest.raises(ValueError):
            geometric_recursion(1.0, 0.0, np.zeros(3))
        with pytest.raises(ValueError):
            geometric_recursion(-1.0, 0.5, np.zeros(3))


class TestFactors:
    def test_ogd_factor_from_quantile_bound_at_doubled_exponent(self):
        for theta, delta in [(0.5, 0.05), (1.0, 0.1), (2.0, 0.01)]:
            expected = hp_bound(SubWeibullParams(2 * theta, 1.0), delta)
            assert highprob_factor(2, theta, delta) == pytest.approx(expected, rel=1e-15)
            explicit = math.log(2 / delta) ** (2 * theta) * (math.e / theta) ** (2 * theta)
            assert highprob_factor(2, theta, delta) == pytest.approx(explicit, rel=1e-12)

    def test_ogd_factor_frozen_value(self):
        assert highprob_factor(2, 0.5, 0.05) == pytest.approx(20.05482797498767, rel=1e-12)

    def test_opgm_factor_is_unit_quantile_bound(self):
        for theta, delta in [(0.5, 0.05), (1.0, 2 / math.e)]:
            expected = hp_bound(SubWeibullParams(theta, 1.0), delta)
            assert highprob_factor(1, theta, delta) == pytest.approx(expected, rel=1e-15)
        assert highprob_factor(1, 1.0, 2 / math.e) == pytest.approx(2 * math.e, rel=1e-12)


class TestGradientMethodBounds:
    def test_noiseless_highprob_is_scaled_geometric(self):
        series = highprob_bound(
            1.0, 0.9, ogd(1.0), np.zeros(50), np.zeros(50), theta=0.5, delta=0.1
        )
        h = highprob_factor(2, 0.5, 0.1)
        np.testing.assert_allclose(series, h * 0.9 ** np.arange(51), rtol=1e-12)

    def test_highprob_matches_direct_sum_with_squared_scales(self):
        rng = np.random.default_rng(8)
        ks = rng.uniform(0.0, 1.0, size=200)
        psi = rng.uniform(0.0, 0.5, size=200)
        theta, delta, l = 0.75, 0.05, 2.0
        series = highprob_bound(0.3, 0.8, ogd(l), ks, psi, theta, delta)
        costs = (4.0**theta / (2 * l)) * ks**2 + psi
        oracle = highprob_factor(2, theta, delta) * direct_sum(0.3, 0.8, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_monotone_in_delta(self):
        ks = np.full(20, 0.5)
        psi = np.zeros(20)
        prev = None
        for delta in (0.01, 0.05, 0.1, 0.5, 0.9):
            series = highprob_bound(1.0, 0.9, ogd(1.0), ks, psi, 0.5, delta)
            if prev is not None:
                assert np.all(prev >= series)
            prev = series


class TestProxMethodBounds:
    def test_noiseless_is_geometric(self):
        series = expectation_bound(2.0, 0.95, opgm(5.0), np.zeros(40), np.zeros(40))
        np.testing.assert_allclose(series, 2.0 * 0.95 ** np.arange(41), rtol=1e-12)

    def test_constant_error_limit(self):
        # 2 D m_bar / (1 - zeta)
        series = expectation_bound(0.0, 0.9, opgm(3.0), np.full(3000, 0.2), np.zeros(3000))
        assert series[-1] == pytest.approx(2 * 3.0 * 0.2 / 0.1, rel=1e-9)

    def test_highprob_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        ks = rng.uniform(0.0, 1.0, size=150)
        psi = rng.uniform(0.0, 0.3, size=150)
        series = highprob_bound(1.0, 0.85, opgm(4.0), ks, psi, 1.0, 0.1)
        costs = 2 * 4.0 * ks + psi
        oracle = highprob_factor(1, 1.0, 0.1) * direct_sum(1.0, 0.85, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_diameter_validation(self):
        with pytest.raises(ValueError):
            expectation_bound(1.0, 0.9, opgm(0.0), np.zeros(5), np.zeros(5))


class TestAsymptote:
    def test_exact_convergence_case(self):
        assert asymptote(0.5, 1.0, ogd(1.0), 0.0, 0.0) == 0.0

    def test_worked_value(self):
        assert asymptote(0.1, 1.0, ogd(1.0), 0.01, 0.0) == pytest.approx(0.05, rel=1e-12)

    def test_linear_in_error_level(self):
        base = asymptote(0.2, 1.0, ogd(1.0), 0.04, 0.0)
        assert asymptote(0.2, 1.0, ogd(1.0), 0.08, 0.0) == pytest.approx(2 * base, rel=1e-12)

    def test_variability_term(self):
        assert asymptote(0.1, 1.0, ogd(1.0), 0.0, 0.3) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("cost", [ogd(2.0), opgm(3.0)], ids=["ogd", "opgm"])
    def test_fixed_point_of_the_expectation_recursion(self, cost):
        # mu = 0.5, L = 2: zeta = 0.75, and 400 steps leave 0.75^400 of r0
        series = expectation_bound(1.0, 0.75, cost, np.full(400, 0.2), np.full(400, 0.1))
        assert asymptote(0.5, 2.0, cost, 0.2, 0.1) == pytest.approx(series[-1], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptote(0.0, 1.0, ogd(1.0), 0.1, 0.0)
        with pytest.raises(ValueError):
            asymptote(0.1, 1.0, ogd(1.0), -0.1, 0.0)


class TestErrorCost:
    def test_each_solver_has_its_stated_record(self):
        assert error_cost("ogd", 4.0, None) == ErrorCost(power=2, weight=1.0 / 8.0)
        assert error_cost("opgm", None, 3.0) == ErrorCost(power=1, weight=6.0)
        # only the constant the solver uses is read
        assert error_cost("ogd", 4.0, 0.0) == error_cost("ogd", 4.0, 7.0)
        assert error_cost("opgm", 0.0, 3.0) == error_cost("opgm", -1.0, 3.0)

    @pytest.mark.parametrize(
        "solver,smoothness,diameter",
        [("ogd", 0.0, 1.0), ("ogd", -1.0, 1.0), ("opgm", 1.0, 0.0), ("opgm", 1.0, -2.0)],
    )
    def test_non_positive_constant_rejected(self, solver, smoothness, diameter):
        with pytest.raises(ValueError, match="must be positive"):
            error_cost(solver, smoothness, diameter)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            error_cost("sgd", 1.0, 1.0)

    def test_record_rejects_non_positive_fields(self):
        for power, weight in [(0, 1.0), (2, 0.0), (1, -1.0)]:
            with pytest.raises(ValueError):
                ErrorCost(power, weight)


class TestMarkovComparison:
    def test_half_delta_doubles(self):
        exp = expectation_bound(1.0, 0.9, ogd(1.0), np.full(10, 0.1), np.zeros(10))
        markov = markov_highprob_bound(exp, 0.5)
        np.testing.assert_allclose(markov, 2 * exp, rtol=1e-15)

    def test_delta_near_one_changes_nothing(self):
        exp = expectation_bound(1.0, 0.9, ogd(1.0), np.full(10, 0.1), np.zeros(10))
        markov = markov_highprob_bound(exp, 1.0 - 1e-12)
        np.testing.assert_allclose(markov, exp, rtol=1e-9)

    def test_subweibull_factor_beats_markov_at_small_delta(self):
        # log-scaling vs 1/delta at delta = 0.01, theta = 0.5
        h = highprob_factor(2, 0.5, 0.01)
        assert h == pytest.approx(math.log(200.0) * 2 * math.e, rel=1e-12)
        assert h < 1.0 / 0.01


class TestInputValidation:
    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            expectation_bound(1.0, 0.9, ogd(1.0), np.array([-0.1]), np.zeros(1))
        with pytest.raises(ValueError):
            highprob_bound(1.0, 0.9, ogd(1.0), np.zeros(5), np.zeros(5), 0.5, 1.5)

    def test_series_are_plain_arrays_of_length_t_plus_one(self):
        ks, psi = np.full(7, 0.2), np.zeros(7)
        for series in (
            expectation_bound(1.0, 0.9, ogd(1.0), ks, psi),
            highprob_bound(1.0, 0.9, ogd(1.0), ks, psi, 0.5, 0.1),
            expectation_bound(1.0, 0.9, opgm(2.0), ks, psi),
            highprob_bound(1.0, 0.9, opgm(2.0), ks, psi, 0.5, 0.1),
            markov_highprob_bound(np.ones(8), 0.1),
        ):
            assert type(series) is np.ndarray and series.shape == (8,)

    def test_each_series_keeps_its_checks(self):
        ks = np.zeros(4)
        bad_calls = [
            # non-positive smoothness or diameter
            lambda: expectation_bound(1.0, 0.9, ogd(0.0), ks, ks),
            lambda: highprob_bound(1.0, 0.9, ogd(-1.0), ks, ks, 0.5, 0.1),
            lambda: highprob_bound(1.0, 0.9, opgm(0.0), ks, ks, 0.5, 0.1),
            # zeta outside (0, 1), negative r0
            lambda: expectation_bound(1.0, 1.0, opgm(2.0), ks, ks),
            lambda: highprob_bound(-1.0, 0.9, ogd(1.0), ks, ks, 0.5, 0.1),
            # delta outside (0, 1)
            lambda: highprob_bound(1.0, 0.9, opgm(2.0), ks, ks, 0.5, 0.0),
            lambda: markov_highprob_bound(np.ones(5), 1.0),
            # negative costs, psi of another length, a scalar statistic
            lambda: highprob_bound(1.0, 0.9, opgm(2.0), -np.ones(4), ks, 0.5, 0.1),
            lambda: expectation_bound(1.0, 0.9, ogd(1.0), ks, -np.ones(4)),
            lambda: expectation_bound(1.0, 0.9, opgm(2.0), ks, np.zeros(5)),
            lambda: expectation_bound(1.0, 0.9, ogd(1.0), 0.1, 0.0),
        ]
        for call in bad_calls:
            with pytest.raises(ValueError):
                call()
