"""Certificate series: recursion-vs-sum agreement, factors, limits."""

import math

import numpy as np
import pytest

from plgrad.bounds import (
    asymptote,
    geometric_recursion,
    markov_highprob_bound,
    ogd_expectation_bound,
    ogd_highprob_bound,
    ogd_highprob_factor,
    opgm_expectation_bound,
    opgm_highprob_bound,
    opgm_highprob_factor,
)
from plgrad.subweibull import SubWeibullParams, hp_bound


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
        series = ogd_expectation_bound(
            1.0, 0.9, np.full(2000, 0.01), np.zeros(2000), smoothness=1.0
        )
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
            assert ogd_highprob_factor(theta, delta) == pytest.approx(expected, rel=1e-15)
            explicit = math.log(2 / delta) ** (2 * theta) * (math.e / theta) ** (2 * theta)
            assert ogd_highprob_factor(theta, delta) == pytest.approx(explicit, rel=1e-12)

    def test_ogd_factor_frozen_value(self):
        assert ogd_highprob_factor(0.5, 0.05) == pytest.approx(20.05482797498767, rel=1e-12)

    def test_opgm_factor_is_unit_quantile_bound(self):
        for theta, delta in [(0.5, 0.05), (1.0, 2 / math.e)]:
            expected = hp_bound(SubWeibullParams(theta, 1.0), delta)
            assert opgm_highprob_factor(theta, delta) == pytest.approx(expected, rel=1e-15)
        assert opgm_highprob_factor(1.0, 2 / math.e) == pytest.approx(2 * math.e, rel=1e-12)


class TestGradientMethodBounds:
    def test_noiseless_highprob_is_scaled_geometric(self):
        series = ogd_highprob_bound(
            1.0, 0.9, np.zeros(50), np.zeros(50), theta=0.5, delta=0.1, smoothness=1.0
        )
        h = ogd_highprob_factor(0.5, 0.1)
        np.testing.assert_allclose(series, h * 0.9 ** np.arange(51), rtol=1e-12)

    def test_highprob_matches_direct_sum_with_squared_scales(self):
        rng = np.random.default_rng(8)
        ks = rng.uniform(0.0, 1.0, size=200)
        psi = rng.uniform(0.0, 0.5, size=200)
        theta, delta, l = 0.75, 0.05, 2.0
        series = ogd_highprob_bound(0.3, 0.8, ks, psi, theta, delta, l)
        costs = (4.0**theta / (2 * l)) * ks**2 + psi
        oracle = ogd_highprob_factor(theta, delta) * direct_sum(0.3, 0.8, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_monotone_in_delta(self):
        ks = np.full(20, 0.5)
        psi = np.zeros(20)
        prev = None
        for delta in (0.01, 0.05, 0.1, 0.5, 0.9):
            series = ogd_highprob_bound(1.0, 0.9, ks, psi, 0.5, delta, 1.0)
            if prev is not None:
                assert np.all(prev >= series)
            prev = series


class TestProxMethodBounds:
    def test_noiseless_is_geometric(self):
        series = opgm_expectation_bound(2.0, 0.95, np.zeros(40), np.zeros(40), diameter=5.0)
        np.testing.assert_allclose(series, 2.0 * 0.95 ** np.arange(41), rtol=1e-12)

    def test_constant_error_limit(self):
        # 2 D m_bar / (1 - zeta)
        series = opgm_expectation_bound(
            0.0, 0.9, np.full(3000, 0.2), np.zeros(3000), diameter=3.0
        )
        assert series[-1] == pytest.approx(2 * 3.0 * 0.2 / 0.1, rel=1e-9)

    def test_highprob_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        ks = rng.uniform(0.0, 1.0, size=150)
        psi = rng.uniform(0.0, 0.3, size=150)
        series = opgm_highprob_bound(1.0, 0.85, ks, psi, 4.0, 1.0, 0.1)
        costs = 2 * 4.0 * ks + psi
        oracle = opgm_highprob_factor(1.0, 0.1) * direct_sum(1.0, 0.85, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_diameter_validation(self):
        with pytest.raises(ValueError):
            opgm_expectation_bound(1.0, 0.9, np.zeros(5), np.zeros(5), diameter=0.0)


class TestAsymptote:
    def test_exact_convergence_case(self):
        assert asymptote(0.5, 1.0, 0.0, 0.0) == 0.0

    def test_worked_value(self):
        assert asymptote(0.1, 1.0, 0.01, 0.0) == pytest.approx(0.05, rel=1e-12)

    def test_linear_in_error_level(self):
        base = asymptote(0.2, 1.0, 0.04, 0.0)
        assert asymptote(0.2, 1.0, 0.08, 0.0) == pytest.approx(2 * base, rel=1e-12)

    def test_variability_term(self):
        assert asymptote(0.1, 1.0, 0.0, 0.3) == pytest.approx(3.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptote(0.0, 1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            asymptote(0.1, 1.0, -0.1, 0.0)


class TestMarkovComparison:
    def test_half_delta_doubles(self):
        exp = ogd_expectation_bound(1.0, 0.9, np.full(10, 0.1), np.zeros(10), 1.0)
        markov = markov_highprob_bound(exp, 0.5)
        np.testing.assert_allclose(markov, 2 * exp, rtol=1e-15)

    def test_delta_near_one_changes_nothing(self):
        exp = ogd_expectation_bound(1.0, 0.9, np.full(10, 0.1), np.zeros(10), 1.0)
        markov = markov_highprob_bound(exp, 1.0 - 1e-12)
        np.testing.assert_allclose(markov, exp, rtol=1e-9)

    def test_subweibull_factor_beats_markov_at_small_delta(self):
        # log-scaling vs 1/delta at delta = 0.01, theta = 0.5
        h = ogd_highprob_factor(0.5, 0.01)
        assert h == pytest.approx(math.log(200.0) * 2 * math.e, rel=1e-12)
        assert h < 1.0 / 0.01


class TestInputValidation:
    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            ogd_expectation_bound(1.0, 0.9, np.array([-0.1]), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            ogd_highprob_bound(1.0, 0.9, np.zeros(5), np.zeros(5), 0.5, 1.5, 1.0)

    def test_series_are_plain_arrays_of_length_t_plus_one(self):
        ks, psi = np.full(7, 0.2), np.zeros(7)
        for series in (
            ogd_expectation_bound(1.0, 0.9, ks, psi, 1.0),
            ogd_highprob_bound(1.0, 0.9, ks, psi, 0.5, 0.1, 1.0),
            opgm_expectation_bound(1.0, 0.9, ks, psi, 2.0),
            opgm_highprob_bound(1.0, 0.9, ks, psi, 2.0, 0.5, 0.1),
            markov_highprob_bound(np.ones(8), 0.1),
        ):
            assert type(series) is np.ndarray and series.shape == (8,)

    def test_each_series_keeps_its_checks(self):
        ks = np.zeros(4)
        bad_calls = [
            # non-positive smoothness or diameter
            lambda: ogd_expectation_bound(1.0, 0.9, ks, ks, 0.0),
            lambda: ogd_highprob_bound(1.0, 0.9, ks, ks, 0.5, 0.1, -1.0),
            lambda: opgm_highprob_bound(1.0, 0.9, ks, ks, 0.0, 0.5, 0.1),
            # zeta outside (0, 1), negative r0
            lambda: opgm_expectation_bound(1.0, 1.0, ks, ks, 2.0),
            lambda: ogd_highprob_bound(-1.0, 0.9, ks, ks, 0.5, 0.1, 1.0),
            # delta outside (0, 1)
            lambda: opgm_highprob_bound(1.0, 0.9, ks, ks, 2.0, 0.5, 0.0),
            lambda: markov_highprob_bound(np.ones(5), 1.0),
            # negative costs, psi of another length, a scalar statistic
            lambda: opgm_highprob_bound(1.0, 0.9, -np.ones(4), ks, 2.0, 0.5, 0.1),
            lambda: ogd_expectation_bound(1.0, 0.9, ks, -np.ones(4), 1.0),
            lambda: opgm_expectation_bound(1.0, 0.9, ks, np.zeros(5), 2.0),
            lambda: ogd_expectation_bound(1.0, 0.9, 0.1, 0.0, 1.0),
        ]
        for call in bad_calls:
            with pytest.raises(ValueError):
                call()
