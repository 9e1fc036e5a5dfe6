"""Certificate series: recursion-vs-sum agreement, factors, limits."""

import math

import numpy as np
import pytest

from plgrad.bounds import (
    Recursion,
    expectation_bound,
    geometric_recursion,
    highprob_bound,
    highprob_factor,
    markov_highprob_bound,
    recursion,
)
from plgrad.subweibull import SubWeibullParams, hp_bound


def ogd(zeta, smoothness):
    return Recursion(zeta, 2, 1.0 / (2.0 * smoothness))


def opgm(zeta, diameter):
    return Recursion(zeta, 1, 2.0 * diameter)


def contraction(zeta):
    """A record that only geometric_recursion reads: its zeta alone."""
    return Recursion(zeta, 1, 1.0)


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
            rec = geometric_recursion(r0, contraction(zeta), costs)
            np.testing.assert_allclose(rec, direct_sum(r0, zeta, costs), rtol=1e-12)

    def test_bits_of_the_float64_loop(self):
        # the recursion stepped on float64 scalars into a preallocated array
        rng = np.random.default_rng(11)
        for zeta in (0.0, 0.3, 0.9, 1.0 - 2.0**-20):
            costs = rng.uniform(0.0, 2.0, size=400) * 10.0 ** rng.integers(-300, 280, size=400)
            costs[::7] = 0.0
            expected = np.empty(len(costs) + 1)
            expected[0] = acc = 3.7
            for t, c in enumerate(costs):
                acc = zeta * acc + c
                expected[t + 1] = acc
            series = geometric_recursion(3.7, contraction(zeta), costs)
            assert series.tobytes() == expected.tobytes()

    def test_zero_costs_decay_geometrically(self):
        values = geometric_recursion(2.0, contraction(0.9), np.zeros(100))
        np.testing.assert_allclose(values, 2.0 * 0.9 ** np.arange(101), rtol=1e-12)

    def test_constant_costs_reach_geometric_limit(self):
        # m/(2L) + p over 1 - zeta; frozen at 0.05 for the worked numbers
        series = expectation_bound(1.0, ogd(0.9, 1.0), np.full(2000, 0.01), np.zeros(2000))
        assert series[-1] == pytest.approx(0.05, rel=1e-9)

    def test_zeta_validation(self):
        # the record holds zeta to [0, 1) (TestContraction), and its end
        # zeta = 0 (mu = L) forgets the past: B_{t+1} = c_{t+1}
        costs = np.array([0.5, 2.0, 0.25])
        series = geometric_recursion(1.0, contraction(0.0), costs)
        np.testing.assert_array_equal(series, [1.0, 0.5, 2.0, 0.25])
        with pytest.raises(ValueError):
            geometric_recursion(-1.0, contraction(0.5), np.zeros(3))


class TestContraction:
    """The record is the one place that holds zeta to [0, 1)."""

    @pytest.mark.parametrize("zeta", [1.0, 1.5, -0.1, math.nan])
    def test_record_rejects_zeta_outside_range(self, zeta):
        # with the message `plgrad run` gives
        with pytest.raises(ValueError, match=r"contraction 1 - mu/L must lie in \[0, 1\)"):
            Recursion(zeta, 2, 1.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0, 2.0, 1e-300, math.nan])
    def test_constructor_rejects_mu_outside_range(self, mu):
        # 1 - 1e-300 rounds to 1
        for solver in ("ogd", "opgm"):
            with pytest.raises(ValueError, match="contraction 1 - mu/L must lie in"):
                recursion(solver, 1.0, mu, 1.0)


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
            1.0, ogd(0.9, 1.0), np.zeros(50), np.zeros(50), theta=0.5, delta=0.1
        )
        h = highprob_factor(2, 0.5, 0.1)
        np.testing.assert_allclose(series, h * 0.9 ** np.arange(51), rtol=1e-12)

    def test_highprob_matches_direct_sum_with_squared_scales(self):
        rng = np.random.default_rng(8)
        ks = rng.uniform(0.0, 1.0, size=200)
        psi = rng.uniform(0.0, 0.5, size=200)
        theta, delta, l = 0.75, 0.05, 2.0
        series = highprob_bound(0.3, ogd(0.8, l), ks, psi, theta, delta)
        costs = (4.0**theta / (2 * l)) * ks**2 + psi
        oracle = highprob_factor(2, theta, delta) * direct_sum(0.3, 0.8, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_monotone_in_delta(self):
        ks = np.full(20, 0.5)
        psi = np.zeros(20)
        prev = None
        for delta in (0.01, 0.05, 0.1, 0.5, 0.9):
            series = highprob_bound(1.0, ogd(0.9, 1.0), ks, psi, 0.5, delta)
            if prev is not None:
                assert np.all(prev >= series)
            prev = series


class TestProxMethodBounds:
    def test_noiseless_is_geometric(self):
        series = expectation_bound(2.0, opgm(0.95, 5.0), np.zeros(40), np.zeros(40))
        np.testing.assert_allclose(series, 2.0 * 0.95 ** np.arange(41), rtol=1e-12)

    def test_constant_error_limit(self):
        # 2 D m_bar / (1 - zeta)
        series = expectation_bound(0.0, opgm(0.9, 3.0), np.full(3000, 0.2), np.zeros(3000))
        assert series[-1] == pytest.approx(2 * 3.0 * 0.2 / 0.1, rel=1e-9)

    def test_highprob_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        ks = rng.uniform(0.0, 1.0, size=150)
        psi = rng.uniform(0.0, 0.3, size=150)
        series = highprob_bound(1.0, opgm(0.85, 4.0), ks, psi, 1.0, 0.1)
        costs = 2 * 4.0 * ks + psi
        oracle = highprob_factor(1, 1.0, 0.1) * direct_sum(1.0, 0.85, costs)
        np.testing.assert_allclose(series, oracle, rtol=1e-12)

    def test_diameter_validation(self):
        with pytest.raises(ValueError):
            expectation_bound(1.0, opgm(0.9, 0.0), np.zeros(5), np.zeros(5))


class TestAsymptote:
    """The long-run cap (weight e_bar + psi_bar) / (1 - zeta), read off the
    record alone."""

    def test_exact_convergence_case(self):
        assert ogd(0.5, 1.0).cap(0.0, 0.0) == 0.0

    def test_worked_value(self):
        # (0.01 / 2) / (1 - 0.9)
        assert ogd(0.9, 1.0).cap(0.01, 0.0) == pytest.approx(0.05, rel=1e-12)

    def test_linear_in_error_level(self):
        rec = ogd(0.8, 1.0)
        assert rec.cap(0.08, 0.0) == pytest.approx(2 * rec.cap(0.04, 0.0), rel=1e-12)

    def test_variability_term(self):
        assert ogd(0.9, 1.0).cap(0.0, 0.3) == pytest.approx(3.0, rel=1e-12)

    def test_zeta_zero_cap_is_one_step_cost(self):
        # zeta = 0 (mu = L) forgets the past: the cap is the cost itself
        assert opgm(0.0, 3.0).cap(0.2, 0.1) == 2 * 3.0 * 0.2 + 0.1

    @pytest.mark.parametrize("rec", [ogd(0.75, 2.0), opgm(0.75, 3.0)], ids=["ogd", "opgm"])
    def test_fixed_point_of_the_expectation_recursion(self, rec):
        # 400 steps leave 0.75^400 of r0
        series = expectation_bound(1.0, rec, np.full(400, 0.2), np.full(400, 0.1))
        assert rec.cap(0.2, 0.1) == pytest.approx(series[-1], rel=1e-12)

    def test_validation(self):
        bad = [(-0.1, 0.0), (0.0, -0.1), (math.inf, 0.0), (math.nan, 0.0), (0.0, math.inf)]
        for e_bar, psi_bar in bad:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ogd(0.9, 1.0).cap(e_bar, psi_bar)

    def test_cap_that_overflows_a_float_raises(self):
        # finite inputs, but psi_bar / (1 - 0.9) = 10 * 1e308 is inf; a run's
        # constants may be float64 scalars, whose overflow warning is an
        # error under this suite
        for real in (float, np.float64):
            with pytest.raises(ValueError, match="not finite"):
                Recursion(real(0.9), 2, real(0.5)).cap(0.0, 1e308)


class TestOverflow:
    """A series with an entry that overflows a float raises, and numpy's
    overflow warning (an error under this suite) is not raised on the way."""

    def test_highprob_whose_squared_scale_overflows(self):
        ks = np.array([1.0, 1e200])
        with pytest.raises(ValueError, match="overflows a float"):
            highprob_bound(1.0, ogd(0.9, 1.0), ks, np.zeros(2), 0.5, 0.05)

    def test_expectation_whose_costs_overflow(self):
        with pytest.raises(ValueError, match="overflows a float"):
            expectation_bound(1.0, opgm(0.9, 10.0), np.full(3, 1e308), np.zeros(3))

    def test_markov_whose_quotient_overflows(self):
        # 1.5 / delta is finite at delta = 1e-308, but 10 / delta is not
        with pytest.raises(ValueError, match="overflows a float"):
            markov_highprob_bound(np.array([1.0, 10.0]), 1e-308)
        assert np.isfinite(markov_highprob_bound(np.array([1.0, 1.5]), 1e-308)).all()


class TestErrorCost:
    """The error cost (power, weight) each solver's Recursion carries, and
    the constants it is formed from; zeta's range is TestContraction's."""

    def test_each_solver_has_its_stated_record(self):
        assert recursion("ogd", 4.0, 1.0, None) == Recursion(zeta=0.75, power=2, weight=1.0 / 8.0)
        assert recursion("opgm", 4.0, 1.0, 3.0) == Recursion(zeta=0.75, power=1, weight=6.0)
        # the gradient method reads no diameter
        assert recursion("ogd", 4.0, 1.0, 0.0) == recursion("ogd", 4.0, 1.0, 7.0)

    @pytest.mark.parametrize(
        "solver,smoothness,diameter",
        [("ogd", 0.0, 1.0), ("ogd", -1.0, 1.0), ("opgm", 1.0, 0.0), ("opgm", 1.0, -2.0),
         ("opgm", 0.0, 1.0)],
    )
    def test_non_positive_constant_rejected(self, solver, smoothness, diameter):
        with pytest.raises(ValueError, match="must be positive"):
            recursion(solver, smoothness, 0.5, diameter)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            recursion("sgd", 1.0, 0.5, 1.0)

    def test_record_rejects_non_positive_fields(self):
        for power, weight in [(0, 1.0), (2, 0.0), (1, -1.0), (1, math.inf)]:
            with pytest.raises(ValueError, match="power and weight"):
                Recursion(0.5, power, weight)


class TestMarkovComparison:
    def test_half_delta_doubles(self):
        exp = expectation_bound(1.0, ogd(0.9, 1.0), np.full(10, 0.1), np.zeros(10))
        markov = markov_highprob_bound(exp, 0.5)
        np.testing.assert_allclose(markov, 2 * exp, rtol=1e-15)

    def test_delta_near_one_changes_nothing(self):
        exp = expectation_bound(1.0, ogd(0.9, 1.0), np.full(10, 0.1), np.zeros(10))
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
            expectation_bound(1.0, ogd(0.9, 1.0), np.array([-0.1]), np.zeros(1))
        with pytest.raises(ValueError):
            highprob_bound(1.0, ogd(0.9, 1.0), np.zeros(5), np.zeros(5), 0.5, 1.5)

    def test_series_are_plain_arrays_of_length_t_plus_one(self):
        ks, psi = np.full(7, 0.2), np.zeros(7)
        for series in (
            expectation_bound(1.0, ogd(0.9, 1.0), ks, psi),
            highprob_bound(1.0, ogd(0.9, 1.0), ks, psi, 0.5, 0.1),
            expectation_bound(1.0, opgm(0.9, 2.0), ks, psi),
            highprob_bound(1.0, opgm(0.9, 2.0), ks, psi, 0.5, 0.1),
            markov_highprob_bound(np.ones(8), 0.1),
        ):
            assert type(series) is np.ndarray and series.shape == (8,)

    def test_each_series_keeps_its_checks(self):
        ks = np.zeros(4)
        bad_calls = [
            # negative r0; the record's own checks are TestRecursion's
            lambda: highprob_bound(-1.0, ogd(0.9, 1.0), ks, ks, 0.5, 0.1),
            # delta outside (0, 1)
            lambda: highprob_bound(1.0, opgm(0.9, 2.0), ks, ks, 0.5, 0.0),
            lambda: markov_highprob_bound(np.ones(5), 1.0),
            # negative costs, psi of another length, a scalar statistic
            lambda: highprob_bound(1.0, opgm(0.9, 2.0), -np.ones(4), ks, 0.5, 0.1),
            lambda: expectation_bound(1.0, ogd(0.9, 1.0), ks, -np.ones(4)),
            lambda: expectation_bound(1.0, opgm(0.9, 2.0), ks, np.zeros(5)),
            lambda: expectation_bound(1.0, ogd(0.9, 1.0), 0.1, 0.0),
        ]
        for call in bad_calls:
            with pytest.raises(ValueError):
                call()
