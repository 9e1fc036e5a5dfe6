"""Closed-form prox operators against a dense grid-argmin oracle."""

import numpy as np
import pytest
from grid_oracles import grid_argmin_prox

from plgrad.prox import Regularizer, prox_objective_gap


class TestClosedForms:
    def test_none_is_identity(self):
        v = np.array([1.0, -2.0, 0.3])
        assert np.array_equal(Regularizer.none().prox(0.7, v), v)

    @pytest.mark.parametrize(
        "v,expected",
        [(1.5, 1.0), (0.3, 0.0), (-2.0, -1.5), (0.5, 0.0), (-0.5, 0.0)],
    )
    def test_soft_threshold_values(self, v, expected):
        # threshold step * weight = 0.5; exact-threshold inputs map to 0
        reg = Regularizer.l1(0.5)
        out = reg.prox(1.0, np.array([v]))
        assert out[0] == pytest.approx(expected, abs=1e-15)
        oracle = grid_argmin_prox(reg, 1.0, np.array([v]))
        assert out[0] == pytest.approx(oracle[0], abs=1e-6)

    @pytest.mark.parametrize("v,expected", [(73.0, 50.0), (-12.0, -12.0), (-61.0, -50.0)])
    def test_box_clamp_values(self, v, expected):
        reg = Regularizer.box([-50.0], [50.0])
        out = reg.prox(1.0, np.array([v]))
        assert out[0] == expected
        oracle = grid_argmin_prox(reg, 1.0, np.array([v]))
        assert out[0] == pytest.approx(oracle[0], abs=1e-6)

    @pytest.mark.parametrize("kind", ["none", "l1", "box"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_grid_oracle_equivalence(self, kind, n):
        rng = np.random.default_rng(hash((kind, n)) % 2**32)
        for _ in range(30):
            v = rng.uniform(-3.0, 3.0, size=n)
            step = rng.uniform(0.05, 2.0)
            if kind == "none":
                reg = Regularizer.none()
            elif kind == "l1":
                reg = Regularizer.l1(rng.uniform(0.0, 2.0))
            else:
                lo = rng.uniform(-2.0, 0.0, size=n)
                reg = Regularizer.box(lo, lo + rng.uniform(0.2, 3.0, size=n))
            closed = reg.prox(step, v)
            oracle = grid_argmin_prox(reg, step, v)
            assert np.max(np.abs(closed - oracle)) <= 1e-6


class TestProperties:
    @pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.l1(0.8),
            Regularizer.box(np.array([-1.0, -2.0, 0.0]), np.array([1.0, 0.5, 3.0])),
        ],
        ids=["none", "l1", "box"],
    )
    def test_nonexpansive(self, reg):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, size=3)
            v = rng.uniform(-5.0, 5.0, size=3)
            step = rng.uniform(0.1, 3.0)
            d_out = np.linalg.norm(reg.prox(step, u) - reg.prox(step, v))
            assert d_out <= np.linalg.norm(u - v) + 1e-12

    def test_box_output_always_feasible(self):
        rng = np.random.default_rng(5)
        lo = np.array([-1.0, 0.0])
        hi = np.array([2.0, 0.5])
        reg = Regularizer.box(lo, hi)
        for _ in range(500):
            out = reg.prox(0.3, rng.uniform(-10.0, 10.0, size=2))
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_objective_gap_zero_at_prox(self):
        reg = Regularizer.l1(1.2)
        v = np.array([0.4, -3.0, 1.7])
        y = reg.prox(0.5, v)
        assert prox_objective_gap(reg, 0.5, v, y) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.l1(0.8),
            Regularizer.box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        ],
        ids=["none", "l1", "box"],
    )
    def test_objective_gap_nonnegative_on_sweep(self, reg):
        rng = np.random.default_rng(17)
        for _ in range(300):
            v = rng.uniform(-4.0, 4.0, size=2)
            y = rng.uniform(-1.0, 1.0, size=2)  # feasible for the box case
            assert prox_objective_gap(reg, 0.7, v, y) >= -1e-12

    def test_objective_gap_quadratic_for_none(self):
        reg = Regularizer.none()
        v = np.array([1.0, 2.0])
        d = np.array([0.3, -0.4])
        step = 0.25
        expected = float(d @ d) / (2.0 * step)
        assert prox_objective_gap(reg, step, v, v + d) == pytest.approx(expected, rel=1e-12)

    def test_l1_value(self):
        reg = Regularizer.l1(2.0)
        assert reg.value(np.array([1.0, -3.0])) == pytest.approx(8.0)

    def test_box_value_indicator(self):
        reg = Regularizer.box([-1.0], [1.0])
        assert reg.value(np.array([0.5])) == 0.0
        assert reg.value(np.array([1.5])) == np.inf


class TestValidation:
    def test_bad_box_bounds(self):
        with pytest.raises(ValueError):
            Regularizer.box([1.0], [0.0])

    def test_negative_l1_weight(self):
        with pytest.raises(ValueError):
            Regularizer.l1(-0.5)

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            Regularizer.none().prox(0.0, np.array([1.0]))
