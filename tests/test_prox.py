"""Closed-form prox operators against a dense grid-argmin oracle."""

import numpy as np
import pytest

from plgrad.config import build_problem, make_config
from plgrad.prox import (
    GRID_CELLS,
    GRID_SPACING,
    Regularizer,
    grid_argmin_prox,
    prox_objective,
)


def objective_gap(reg, step, v, y):
    """Prox objective at y minus at the closed-form prox point (>= 0)."""
    return prox_objective(reg, step, v, y) - prox_objective(reg, step, v, reg.prox(step, v))


class TestClosedForms:
    def test_none_is_identity(self):
        v = np.array([1.0, -2.0, 0.3])
        assert np.array_equal(Regularizer.none().prox(0.7, v), v)

    @pytest.mark.parametrize("v,expected", [(73.0, 50.0), (-12.0, -12.0), (-61.0, -50.0)])
    def test_box_clamp_values(self, v, expected):
        reg = Regularizer.box([-50.0], [50.0])
        out = reg.prox(1.0, np.array([v]))
        assert out[0] == expected
        oracle = grid_argmin_prox(reg, 1.0, np.array([v, 0.0]))  # one bound for both
        assert out[0] == pytest.approx(oracle[0], abs=1e-6) and abs(oracle[1]) <= 1e-6

    @pytest.mark.parametrize("kind", ["none", "box"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_grid_oracle_equivalence(self, kind, n):
        rng = np.random.default_rng({"none": 100, "box": 200}[kind] + n)
        for _ in range(30):
            v = rng.uniform(-3.0, 3.0, size=n)
            step = rng.uniform(0.05, 2.0)
            if kind == "none":
                reg = Regularizer.none()
            else:
                lo = rng.uniform(-2.0, 0.0, size=n)
                reg = Regularizer.box(lo, lo + rng.uniform(0.2, 3.0, size=n))
            closed = reg.prox(step, v)
            oracle = grid_argmin_prox(reg, step, v)
            assert np.max(np.abs(closed - oracle)) <= 1e-6
            # no grid point beats the closed form's objective
            assert objective_gap(reg, step, v, oracle) >= -1e-12

    def test_oracle_resolves_the_full_size_box(self):
        # the 500-device box is 100 wide: four fixed zoom levels resolve it
        # only to 2e-6, above the 1e-6 tolerance
        cfg = make_config({"problem": {"n_der": 500}}, {"preset": "fig3-demand-response"})
        p = build_problem(cfg)
        reg, step = p.regularizer, 1.0 / p.smoothness
        rng = np.random.default_rng(601)
        for t in (0, p.horizon // 2, p.horizon):
            x = reg.lo + rng.uniform(0.0, 1.0, size=p.n) * (reg.hi - reg.lo)
            v = x - step * p.grad(t, x)
            assert np.max(np.abs(grid_argmin_prox(reg, step, v) - reg.prox(step, v))) <= 1e-6

    @pytest.mark.parametrize(
        "reg",
        [Regularizer.none(), Regularizer.box([-1.0, 0.0], [1.0, 0.5])],
        ids=["none", "box"],
    )
    def test_oracle_never_calls_the_closed_form(self, reg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid oracle called the closed-form path")

        monkeypatch.setattr(Regularizer, "prox", refuse)
        grid_argmin_prox(reg, 0.7, np.array([1.3, -0.4]))

def reference_grid_argmin(reg, step, v, points=21):
    """grid_argmin_prox with a fresh grid and objective at every zoom.

    The expression form the buffered, blocked oracle replaced: all rows at
    once, best + half unit, clamp, then (axes - v)^2 / (2 step), until the
    widest window's spacing reaches GRID_SPACING.  Also returns the largest
    number of grid points that share a zoom's minimal objective, so a test
    can show that it exercised a tie.
    """
    if reg.kind == "box":
        lo, hi = np.broadcast_to(reg.lo, v.shape), np.broadcast_to(reg.hi, v.shape)
        best, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    else:
        best, half = v, np.abs(v) + 1.0
    rows = np.arange(v.shape[0])
    unit = np.linspace(-1.0, 1.0, points)
    ties = 0
    while True:
        axes = best[:, None] + half[:, None] * unit
        if reg.kind == "box":
            axes = np.clip(axes, lo[:, None], hi[:, None])
        obj = (axes - v[:, None]) ** 2 / (2.0 * step)
        ties = max(ties, int(np.max(np.sum(obj == obj.min(axis=1, keepdims=True), axis=1))))
        best = axes[rows, np.argmin(obj, axis=1)]
        if 2.0 * np.max(half) / (points - 1) <= GRID_SPACING:
            return best, ties
        half = half * (4.0 / (points - 1))


def block_edges(points):
    """n on each side of the oracle's block edge at points, checked there."""
    rows = GRID_CELLS // points
    return dict.fromkeys((rows - 1, rows, rows + 1, 2 * rows + 1), (points,))


# n -> the point counts it is checked at: 1, 2 and 500 at the default 21
# points and at 201, and each block edge at its own count
GRID_CASES = {1: (21, 201), 2: (21, 201), 500: (21, 201), **block_edges(21), **block_edges(201)}


class TestGridBuffers:
    """The oracle's in-place grid, zoomed in row blocks, gives the bits of
    the expression form, which zooms every row at once."""

    @pytest.mark.parametrize("kind", ["none", "box"])
    @pytest.mark.parametrize("n", list(GRID_CASES))
    def test_matches_the_expression_form(self, kind, n):
        rng = np.random.default_rng({"none": 300, "box": 400}[kind] + n)
        for _ in range(10):
            v = rng.uniform(-3.0, 3.0, size=n)
            step = rng.uniform(0.05, 2.0)
            if kind == "none":
                reg = Regularizer.none()
            else:
                lo = rng.uniform(-2.0, 0.0, size=n)
                reg = Regularizer.box(lo, lo + rng.uniform(0.2, 3.0, size=n))
            for points in GRID_CASES[n]:
                expected, _ = reference_grid_argmin(reg, step, v, points)
                assert np.array_equal(grid_argmin_prox(reg, step, v, points), expected)

    def test_every_block_zooms_as_often_as_the_widest_window(self):
        # the widest starting window sits alone in the last block, so a
        # block that stopped at its own spacing would zoom fewer times; the
        # grid has an even point count, since an odd one holds v itself at
        # its centre and a none grid then returns v at any zoom count
        points = 200
        rows = GRID_CELLS // points
        n = 2 * rows + 1
        v = np.random.default_rng(600).uniform(-3.0, 3.0, size=n)
        v[-1] = 1e3
        reg = Regularizer.none()
        expected, _ = reference_grid_argmin(reg, 0.4, v, points)
        assert np.array_equal(grid_argmin_prox(reg, 0.4, v, points), expected)
        alone, _ = reference_grid_argmin(reg, 0.4, v[:rows], points)
        assert not np.array_equal(alone, expected[:rows])

    @pytest.mark.parametrize("points", [201, 6])
    def test_ties_keep_the_first_grid_point(self, points):
        # coordinate 0 starts halfway between the two middle grid points of
        # its [-1, 1] window, which then share the smallest objective; in
        # coordinate 1, v lies beyond the box, so every grid point past the
        # bound clamps to it and those points tie.  argmin takes the first
        unit = np.linspace(-1.0, 1.0, points)
        mid = points // 2
        reg = Regularizer.box([-1.0, 0.0], [1.0, 1.0])
        v = np.array([0.5 * (unit[mid - 1] + unit[mid]), 5.0])
        expected, ties = reference_grid_argmin(reg, 0.3, v, points)
        assert ties > 1
        assert np.array_equal(grid_argmin_prox(reg, 0.3, v, points), expected)


class TestProperties:
    @pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.box(np.array([-1.0, -2.0, 0.0]), np.array([1.0, 0.5, 3.0])),
        ],
        ids=["none", "box"],
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
        # v has one coordinate inside the box and one beyond each bound
        reg = Regularizer.box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        v = np.array([0.4, -3.0, 1.7])
        y = reg.prox(0.5, v)
        assert objective_gap(reg, 0.5, v, y) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "reg",
        [
            Regularizer.none(),
            Regularizer.box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        ],
        ids=["none", "box"],
    )
    def test_objective_gap_nonnegative_on_sweep(self, reg):
        rng = np.random.default_rng(17)
        for _ in range(300):
            v = rng.uniform(-4.0, 4.0, size=2)
            y = rng.uniform(-1.0, 1.0, size=2)  # feasible for the box case
            assert objective_gap(reg, 0.7, v, y) >= -1e-12

    def test_objective_gap_quadratic_for_none(self):
        reg = Regularizer.none()
        v = np.array([1.0, 2.0])
        d = np.array([0.3, -0.4])
        step = 0.25
        expected = float(d @ d) / (2.0 * step)
        assert objective_gap(reg, step, v, v + d) == pytest.approx(expected, rel=1e-12)

    def test_box_value_indicator(self):
        reg = Regularizer.box([-1.0], [1.0])
        assert reg.value(np.array([0.5])) == 0.0
        assert reg.value(np.array([1.5])) == np.inf


class TestValidation:
    def test_bad_box_bounds(self):
        with pytest.raises(ValueError):
            Regularizer.box([1.0], [0.0])

    @pytest.mark.parametrize(
        "lo, hi", [([np.nan], [1.0]), ([-np.inf], [1.0]), ([0.0], [np.inf]), ([0.0], [np.nan])]
    )
    def test_non_finite_box_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            Regularizer.box(lo, hi)

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            Regularizer.none().prox(0.0, np.array([1.0]))

    def test_grid_too_coarse_to_zoom(self):
        # 5 points shrink the window by 4 / (5 - 1) = 1: the zoom never ends
        reg = Regularizer.box(np.full(10, -1.0), np.full(10, 1.0))
        with pytest.raises(ValueError, match="zoom"):
            grid_argmin_prox(reg, 1.0, np.zeros(10), points=5)
