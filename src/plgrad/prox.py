"""Proximal operators for the supported nonsmooth regularizers.

Two kinds cover the composite costs in scope: no regularizer (prox is the
identity) and a box indicator (clamp).  prox(step, v) = argmin_y
{ ||y - v||^2 / (2 step) + g(y) } in closed form for each.  value and prox
accept one point of shape (n,) or a batch of points as the rows of an
(R, n) matrix; prox writes into `out` when it is given (v itself, or an
array of v's shape that does not overlap it) and returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("none", "box")


@dataclass(frozen=True, eq=False)
class Regularizer:
    """Nonsmooth term g with evaluation and closed-form prox.

    kind "none": g = 0.  kind "box": indicator of {lo <= x <= hi} (0
    inside, +inf outside).
    """

    kind: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValueError("box regularizer requires lo and hi bounds")
            if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
                raise ValueError("box bounds must be finite")
            if np.any(self.lo > self.hi):
                raise ValueError("box bounds must satisfy lo <= hi elementwise")

    @staticmethod
    def none() -> "Regularizer":
        return Regularizer("none")

    @staticmethod
    def box(lo, hi) -> "Regularizer":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        return Regularizer("box", lo=lo, hi=hi)

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """g(x), one value per row of x (a scalar for a 1-D x)."""
        if self.kind == "none":
            return np.zeros(np.shape(x)[:-1])[()]
        inside = (x >= self.lo - 1e-12) & (x <= self.hi + 1e-12)
        return np.where(inside.all(axis=-1), 0.0, np.inf)[()]

    def prox(self, step: float, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if step <= 0:
            raise ValueError(f"prox step must be positive, got {step}")
        v = np.asarray(v, dtype=float)
        if self.kind == "none":
            return np.positive(v, out=out)  # identity: a copy, into out when given
        # np.clip's bits, without its Python-level overhead
        y = np.maximum(v, self.lo, out=out)
        return np.minimum(y, self.hi, out=y)


def prox_objective(reg: Regularizer, step: float, v: np.ndarray, y: np.ndarray) -> float:
    """||y - v||^2 / (2 step) + g(y), the quantity prox minimizes."""
    return float(np.sum((y - v) ** 2) / (2.0 * step) + reg.value(y))


# the grid oracle's final spacing: a hundredth of the 1e-6 its callers check
GRID_SPACING = 1e-8


def grid_argmin_prox(
    reg: Regularizer, step: float, v: np.ndarray, points: int = 201
) -> np.ndarray:
    """Brute-force argmin of ||y - v||^2 / (2 step) + g(y) for v of shape (n,).

    The reference for the closed form, so it never calls prox.  Every g in
    scope is separable, so a product mesh's argmin is found per coordinate:
    the n axes are searched at once as an (n, points) array.  The first
    window is the box (axes clipped to it) or v +/- (|v| + 1).
    Each coordinate's objective is convex, so its minimizer lies within one
    spacing of the grid argmin; the next window, 4 / (points - 1) as wide,
    keeps a two-cell margin.  The zoom ends at a spacing of GRID_SPACING.
    """
    if step <= 0:
        raise ValueError(f"prox step must be positive, got {step}")
    if points < 6:  # the window must shrink: 4 / (points - 1) < 1
        raise ValueError(f"grid needs at least 6 points to zoom, got {points}")
    v = np.asarray(v, dtype=float)
    if reg.kind == "box":  # bounds broadcast against v, as in prox
        lo, hi = np.broadcast_to(reg.lo, v.shape), np.broadcast_to(reg.hi, v.shape)
        best, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    else:
        best = v
        half = np.abs(v) + 1.0
    if not (np.all(np.isfinite(best)) and np.all(np.isfinite(half))):
        raise ValueError("grid oracle needs a finite starting window")
    rows = np.arange(v.shape[0])
    unit = np.linspace(-1.0, 1.0, points)
    # every zoom rewrites the grid and its objective in these two buffers,
    # in the operation order of best + half unit and (axes - v)^2 / (2 step)
    axes = np.empty((v.shape[0], points))
    obj = np.empty_like(axes)
    while True:
        np.add(best[:, None], np.multiply(half[:, None], unit, out=axes), out=axes)
        if reg.kind == "box":
            np.maximum(axes, lo[:, None], out=axes)
            np.minimum(axes, hi[:, None], out=axes)
        np.square(np.subtract(axes, v[:, None], out=obj), out=obj)
        obj /= 2.0 * step
        best = axes[rows, np.argmin(obj, axis=1)]
        if 2.0 * np.max(half) / (points - 1) <= GRID_SPACING:
            return best
        half = half * (4.0 / (points - 1))
