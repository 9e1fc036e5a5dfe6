"""Proximal operators for the supported nonsmooth regularizers.

Three kinds cover the composite costs in scope: no regularizer (prox is the
identity), an l1 penalty (soft thresholding), and a box indicator (clamp).
prox(step, v) = argmin_y { ||y - v||^2 / (2 step) + g(y) } in closed form
for each.  value and prox accept one point of shape (n,) or a batch of
points as the rows of an (R, n) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("none", "l1", "box")


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - tau, 0); exact threshold maps to 0."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@dataclass(frozen=True, eq=False)
class Regularizer:
    """Nonsmooth term g with evaluation and closed-form prox.

    kind "none": g = 0.  kind "l1": g(x) = weight * sum |x_i|.  kind "box":
    indicator of {lo <= x <= hi} (0 inside, +inf outside).
    """

    kind: str
    weight: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "l1" and self.weight < 0:
            raise ValueError(f"l1 weight must be nonnegative, got {self.weight}")
        if self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValueError("box regularizer requires lo and hi bounds")
            if np.any(self.lo > self.hi):
                raise ValueError("box bounds must satisfy lo <= hi elementwise")

    @staticmethod
    def none() -> "Regularizer":
        return Regularizer("none")

    @staticmethod
    def l1(weight: float) -> "Regularizer":
        return Regularizer("l1", weight=weight)

    @staticmethod
    def box(lo, hi) -> "Regularizer":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        return Regularizer("box", lo=lo, hi=hi)

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """g(x), one value per row of x (a scalar for a 1-D x)."""
        if self.kind == "none":
            return np.zeros(np.shape(x)[:-1])[()]
        if self.kind == "l1":
            return self.weight * np.sum(np.abs(x), axis=-1)
        inside = (x >= self.lo - 1e-12) & (x <= self.hi + 1e-12)
        return np.where(np.all(inside, axis=-1), 0.0, np.inf)[()]

    def prox(self, step: float, v: np.ndarray) -> np.ndarray:
        if step <= 0:
            raise ValueError(f"prox step must be positive, got {step}")
        v = np.asarray(v, dtype=float)
        if self.kind == "none":
            return v.copy()
        if self.kind == "l1":
            return soft_threshold(v, step * self.weight)
        # np.clip's bits, without its Python-level overhead
        y = np.maximum(v, self.lo)
        return np.minimum(y, self.hi, out=y)


def prox_objective(reg: Regularizer, step: float, v: np.ndarray, y: np.ndarray) -> float:
    """||y - v||^2 / (2 step) + g(y), the quantity prox minimizes."""
    return float(np.sum((y - v) ** 2) / (2.0 * step) + reg.value(y))


def prox_objective_gap(
    reg: Regularizer, step: float, v: np.ndarray, y: np.ndarray
) -> float:
    """Prox objective at y minus at the closed-form prox point (>= 0)."""
    if step <= 0:
        raise ValueError(f"prox step must be positive, got {step}")
    return prox_objective(reg, step, v, y) - prox_objective(
        reg, step, v, reg.prox(step, v)
    )
