"""Gradient-error oracles: seeded samplers with certified norm envelopes.

Each noise family draws error vectors e_t and carries a sub-Weibull envelope
for ||e_t||, i.e. a pair (theta, K) with |||e_t|||_p <= K p**theta for all
p >= 1.  Envelopes are computed from exact moment formulas where the family
admits them (Gaussian and radial-Weibull norms) or from an almost-sure bound
(bounded support).

Sampling is stateless: each trial's whole horizon of errors is one block
drawn from a stream keyed by (seed, tag, trial), so trials can be drawn in
any order or grouping and reproduce bit-exactly.  GradientErrors draws,
maps, measures and bounds the errors of one problem; nothing else does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .subweibull import SubWeibullParams, add_scalar, scale

FAMILIES = ("gaussian_iid", "bounded_uniform", "weibull_tail")

# one tag per consumer of a seed, so no two draw the same numbers
STREAMS = {"build": 1, "noise": 2, "verify": 3, "gradient": 4, "pl": 5, "prox": 6}


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma on each entry of a 1-D array, for the moment grids of
    the envelopes.  np.vectorize gives the same bits but holds the grid as
    Python floats in an object array, a transient of about 0.5 MB."""
    return np.fromiter(map(math.lgamma, x), float, count=len(x))


@dataclass(frozen=True)
class NoiseModel:
    """Distribution family and parameters for the gradient error e_t.

    family: one of FAMILIES.
    scale: std (gaussian_iid), half-width (bounded_uniform) or Weibull scale
        (weibull_tail), in gradient units.  No noise is scale = 0, the
        default: every family then draws zeros, with K = 0.
    weibull_shape: Weibull shape parameter; the norm envelope then has tail
        exponent theta = 1/shape.  Ignored by the other families.
    bias: constant offset added to every coordinate (the theory does not
        require zero-mean errors; no preset exercises this).
    per_time_scale: optional sequence of multipliers c_t on the whole error
        at time t, bias included, so that K_t = c_t K, E||e_t|| = c_t E||e||
        and E||e_t||^2 = c_t^2 E||e||^2 (see `time_scales`).
    envelope_k_scale: diagnostic multiplier on the certified K (1.0 = honest
        envelope).  Values below 1 deliberately mis-specify the envelope and
        exist only so validation runs can demonstrate a failing verdict.
    """

    family: str = "gaussian_iid"
    scale: float = 0.0
    weibull_shape: float = 1.0
    bias: float = 0.0
    per_time_scale: tuple[float, ...] | None = None
    envelope_k_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale}")
        if not 0 < self.weibull_shape < math.inf:
            raise ValueError(f"weibull_shape must be finite and positive, got {self.weibull_shape}")
        if not -math.inf < self.bias < math.inf:
            raise ValueError(f"bias must be finite, got {self.bias}")
        if self.per_time_scale is not None and any(
            not 0 <= c < math.inf for c in self.per_time_scale
        ):
            raise ValueError("per_time_scale entries must be finite and nonnegative")
        if not 0 < self.envelope_k_scale < math.inf:
            raise ValueError("envelope_k_scale must be finite and positive")

    @property
    def theta(self) -> float:
        """Tail exponent of the norm envelope."""
        if self.family == "weibull_tail":
            return 1.0 / self.weibull_shape
        # Gaussian and bounded-support coordinates are sub-Gaussian
        return 0.5


def time_scales(model: NoiseModel, horizon: int) -> np.ndarray:
    """The multipliers c_0..c_{horizon-1} on the errors; ones without a schedule."""
    if model.per_time_scale is None:
        return np.ones(horizon)
    if len(model.per_time_scale) < horizon:
        raise ValueError(
            f"per_time_scale covers {len(model.per_time_scale)} steps, need {horizon}"
        )
    return np.asarray(model.per_time_scale[:horizon], dtype=float)


def stream(seed: int, name: str, *key: int) -> np.random.Generator:
    """The named consumer's generator, keyed by (seed, tag, *key)."""
    return np.random.default_rng((int(seed), STREAMS[name], *map(int, key)))


def sample(model: NoiseModel, n: int, seed: int, trial: int, horizon: int) -> np.ndarray:
    """Draw e_0..e_{horizon-1} as rows of a (horizon, n) block.

    Bit-reproducible for a fixed (seed, trial); row t, bias included, is
    scaled by c_t = per_time_scale[t] when the model has one.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    c = time_scales(model, horizon)
    scales = model.scale * c
    if model.scale == 0.0:
        e = np.zeros((horizon, n))
    else:
        rng = stream(seed, "noise", trial)
        if model.family == "gaussian_iid":
            e = rng.standard_normal((horizon, n)) * scales[:, None]
        elif model.family == "bounded_uniform":
            e = rng.uniform(-1.0, 1.0, size=(horizon, n)) * scales[:, None]
        else:  # weibull_tail: Weibull radius in a uniform direction
            radius = scales * rng.weibull(model.weibull_shape, size=horizon)
            direction = rng.standard_normal((horizon, n))
            norm = np.linalg.norm(direction, axis=1)
            while np.any(norm == 0.0):  # pragma: no cover - probability zero
                zero = norm == 0.0
                direction[zero] = rng.standard_normal((int(zero.sum()), n))
                norm = np.linalg.norm(direction, axis=1)
            e = (radius / norm)[:, None] * direction
    if model.bias != 0.0:
        e = e + model.bias * c[:, None]
    return e


def _max_moment_ratio(log_moment_norm, theta: float) -> float:
    """sup over p >= 1 of exp(log_moment_norm(p)) / p**theta on a dense grid.

    The grid ends at p = 400; a ratio that is largest there may still grow
    beyond it, and then the grid sup understates K, so that case raises.
    """
    p = np.concatenate([np.linspace(1.0, 20.0, 4000), np.linspace(20.0, 400.0, 2000)])
    ratios = np.exp(log_moment_norm(p) - theta * np.log(p))
    sup = float(np.max(ratios))
    if ratios[-1] == sup and ratios[:-1].max() < sup:  # the argmax is the last point
        raise ValueError(
            f"moment ratio is largest at the grid edge p = {p[-1]:g}; "
            f"the sup over p >= 1 may exceed {sup:.6g} (theta = {theta:g})"
        )
    return sup


def _gaussian_norm_k(sigma: float, n: int) -> float:
    """Exact sub-Gaussian moment scale of ||N(0, sigma^2 I_n)||.

    Uses E||e||^p = sigma^p 2^(p/2) Gamma((n+p)/2) / Gamma(n/2) and maximizes
    the moment ratio over p.
    """

    def log_norm(p):
        return (
            np.log(sigma)
            + 0.5 * np.log(2.0)
            + (_lgamma((n + p) / 2.0) - math.lgamma(n / 2.0)) / p
        )

    return _max_moment_ratio(log_norm, 0.5)


def _weibull_k(lam: float, shape: float) -> float:
    """Exact moment scale of a Weibull(scale lam, shape) radius.

    E R^p = lam^p Gamma(1 + p/shape); the envelope exponent is 1/shape.
    """

    def log_norm(p):
        return np.log(lam) + _lgamma(1.0 + p / shape) / p

    return _max_moment_ratio(log_norm, 1.0 / shape)


def envelope_norm(model: NoiseModel, n: int) -> SubWeibullParams:
    """Certified sub-Weibull envelope for ||e_t|| at the base scale.

    For a time-varying model the envelope at time t is the base envelope
    with K multiplied by c_t (see `time_scales`).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    theta = model.theta
    s = model.scale
    if s == 0.0:
        base = SubWeibullParams(theta, 0.0)
    elif model.family == "gaussian_iid":
        base = SubWeibullParams(theta, _gaussian_norm_k(s, n))
    elif model.family == "bounded_uniform":
        # ||e|| <= s * sqrt(n) almost surely, so the a.s. bound is a valid K
        # for any p (p**theta >= 1).
        base = SubWeibullParams(theta, s * np.sqrt(n))
    else:
        base = SubWeibullParams(theta, _weibull_k(s, model.weibull_shape))
    if model.bias != 0.0:
        base = add_scalar(base, abs(model.bias) * np.sqrt(n))
    return scale(base, model.envelope_k_scale)


def second_moment(model: NoiseModel, n: int) -> float:
    """Exact E ||e||^2 at the base scale for the supported families.

    A schedule multiplies it by c_t^2 at time t.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    s = model.scale
    if model.family == "gaussian_iid":
        raw = n * s**2
    elif model.family == "bounded_uniform":
        raw = n * s**2 / 3.0
    else:
        # radius moment: E R^2 = lam^2 Gamma(1 + 2/shape)
        raw = s**2 * math.exp(math.lgamma(1.0 + 2.0 / model.weibull_shape))
    # all raw families are zero-mean, so the offset adds in quadrature
    return float(raw + n * model.bias**2)


def mean_norm(model: NoiseModel, n: int) -> float:
    """E ||e|| at the base scale: exact where a closed form exists, else a
    valid upper bound.  A schedule multiplies it by c_t at time t.

    bounded_uniform has no closed-form norm mean; sqrt(E||e||^2) is returned
    instead (an upper bound by Jensen, safe for certificates).  A nonzero
    bias likewise upper-bounds via the triangle inequality.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    s = model.scale
    if model.family == "gaussian_iid":
        raw = s * np.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
    elif model.family == "bounded_uniform":
        raw = s * np.sqrt(n / 3.0)
    else:
        raw = s * math.exp(math.lgamma(1.0 + 1.0 / model.weibull_shape))
    if model.bias == 0.0:
        return float(raw)
    return float(raw + abs(model.bias) * np.sqrt(n))


class GradientErrors:
    """The gradient errors e_t of one problem under one noise model: the one
    place that draws them, measures ||e_t|| and bounds them.  The raw noise
    eta_t has dim entries: without an error_map, n on the gradient and
    e_t = eta_t; with one, one per row of A on the measured outputs A x,
    and e_t = A^T eta_t, so ||e_t|| <= error_gain ||eta_t||.  problem is
    an OnlineProblem, whose module imports this one."""

    def __init__(self, problem, model: NoiseModel):
        self.problem, self.model = problem, model
        a = problem.error_map
        self.dim = problem.n if a is None else len(a)
        self._measured = a is not None and len(a) > 1  # ||A^T eta|| has no closed form

    def map(self, raw: np.ndarray) -> np.ndarray:
        """e for raw noise of shape (dim,) or (R, dim): raw, or A^T raw by the problem."""
        return np.asarray(raw) if self.problem.error_map is None else self.problem._adjoint(raw)

    def draw(self, seed: int, trials: Sequence[int], horizon: int) -> tuple[np.ndarray, Iterator]:
        """The (trials, horizon + 1) norms, ||e_t|| in column t + 1, and an
        iterator over step t's noise as problem.evaluate takes it: None
        without noise (scale and bias 0), where nothing is drawn; else row t
        of the (horizon, trials, dim) stack of noise.sample's blocks, whose
        norms, ||eta|| or ||a|| |eta| on a one-row map, are written here; or,
        on a map of more rows, A^T eta_t, its norm written as it is read."""
        if self.model.scale == 0.0 and self.model.bias == 0.0:
            return np.zeros((len(trials), horizon + 1)), itertools.repeat(None)
        raw = np.stack([sample(self.model, self.dim, seed, k, horizon) for k in trials], axis=1)
        norms = np.zeros((len(trials), horizon + 1))
        if self._measured:
            return norms, self._mapped_steps(raw, norms)
        # by trial: on a strided 2-D view a ufunc allocates 128 KiB of buffers
        for k, row in enumerate(norms[:, 1:]):
            if self.problem.error_map is None:
                np.sqrt(np.vecdot(raw[:, k], raw[:, k], out=row), out=row)
            else:
                np.multiply(np.abs(raw[:, k, 0], out=row), self.problem.error_gain, out=row)
        return norms, iter(raw)

    def _mapped_steps(self, raw: np.ndarray, norms: np.ndarray) -> Iterator[np.ndarray]:
        for t, eta in enumerate(raw, 1):
            e = self.map(eta)
            np.sqrt(np.vecdot(e, e, out=norms[:, t]), out=norms[:, t])
            yield e

    def analytic(self, horizon: int, power: int) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form per-step (E||e_t||^power, K_t): the base-scale values
        times c_t^power and c_t.  The moments are exact for the identity
        map and for a one-row map a eta, whose norm is ||a|| |eta|; a map
        of more rows has E||A^T eta||^2 in closed form, and E||A^T eta||
        only as its Jensen bound.  A non-finite moment or K (a tiny
        weibull_shape overflows Gamma) is a ValueError."""
        model, m, a, gain = self.model, self.dim, self.problem.error_map, self.problem.error_gain
        try:
            if self._measured:
                # raw = z + b 1 with z zero-mean and isotropic, so the cross term
                # vanishes: E||A^T raw||^2 = (E||z||^2 / m) ||A||_F^2 + b^2 ||A^T 1||^2
                z_second = second_moment(replace(model, bias=0.0), m)
                ones_image = float(np.sum(np.sum(a, axis=0) ** 2))  # ||A^T 1||^2
                second = z_second / m * float(np.sum(a**2)) + model.bias**2 * ones_image
                mean = math.sqrt(second)
            else:
                second = gain**2 * second_moment(model, m)
                mean = gain * mean_norm(model, m)
            k = gain * envelope_norm(model, m).k
            if not (math.isfinite(second) and math.isfinite(mean) and math.isfinite(k)):
                raise ValueError(f"E||e||^2 = {second}, E||e|| = {mean}, K = {k}")
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"noise model has no finite closed form: {exc}") from exc
        c = time_scales(model, horizon)
        return c**power * (second if power == 2 else mean), c * k
