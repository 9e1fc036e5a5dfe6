"""Gradient-error oracles: seeded samplers with certified norm envelopes.

Each noise family draws error vectors e_t and carries a sub-Weibull envelope
for ||e_t||, i.e. a pair (theta, K) with |||e_t|||_p <= K p**theta for all
p >= 1.  For the Gaussian and radial-Weibull norms K is stated in closed
form: the sup of |||e_t|||_p / p**theta sits at p = 1, so K is the mean norm
(see `envelope_norm`).  Bounded support takes its almost-sure bound.

Sampling is stateless: each trial's whole horizon of errors is one block
drawn from a stream keyed by (seed, tag, trial), so trials can be drawn in
any order or grouping and reproduce bit-exactly.  GradientErrors draws,
maps, measures and bounds the errors of one problem; nothing else does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .subweibull import SubWeibullParams, add_scalar, scale

FAMILIES = ("gaussian_iid", "bounded_uniform", "weibull_tail")

# one tag per consumer of a seed, so no two draw the same numbers
STREAMS = {"build": 1, "noise": 2, "verify": 3, "gradient": 4, "pl": 5, "prox": 6}


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


def envelope_norm(model: NoiseModel, n: int) -> SubWeibullParams:
    """Certified sub-Weibull envelope for ||e_t|| at the base scale.

    K = sup over p >= 1 of ||X||_p / p**theta for the norm X of the
    bias-free noise.  For the two families with a moment formula the sup is
    at p = 1, so K = E X.  Both norms are powers of Y ~ Gamma(a), a >= 1/2:
    the Gaussian's ||z||^2 / (2 s^2) ~ Gamma(n/2), with theta = 1/2 and
    q = p/2, and the Weibull's (R/s)**shape ~ Gamma(1), with theta = 1/shape
    and q = p/shape.  In both, the ratio is a constant times a positive
    power of (E Y^q)^(1/q) / q, whose log has derivative
    (int_0^q v psi'(a+v) dv - q) / q^2.  That is negative, because
    psi'(a+v) <= psi'(1/2+v) = sum_k (k+1/2+v)^-2 < int_0^inf (t+v)^-2 dt
    = 1/v, the midpoint rule on a convex integrand.

    For a time-varying model the envelope at time t is the base envelope
    with K multiplied by c_t (see `time_scales`).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    theta = model.theta
    s = model.scale
    # K is formed in log space and raised with np.exp, which keeps the bits
    # the golden outputs hash; math.exp, or norm_moments' form of the same
    # mean, differs from it in the last bit for some models
    if s == 0.0:
        base = SubWeibullParams(theta, 0.0)
    elif model.family == "gaussian_iid":
        # the chi mean, E||z|| = s sqrt(2) Gamma((n+1)/2) / Gamma(n/2)
        log_k = np.log(s) + 0.5 * np.log(2.0) + (math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
        base = SubWeibullParams(theta, float(np.exp(log_k)))
    elif model.family == "bounded_uniform":
        # ||e|| <= s * sqrt(n) almost surely, so the a.s. bound is a valid K
        # for any p (p**theta >= 1).
        base = SubWeibullParams(theta, s * np.sqrt(n))
    else:  # the Weibull mean, E R = s Gamma(1 + 1/shape)
        log_k = np.log(s) + math.lgamma(1.0 + 1.0 / model.weibull_shape)
        base = SubWeibullParams(theta, float(np.exp(log_k)))
    if model.bias != 0.0:
        base = add_scalar(base, abs(model.bias) * np.sqrt(n))
    return scale(base, model.envelope_k_scale)


def norm_moments(model: NoiseModel, n: int) -> tuple[float, float]:
    """(E||z||^2, E||z||) at the base scale for the bias-free noise z, which
    GradientErrors.analytic maps and offsets by the bias.  Exact, except
    bounded_uniform's E||z||, which has no closed form: it is sqrt(E||z||^2),
    an upper bound by Jensen.  For the Gaussian and Weibull families E||z||
    is envelope_norm's K up to rounding, in another float form.  A schedule
    multiplies them by c_t^2 and c_t."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    s = model.scale
    if model.family == "gaussian_iid":  # the chi moments
        gamma_ratio = math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
        return n * s**2, s * math.sqrt(2.0) * gamma_ratio
    if model.family == "bounded_uniform":
        return n * s**2 / 3.0, s * math.sqrt(n / 3.0)
    # the Weibull radius: E R^p = lam^p Gamma(1 + p/shape)
    second = s**2 * math.exp(math.lgamma(1.0 + 2.0 / model.weibull_shape))
    return second, s * math.exp(math.lgamma(1.0 + 1.0 / model.weibull_shape))


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
        """The (trials, horizon + 1) norms, ||e_t|| in column t + 1, written
        before it returns, and an iterator over step t's noise as
        problem.evaluate takes it: None without noise (scale and bias 0),
        where nothing is drawn; else row t of the (horizon, trials, dim)
        stack of noise.sample's blocks, or, on a map of more rows, of the
        stack mapped once, A^T eta.  A one-row map's norm is ||a|| |eta|."""
        if self.model.scale == 0.0 and self.model.bias == 0.0:
            return np.zeros((len(trials), horizon + 1)), itertools.repeat(None)
        raw = np.stack([sample(self.model, self.dim, seed, k, horizon) for k in trials], axis=1)
        if self._measured:
            raw = self.map(raw)
        norms = np.zeros((len(trials), horizon + 1))
        # by trial: on a strided 2-D view a ufunc allocates 128 KiB of buffers
        for k, row in enumerate(norms[:, 1:]):
            if self.problem.error_map is None or self._measured:
                np.sqrt(np.vecdot(raw[:, k], raw[:, k], out=row), out=row)
            else:
                np.multiply(np.abs(raw[:, k, 0], out=row), self.problem.error_gain, out=row)
        return norms, iter(raw)

    def analytic(self, horizon: int, power: int) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form per-step (E||e_t||^power, K_t): the base-scale values
        times c_t^power and c_t.  The raw noise is z + b 1, z from
        norm_moments, and the bias b enters here, at the map: on the
        identity or a one-row map a eta, whose norm is ||a|| |eta|, it adds
        m b^2 to E||z||^2 and at most |b| sqrt(m) to E||z|| before the gain;
        a map of more rows has E||A^T (z + b 1)||^2 in closed form, and
        E||e|| only as its Jensen bound.  A non-finite moment or K (a tiny
        weibull_shape overflows Gamma) is a ValueError."""
        model, m, a, gain = self.model, self.dim, self.problem.error_map, self.problem.error_gain
        b = model.bias
        try:
            z_second, z_mean = norm_moments(model, m)
            if self._measured:
                # z is zero-mean and isotropic, so the cross term vanishes:
                # E||A^T raw||^2 = (E||z||^2 / m) ||A||_F^2 + b^2 ||A^T 1||^2
                ones_image = float(np.sum(np.sum(a, axis=0) ** 2))  # ||A^T 1||^2
                second = z_second / m * float(np.sum(a**2)) + b**2 * ones_image
                mean = math.sqrt(second)
            else:
                # zero-mean z: b 1 adds in quadrature, and by the triangle inequality
                second = gain**2 * (z_second + m * b**2)
                mean = gain * (z_mean + abs(b) * math.sqrt(m))
            k = gain * envelope_norm(model, m).k
            if not (math.isfinite(second) and math.isfinite(mean) and math.isfinite(k)):
                raise ValueError(f"E||e||^2 = {second}, E||e|| = {mean}, K = {k}")
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"noise model has no finite closed form: {exc}") from exc
        c = time_scales(model, horizon)
        return c**power * (second if power == 2 else mean), c * k
