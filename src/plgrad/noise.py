"""Gradient-error oracles: seeded samplers with certified norm envelopes.

Each noise family draws error vectors e_t and carries a sub-Weibull envelope
for ||e_t||, i.e. a pair (theta, K) with |||e_t|||_p <= K p**theta for all
p >= 1.  Envelopes are computed from exact moment formulas where the family
admits them (Gaussian and radial-Weibull norms) or from an almost-sure bound
(bounded support); a generic composition route built from the closure algebra
is kept for cross-checking.

Sampling is stateless: each trial's whole horizon of errors is one block
drawn from a stream keyed by (seed, trial), so trials can be drawn in any
order or grouping and reproduce bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .subweibull import SubWeibullParams, add, add_scalar, power, scale

FAMILIES = ("gaussian_iid", "bounded_uniform", "weibull_tail", "zero")

# stream tag separating noise draws from other consumers of the same seed
_NOISE_STREAM = 2


@dataclass(frozen=True)
class NoiseModel:
    """Distribution family and parameters for the gradient error e_t.

    family: one of FAMILIES; the default "zero" draws no error.
    scale: std (gaussian_iid), half-width (bounded_uniform) or Weibull scale
        (weibull_tail), in gradient units.
    weibull_shape: Weibull shape parameter; the norm envelope then has tail
        exponent theta = 1/shape.  Ignored by the other families.
    bias: constant offset added to every coordinate (the theory does not
        require zero-mean errors; no preset exercises this).
    per_time_scale: optional sequence of multipliers c_t applied to `scale`
        at time t, giving a time-varying envelope K_t = c_t * K.
    envelope_k_scale: diagnostic multiplier on the certified K (1.0 = honest
        envelope).  Values below 1 deliberately mis-specify the envelope and
        exist only so validation runs can demonstrate a failing verdict.
    """

    family: str = "zero"
    scale: float = 0.0
    weibull_shape: float = 1.0
    bias: float = 0.0
    per_time_scale: tuple[float, ...] | None = None
    envelope_k_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if self.weibull_shape <= 0:
            raise ValueError(f"weibull_shape must be positive, got {self.weibull_shape}")
        if self.per_time_scale is not None and any(
            c < 0 for c in self.per_time_scale
        ):
            raise ValueError("per_time_scale entries must be nonnegative")
        if self.envelope_k_scale <= 0:
            raise ValueError("envelope_k_scale must be positive")

    def scale_at(self, t: int) -> float:
        if self.per_time_scale is None:
            return self.scale
        return self.scale * self.per_time_scale[t]

    @property
    def theta(self) -> float:
        """Tail exponent of the norm envelope."""
        if self.family == "weibull_tail":
            return 1.0 / self.weibull_shape
        # Gaussian and bounded-support coordinates are sub-Gaussian; the
        # degenerate family is tagged sub-Gaussian too so envelopes compose.
        return 0.5


def sample(model: NoiseModel, n: int, seed: int, trial: int, horizon: int) -> np.ndarray:
    """Draw e_0..e_{horizon-1} as rows of a (horizon, n) block.

    Bit-reproducible for a fixed (seed, trial) key; row t is scaled by
    per_time_scale[t] when the model has one.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    scales = np.full(horizon, model.scale)
    if model.per_time_scale is not None:
        if len(model.per_time_scale) < horizon:
            raise ValueError(
                f"per_time_scale covers {len(model.per_time_scale)} steps, need {horizon}"
            )
        scales *= model.per_time_scale[:horizon]
    if model.family == "zero" or model.scale == 0.0:
        e = np.zeros((horizon, n))
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(int(seed), _NOISE_STREAM, int(trial)))
        )
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
        e = e + model.bias
    return e


def _max_moment_ratio(log_moment_norm, theta: float) -> float:
    """sup over p >= 1 of exp(log_moment_norm(p)) / p**theta on a dense grid."""
    p = np.concatenate([np.linspace(1.0, 20.0, 4000), np.linspace(20.0, 400.0, 2000)])
    ratios = np.exp(log_moment_norm(p) - theta * np.log(p))
    return float(np.max(ratios))


def _gaussian_norm_k(sigma: float, n: int) -> float:
    """Exact sub-Gaussian moment scale of ||N(0, sigma^2 I_n)||.

    Uses E||e||^p = sigma^p 2^(p/2) Gamma((n+p)/2) / Gamma(n/2) and maximizes
    the moment ratio over p.
    """

    def log_norm(p):
        return (
            np.log(sigma)
            + 0.5 * np.log(2.0)
            + (gammaln((n + p) / 2.0) - gammaln(n / 2.0)) / p
        )

    return _max_moment_ratio(log_norm, 0.5)


def _weibull_k(lam: float, shape: float) -> float:
    """Exact moment scale of a Weibull(scale lam, shape) radius.

    E R^p = lam^p Gamma(1 + p/shape); the envelope exponent is 1/shape.
    """

    def log_norm(p):
        return np.log(lam) + gammaln(1.0 + p / shape) / p

    return _max_moment_ratio(log_norm, 1.0 / shape)


def envelope_norm(model: NoiseModel, n: int) -> SubWeibullParams:
    """Certified sub-Weibull envelope for ||e_t|| at the base scale.

    For a time-varying model the envelope at time t is the base envelope
    with K multiplied by per_time_scale[t] (see `envelope_norm_at`).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    theta = model.theta
    s = model.scale
    if model.family == "zero" or s == 0.0:
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


def envelope_norm_at(model: NoiseModel, n: int, t: int) -> SubWeibullParams:
    """Envelope for ||e_t|| at time t, honoring per_time_scale."""
    base = envelope_norm(model, n)
    if model.per_time_scale is None:
        return base
    return scale(base, model.per_time_scale[t])


def envelope_norm_generic(model: NoiseModel, n: int) -> SubWeibullParams:
    """Looser envelope composed from per-coordinate rules, for cross-checks.

    Route: per-coordinate envelope -> square -> sum over n possibly dependent
    coordinates -> square root.  Dominated by the family-specific envelope
    but derived without distributional structure.
    """
    theta = model.theta
    s = model.scale
    if model.family == "zero" or s == 0.0:
        coord = SubWeibullParams(theta, 0.0)
    elif model.family == "gaussian_iid":
        coord = SubWeibullParams(theta, _gaussian_norm_k(s, 1))  # |N(0, s^2)|
    elif model.family == "bounded_uniform":
        coord = SubWeibullParams(theta, s)
    else:
        # radial family: |e_i| <= R pointwise, so the radius envelope works
        # per coordinate
        coord = SubWeibullParams(theta, _weibull_k(s, model.weibull_shape))
    sq_sum = scale(power(coord, 2.0), float(n))
    out = power(sq_sum, 0.5)
    if model.bias != 0.0:
        out = add_scalar(out, abs(model.bias) * np.sqrt(n))
    return scale(out, model.envelope_k_scale)


def second_moment(model: NoiseModel, n: int, t: int = 0) -> float:
    """Exact E ||e_t||^2 for the supported families."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    s = model.scale_at(t)
    if model.family == "zero":
        raw = 0.0
    elif model.family == "gaussian_iid":
        raw = n * s**2
    elif model.family == "bounded_uniform":
        raw = n * s**2 / 3.0
    else:
        # radius moment: E R^2 = lam^2 Gamma(1 + 2/shape)
        raw = s**2 * np.exp(gammaln(1.0 + 2.0 / model.weibull_shape))
    # all raw families are zero-mean, so the offset adds in quadrature
    return float(raw + n * model.bias**2)


def mean_norm(model: NoiseModel, n: int, t: int = 0) -> float:
    """E ||e_t||: exact where a closed form exists, else a valid upper bound.

    bounded_uniform has no closed-form norm mean; sqrt(E||e||^2) is returned
    instead (an upper bound by Jensen, safe for certificates).  A nonzero
    bias likewise upper-bounds via the triangle inequality.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    s = model.scale_at(t)
    if model.family == "zero":
        raw = 0.0
    elif model.family == "gaussian_iid":
        raw = s * np.sqrt(2.0) * np.exp(gammaln((n + 1) / 2.0) - gammaln(n / 2.0))
    elif model.family == "bounded_uniform":
        raw = s * np.sqrt(n / 3.0)
    else:
        raw = s * np.exp(gammaln(1.0 + 1.0 / model.weibull_shape))
    if model.bias == 0.0:
        return float(raw)
    return float(raw + abs(model.bias) * np.sqrt(n))
