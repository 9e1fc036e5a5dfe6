"""Time-varying problem suite with exact constants and optimal values.

Four instance families cover the smooth (gradient-only) and composite
(prox) settings.  Three of them build data for one quadratic core,
QuadraticTracking, the cost 0.5 ||A x - b_t||^2:

* drifting least squares         — slope certificate from the spectrum of
                                   A^T A, closed-form optimum
* linear system output tracking  — measurement-based gradient (errors enter
                                   through the output map A^T)
* power setpoint tracking        — one-row A plus box constraints,
                                   scalar-measurement gradient
* drifting logistic regression   — slope certificate sampled, optimum from
                                   an inner high-accuracy solve

Every instance draws all of its randomness at construction time from the
seed, so oracle evaluation is read-only and trajectories are reproducible.
The oracles take one point x of shape (n,) or a batch of points as the rows
of an (R, n) matrix and return one result per row.  Every reduction runs
along the last axis of one row (np.vecdot, never a matrix product), so a
row's result is bit-identical whatever batch it is evaluated in, and equal
to the 1-D call on that row.
Each instance reports its smoothness constant L, the quadratic-slope
constant mu of the gradient-domination inequality
2 mu (f(x) - f*) <= ||grad f(x)||^2 (or its proximal analogue for composite
costs), the domain ball radius, and the diameter that enters the composite
error bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, envelope_norm_at, mean_norm, second_moment
from .prox import Regularizer
from .subweibull import SubWeibullParams, scale as sw_scale

# rng stream tags (disjoint from the noise module's sampler streams)
_BUILD_STREAM = 1
_VERIFY_STREAM = 3


class OnlineProblem:
    """Time-indexed cost oracle F_t = f_t + g_t with constants and optima.

    Subclasses populate the attributes below in __init__ and implement
    value / grad / fstar / xstar (None where no minimizer is computed).
    value and grad accept x of shape (n,) or (R, n); fstar and xstar take
    the time index only.  grad and map_error write into `out` when it is
    given (an array of the result's shape that does not overlap the input)
    and return it.  Instances are immutable after construction by
    convention; all oracles are safe to call concurrently.
    """

    name: str
    n: int
    horizon: int
    smoothness: float      # L, gradient Lipschitz constant
    pl_constant: float     # mu, slope of the gradient-domination inequality
    domain_radius: float   # radius of the open ball the theory works on
    diameter: float        # 2r, or the constraint-box diameter
    regularizer: Regularizer | None
    fstar_exact: bool      # optimal values closed-form vs inner solve
    mu_exact: bool         # mu from structure vs sampled certificate

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def fstar(self, t: int) -> float:
        raise NotImplementedError

    def total_value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        """F_t(x) = f_t(x) + g_t(x), one value per row of x."""
        v = self.value(t, x)
        if self.regularizer is None:
            return v
        return v + self.regularizer.value(x)

    def smooth_only(self) -> bool:
        return self.regularizer is None or self.regularizer.kind == "none"

    def _check_t(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise IndexError(f"time index {t} outside [0, {self.horizon}]")

    # -- gradient-error geometry -------------------------------------------
    # Raw noise of dimension error_dim is mapped into gradient space; the
    # default is the identity.  Families whose errors come from measured
    # outputs override these.

    @property
    def error_dim(self) -> int:
        return self.n

    def map_error(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient-space error for raw noise of shape (error_dim,) or (R, error_dim)."""
        return np.positive(raw, out=out)  # identity: a copy, into out when given

    @property
    def error_gain(self) -> float:
        """Operator norm of the raw-noise-to-gradient map."""
        return 1.0

    def error_envelope(self, model: NoiseModel, t: int = 0) -> SubWeibullParams:
        """Sub-Weibull envelope of the mapped gradient-error norm."""
        return sw_scale(envelope_norm_at(model, self.error_dim, t), self.error_gain)

    def error_second_moment(self, model: NoiseModel, t: int = 0) -> float:
        return second_moment(model, self.error_dim, t)

    def error_mean_norm(self, model: NoiseModel, t: int = 0) -> float:
        return mean_norm(model, self.error_dim, t)


def _haar_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns, Haar-distributed."""
    q, r = np.linalg.qr(rng.normal(size=(rows, cols)))
    signs = np.sign(np.diag(r))
    return q * np.where(signs == 0.0, 1.0, signs)


def _matvec(a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ x for each row of x, summed per row so batching cannot change bits."""
    return np.vecdot(a, x[..., None, :], out=out)


def _build_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), _BUILD_STREAM)))


class QuadraticTracking(OnlineProblem):
    """0.5 ||A x - b_t||^2, over R^n or over a box.

    The one quadratic core behind drifting least squares, output tracking
    and demand response; the families differ only in the data they build.
    Without a box the optimal value is the residual of b_t against an
    orthonormal basis of range(A), which stays nonnegative under
    cancellation (no squared-norm differences).  A box needs a one-row A,
    a^T x: the cost then sees x only through the scalar a^T x, so the
    optimal value is the clamp distance of b_t onto the reachable interval.

    error_gain is None when the gradient errors land on the gradient
    directly.  Otherwise the errors are measurement noise on A x, mapped
    through A^T, and error_gain is the operator norm of that map.
    """

    fstar_exact = True
    mu_exact = True

    def __init__(
        self, name: str, a: np.ndarray, b: np.ndarray, horizon: int, *,
        smoothness: float, pl_constant: float, domain_radius: float,
        error_gain: float | None = None, box: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.name = name
        self.n = a.shape[1]
        self.horizon = horizon
        self.smoothness = smoothness
        self.pl_constant = pl_constant
        self.domain_radius = domain_radius
        self.matrix = a
        self._at = np.ascontiguousarray(a.T)
        self._b = b
        self._gain = error_gain
        if box is None:
            self.regularizer = None
            self.diameter = 2.0 * domain_radius
            basis = np.linalg.qr(a)[0]
            resid = b - (b @ basis) @ basis.T
            self._fstar = 0.5 * np.sum(resid**2, axis=1)
            return
        if a.shape[0] != 1:
            raise ValueError(f"a box needs a one-row A, got {a.shape[0]} rows")
        lo, hi = box
        self.regularizer = Regularizer.box(lo, hi)
        self.diameter = float(np.linalg.norm(hi - lo))
        row = a[0]
        s_min = np.sum(np.minimum(row * lo, row * hi))
        s_max = np.sum(np.maximum(row * lo, row * hi))
        target = b[:, 0]
        # float_power keeps the C pow of the scalar formula; ** on an array
        # squares by multiplication, which differs in the last bit for about
        # one value in a thousand
        self._fstar = 0.5 * np.float_power(np.clip(target, s_min, s_max) - target, 2)

    def _adjoint(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A^T r for each row of r; a one-row A scales its row (the generic
        path runs one length-1 reduction per entry, about 3x slower)."""
        if self.matrix.shape[0] == 1:
            return np.multiply(r, self.matrix[0], out=out)
        return _matvec(self._at, r, out=out)

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        self._check_t(t)
        r = _matvec(self.matrix, x) - self._b[t]
        return 0.5 * np.vecdot(r, r)

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._check_t(t)
        return self._adjoint(_matvec(self.matrix, x) - self._b[t], out=out)

    def fstar(self, t: int) -> float:
        self._check_t(t)
        return float(self._fstar[t])

    def xstar(self, t: int) -> np.ndarray | None:
        self._check_t(t)
        if self.regularizer is not None and self.regularizer.kind == "box":
            return None  # the minimum-norm point below ignores the box
        return np.linalg.pinv(self.matrix) @ self._b[t]

    @property
    def error_dim(self) -> int:
        return self.n if self._gain is None else self.matrix.shape[0]

    def map_error(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._gain is None:
            return super().map_error(raw, out=out)
        return self._adjoint(raw, out=out)

    @property
    def error_gain(self) -> float:
        return 1.0 if self._gain is None else self._gain

    def error_second_moment(self, model: NoiseModel, t: int = 0) -> float:
        if self._gain is None:
            return super().error_second_moment(model, t)
        if self.matrix.shape[0] == 1:
            # rank-1 map: E||a eta||^2 = ||a||^2 E eta^2 exactly
            return self._gain**2 * second_moment(model, 1, t)
        # E||A^T raw||^2 = (E||raw||^2 / m) ||A^T||_F^2 for isotropic raw noise
        if model.bias != 0.0:
            raise NotImplementedError("analytic moments with bias are not supported")
        m = self.matrix.shape[0]
        return second_moment(model, m, t) / m * float(np.sum(self.matrix**2))

    def error_mean_norm(self, model: NoiseModel, t: int = 0) -> float:
        if self._gain is None:
            return super().error_mean_norm(model, t)
        if self.matrix.shape[0] == 1:
            return self._gain * mean_norm(model, 1, t)  # E||a eta|| = ||a|| E|eta|
        # no closed form for the mapped norm mean; Jensen upper bound
        return math.sqrt(self.error_second_moment(model, t))


class TimeVaryingLeastSquares(QuadraticTracking):
    """0.5 ||A x - b_t||^2 with a drifting generating parameter.

    A is built from Haar orthogonal factors with the spectrum of A^T A
    equally spaced on [mu, l], so the declared slope and smoothness
    constants are exact.  b_t = A x*_t + r_t with x*_t a Gaussian random
    walk started at the all-ones vector and r_t Gaussian observation noise.
    """

    def __init__(
        self,
        n: int,
        d: int,
        mu: float,
        l: float,
        drift_std: float,
        obs_noise_std: float,
        seed: int,
        horizon: int,
        spacing: str = "eigenvalues",
    ):
        if not (d >= n >= 1):
            raise ValueError(f"need d >= n >= 1, got n={n}, d={d}")
        if not (0 < mu <= l):
            raise ValueError(f"need 0 < mu <= l, got mu={mu}, l={l}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        if drift_std < 0 or obs_noise_std < 0:
            raise ValueError("noise scales must be nonnegative")
        if spacing == "eigenvalues":
            eigs = np.linspace(mu, l, n)
        elif spacing == "singular_values":
            # alternate reading: the singular values themselves are spaced
            # on [mu, l], so the effective constants are their squares
            eigs = np.linspace(mu, l, n) ** 2
        else:
            raise ValueError(f"unknown spacing {spacing!r}")

        rng = _build_rng(seed)
        u = _haar_orthonormal(rng, d, n)
        v = _haar_orthonormal(rng, n, n)
        a = u @ np.diag(np.sqrt(eigs)) @ v.T

        x0_star = np.ones(n)
        steps = rng.normal(0.0, drift_std, size=(horizon, n)) if drift_std > 0 else np.zeros((horizon, n))
        xstar_path = np.vstack([x0_star, x0_star + np.cumsum(steps, axis=0)])
        obs = (
            rng.normal(0.0, obs_noise_std, size=(horizon + 1, d))
            if obs_noise_std > 0
            else np.zeros((horizon + 1, d))
        )
        super().__init__(
            "timevarying_ls", a, xstar_path @ a.T + obs, horizon,
            smoothness=float(eigs[-1]), pl_constant=float(eigs[0]),
            domain_radius=10.0 * float(np.linalg.norm(x0_star)),
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DriftingLogistic(OnlineProblem):
    """sum_i log(1 + exp(b_i a_{i,t}^T x)) with slowly drifting features.

    Labels are balanced and the signed feature matrix is centered
    (rows sum to zero) so the minimizer stays attained; construction fails
    loudly if the inner solver cannot certify an optimum at some t.
    The slope constant is a sampled certificate scaled by a safety factor
    of 2, not a closed form.
    """

    _GRAD_TOL = 1e-11

    def __init__(self, n: int, d: int, seed: int, horizon: int, drift_std: float):
        if n < 1 or d < n + 1:
            raise ValueError(f"need d >= n + 1 >= 2, got n={n}, d={d}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        rng = _build_rng(seed)
        labels = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        a0 = rng.normal(size=(d, n))
        drift = (
            rng.normal(0.0, drift_std, size=(horizon, d, n))
            if drift_std > 0
            else np.zeros((horizon, d, n))
        )
        feats = np.concatenate([a0[None], a0[None] + np.cumsum(drift, axis=0)])
        signed = labels[None, :, None] * feats
        # recenter so the signed rows sum to zero at every t: keeps the loss
        # coercive (the zero vector is a positive combination of the rows)
        signed = signed - signed.mean(axis=1, keepdims=True)
        self._c = signed
        self._ct = np.ascontiguousarray(signed.transpose(0, 2, 1))
        self._labels = labels

        self.name = "logistic"
        self.n = n
        self.d = d
        self.horizon = horizon
        self.regularizer = None
        self.fstar_exact = False

        lmax = max(
            float(np.linalg.eigvalsh(self._c[t].T @ self._c[t])[-1])
            for t in range(horizon + 1)
        )
        self.smoothness = 0.25 * lmax

        self._fstar = np.empty(horizon + 1)
        self._xstar = np.empty((horizon + 1, n))
        guess = np.zeros(n)
        for t in range(horizon + 1):
            guess = self._solve_inner(t, guess)
            self._xstar[t] = guess
            self._fstar[t] = self.value(t, guess)

        self.domain_radius = 10.0 * max(float(np.linalg.norm(self._xstar[0])), 1.0)
        self.diameter = 2.0 * self.domain_radius
        self.pl_constant = 0.0  # placeholder while the certificate samples
        self.pl_constant = 0.5 * self._sampled_mu(rng)
        self.mu_exact = False

    def _solve_inner(self, t: int, x0: np.ndarray) -> np.ndarray:
        # imported here: logistic is the only family that needs scipy
        from scipy.optimize import minimize

        res = minimize(
            lambda x: (self.value(t, x), self.grad(t, x)),
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-9},
        )
        x = res.x
        for _ in range(60):
            g = self.grad(t, x)
            if np.linalg.norm(g) <= self._GRAD_TOL:
                return x
            z = self._c[t] @ x
            s = _sigmoid(z)
            w = s * (1.0 - s)
            h = self._c[t].T @ (w[:, None] * self._c[t])
            x = x - np.linalg.solve(h + 1e-14 * np.eye(self.n), g)
        raise RuntimeError(
            f"inner solve did not reach gradient norm {self._GRAD_TOL} at t={t}; "
            "the instance may have an unattained optimum"
        )

    def _sampled_mu(self, rng: np.random.Generator) -> float:
        ts = sorted({0, self.horizon // 2, self.horizon})
        mu_hat = np.inf
        for t in ts:
            report = verify_pl(self, t, n_samples=400, seed=int(rng.integers(2**31)))
            mu_hat = min(mu_hat, report.mu_hat)
        return float(mu_hat)

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        self._check_t(t)
        return np.sum(np.logaddexp(0.0, _matvec(self._c[t], x)), axis=-1)

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._check_t(t)
        return _matvec(self._ct[t], _sigmoid(_matvec(self._c[t], x)), out=out)

    def fstar(self, t: int) -> float:
        self._check_t(t)
        return float(self._fstar[t])

    def xstar(self, t: int) -> np.ndarray:
        self._check_t(t)
        return self._xstar[t].copy()


class LtiTracking(QuadraticTracking):
    """Track a reference output of a stable linear system.

    f_t(x) = 0.5 ||G x + H w_t - ybar_t||^2 where w_t is an unmeasured
    sinusoidal disturbance trace and ybar_t a sinusoidal reference.  The
    practical gradient comes from output measurements, v_t = G^T (yhat_t -
    ybar_t): measurement noise in R^m is mapped through G^T, so the error
    gain is the top singular value of G.
    """

    def __init__(self, n: int, m: int, seed: int, horizon: int):
        if not (m >= n >= 1):
            raise ValueError(f"need m >= n >= 1, got n={n}, m={m}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        rng = _build_rng(seed)
        svals = np.sort(rng.uniform(0.5, 1.5, size=n))
        u = _haar_orthonormal(rng, m, n)
        v = _haar_orthonormal(rng, n, n)
        g = u @ np.diag(svals) @ v.T
        h = rng.normal(size=(m, m)) / np.sqrt(m)

        t_axis = np.arange(horizon + 1)[:, None]
        periods = rng.uniform(40.0, 160.0, size=m)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        amps = rng.uniform(0.2, 1.0, size=m)
        w = amps * np.sin(2.0 * np.pi * t_axis / periods + phases)
        ybar = rng.uniform(0.5, 1.5, size=m) * np.sin(
            2.0 * np.pi * t_axis / rng.uniform(60.0, 200.0, size=m)
            + rng.uniform(0.0, 2.0 * np.pi, size=m)
        )
        b = ybar - w @ h.T
        x0_star = np.linalg.pinv(g) @ b[0]
        super().__init__(
            "lti_tracking", g, b, horizon,
            smoothness=float(svals[-1] ** 2), pl_constant=float(svals[0] ** 2),
            domain_radius=10.0 * max(float(np.linalg.norm(x0_star)), 1.0),
            error_gain=float(svals[-1]),
        )
        self.disturbance_map = h
        self.disturbance = w
        self.reference = ybar

    def measured_grad(self, t: int, x: np.ndarray, meas_noise: np.ndarray) -> np.ndarray:
        """v_t = G^T (yhat_t - ybar_t) with yhat_t = G x + H w_t + noise."""
        self._check_t(t)
        yhat = self.matrix @ x + self.disturbance_map @ self.disturbance[t] + meas_noise
        return self.matrix.T @ (yhat - self.reference[t])


class DemandResponse(QuadraticTracking):
    """Track a power reference with box-constrained device setpoints.

    F_t(x) = 0.5 (a_x^T x + a_w^T w_t - p_ref_t)^2 + box indicator: the
    quadratic core with the one-row A = a_x^T and b_t = p_ref_t - a_w^T w_t.
    The gradient estimate uses a scalar power measurement, so raw noise is
    one-dimensional and enters as a_x * noise.

    The proximal slope constant for this rank-1-plus-box structure is
    min over nonzero entries of a_x of a_i^2 (the worst case is a point
    where a single coordinate carries all remaining feasible movement);
    verify_prox_pl certifies it numerically.
    """

    def __init__(
        self,
        n_der: int,
        seed: int,
        horizon: int,
        p_ref_trace: np.ndarray,
        w_trace: np.ndarray,
        bounds_lo: np.ndarray,
        bounds_hi: np.ndarray,
        a_x: np.ndarray | None = None,
        a_w: np.ndarray | None = None,
    ):
        if n_der < 1:
            raise ValueError(f"need at least one device, got {n_der}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        lo = np.asarray(bounds_lo, dtype=float)
        hi = np.asarray(bounds_hi, dtype=float)
        if lo.shape != (n_der,) or hi.shape != (n_der,):
            raise ValueError("bounds must have one entry per device")
        if np.any(lo >= hi):
            raise ValueError("bounds must satisfy lo < hi elementwise")
        p_ref = np.asarray(p_ref_trace, dtype=float).ravel()
        w = np.atleast_2d(np.asarray(w_trace, dtype=float))
        if w.shape[0] < horizon + 1 or p_ref.shape[0] < horizon + 1:
            raise ValueError(
                f"traces must cover t = 0..{horizon} ({horizon + 1} rows), got "
                f"w:{w.shape[0]} p_ref:{p_ref.shape[0]}"
            )
        ax = np.ones(n_der) if a_x is None else np.asarray(a_x, dtype=float)
        aw = np.ones(w.shape[1]) if a_w is None else np.asarray(a_w, dtype=float)
        if ax.shape != (n_der,):
            raise ValueError("a_x must have one entry per device")
        if aw.shape != (w.shape[1],):
            raise ValueError("a_w must match the disturbance trace width")
        if not np.any(ax != 0.0):
            raise ValueError("a_x must have at least one nonzero entry")

        # b_t collects everything the setpoints cannot influence
        b = p_ref[: horizon + 1] - w[: horizon + 1] @ aw
        super().__init__(
            "demand_response", ax[None, :], b[:, None], horizon,
            smoothness=float(ax @ ax), pl_constant=float(np.min(ax[ax != 0.0] ** 2)),
            domain_radius=1.05 * float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))),
            error_gain=float(np.linalg.norm(ax)), box=(lo, hi),
        )


def synth_demand_response_traces(
    horizon: int,
    seed: int,
    n_uncontrollable: int = 4,
    w_amplitude: float = 50.0,
    p_ref_base: float = -300.0,
    p_ref_amplitude: float = 150.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sinusoidal disturbance and reference traces for desk-scale runs."""
    rng = _build_rng(seed)
    t = np.arange(horizon + 1)[:, None]
    periods = rng.uniform(80.0, 400.0, size=n_uncontrollable)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_uncontrollable)
    amps = w_amplitude * rng.uniform(0.4, 1.0, size=n_uncontrollable)
    w = amps * np.sin(2.0 * np.pi * t / periods + phases)
    p_ref = p_ref_base + p_ref_amplitude * np.sin(
        2.0 * np.pi * t[:, 0] / rng.uniform(200.0, 500.0)
    )
    return w, p_ref


def load_demand_response_traces(path) -> tuple[np.ndarray, np.ndarray]:
    """Read disturbance/reference traces from CSV.

    Expected header: t, w_1, ..., w_m, p_ref; one row per time step.
    Returns (w_trace of shape (T, m), p_ref of shape (T,)).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace file")
        cols = [c.strip() for c in header]
        if cols[0] != "t" or cols[-1] != "p_ref" or len(cols) < 3:
            raise ValueError(
                f"{path}: expected header 't, w_1..w_m, p_ref', got {cols}"
            )
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    return data[:, 1:-1], data[:, -1]


@dataclass(frozen=True)
class PLReport:
    """Sampled certificate for the gradient-domination inequality."""

    declared_mu: float
    mu_hat: float          # largest slope certified by the samples
    max_violation: float   # max over samples of 2 mu (f - f*) - ||grad||^2
    n_used: int
    n_skipped: int


def _sample_ball(rng: np.random.Generator, n: int, radius: float, size: int) -> np.ndarray:
    direction = rng.normal(size=(size, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
    return direction * radii


def verify_pl(problem: OnlineProblem, t: int, n_samples: int, seed: int) -> PLReport:
    """Sample the gradient-domination inequality over the domain ball."""
    if not problem.smooth_only():
        raise ValueError("gradient-domination check applies to unregularized costs")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), _VERIFY_STREAM, int(t)))
    )
    xs = _sample_ball(rng, problem.n, problem.domain_radius, n_samples)
    fstar = problem.fstar(t)
    mu = problem.pl_constant
    mu_hat = np.inf
    max_violation = 0.0
    used = 0
    for x in xs:
        gap = problem.value(t, x) - fstar
        gsq = float(np.sum(problem.grad(t, x) ** 2))
        if gap <= 1e-12 * max(1.0, abs(fstar)):
            continue  # at (numerical) optimum both sides vanish
        used += 1
        mu_hat = min(mu_hat, gsq / (2.0 * gap))
        max_violation = max(max_violation, 2.0 * mu * gap - gsq)
    if used == 0:
        mu_hat = mu  # degenerate: every sample sat at the optimum
    return PLReport(mu, float(mu_hat), max_violation, used, n_samples - used)


@dataclass(frozen=True)
class ProxPLReport:
    """Both sides of the proximal gradient-domination inequality at x."""

    lhs: float          # 2 mu (F(x) - F*)
    rhs_grid: float     # surrogate decrease from dense grid minimization
    rhs_exact: float    # same quantity from the closed-form prox
    grid_minimizer: np.ndarray
    mu_hat: float       # rhs_grid / (2 (F(x) - F*)), inf at the optimum


def prox_decrease(problem: OnlineProblem, t: int, x: np.ndarray) -> float | np.ndarray:
    """Exact surrogate decrease -2L min_y {<grad, y-x> + L/2 ||y-x||^2 + g(y) - g(x)}.

    The minimizer is the prox-gradient point, so the quantity is exact for
    every regularizer with a closed-form prox.  One value per row of x.
    """
    l = problem.smoothness
    g = problem.grad(t, x)
    reg = problem.regularizer if problem.regularizer is not None else Regularizer.none()
    y = reg.prox(1.0 / l, x - g / l)
    d = y - x
    q = np.vecdot(g, d) + 0.5 * l * np.vecdot(d, d) + reg.value(y) - reg.value(x)
    return -2.0 * l * q


def verify_prox_pl(
    problem: OnlineProblem, t: int, x: np.ndarray, grid_resolution: int
) -> ProxPLReport:
    """Brute-force check of the proximal inequality at a single point.

    Minimizes the prox surrogate over a dense grid (feasible box for
    box-constrained costs, a ball-covering box otherwise), so it is
    independent of the closed-form prox path.  Dimension is capped at 3.
    """
    if problem.n > 3:
        raise ValueError(f"grid check limited to n <= 3, got n={problem.n}")
    if grid_resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    x = np.asarray(x, dtype=float)
    l = problem.smoothness
    g = problem.grad(t, x)
    reg = problem.regularizer if problem.regularizer is not None else Regularizer.none()
    if reg.kind == "box":
        lo, hi = reg.lo, reg.hi
    else:
        center = x - g / l
        margin = np.linalg.norm(g) / l + 1.0
        if reg.kind == "l1":
            margin += reg.weight / l
        lo, hi = center - margin, center + margin
    axes = [np.linspace(lo[i], hi[i], grid_resolution) for i in range(problem.n)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    diff = mesh - x
    q = diff @ g + 0.5 * l * np.sum(diff**2, axis=1)
    if reg.kind == "l1":
        q += reg.weight * (np.sum(np.abs(mesh), axis=1) - np.sum(np.abs(x)))
    best = int(np.argmin(q))
    rhs_grid = -2.0 * l * float(q[best])
    rhs_exact = prox_decrease(problem, t, x)
    gap = problem.total_value(t, x) - problem.fstar(t)
    lhs = 2.0 * problem.pl_constant * gap
    mu_hat = rhs_grid / (2.0 * gap) if gap > 1e-12 else np.inf
    return ProxPLReport(lhs, rhs_grid, rhs_exact, mesh[best], float(mu_hat))


def variability(
    problem: OnlineProblem, t: int, x_t: np.ndarray
) -> tuple[float, float | np.ndarray]:
    """(sigma_t, phi_tilde_t) at the point x_t; psi_tilde_t is their sum.

    sigma_t depends on t only; phi_tilde_t has one value per row of x_t.

    phi_tilde uses the smooth parts only: the regularizers in scope are
    time-invariant, so they cancel in F_t - F_{t-1} (and stay finite for
    infeasible probes).
    """
    if t < 1:
        raise ValueError(f"variability needs t >= 1, got {t}")
    problem._check_t(t)
    sigma = abs(problem.fstar(t) - problem.fstar(t - 1))
    phi = abs(problem.value(t, x_t) - problem.value(t - 1, x_t))
    return sigma, phi
