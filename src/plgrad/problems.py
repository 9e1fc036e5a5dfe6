"""Time-varying problem suite with exact constants and optimal values.

Four instance families cover the smooth (gradient-only) and composite
(prox) settings; three of them build data for one quadratic core,
QuadraticTracking, the cost 0.5 ||A x - b_t||^2.  Every family draws all
of its randomness at construction time from its seed, so oracle
evaluation is read-only and trajectories are reproducible.
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

import copy
import csv
import math

import numpy as np

from . import noise as noise_mod
from .prox import Regularizer


class OnlineProblem:
    """Time-indexed cost oracle F_t = f_t + g_t with constants and optima.

    Subclasses populate the attributes below in __init__ and implement
    value / grad / fstar / xstar (None where no minimizer is computed);
    evaluate, the per-iterate oracle of run, defaults to value and grad.
    A family fixes its regularizer g_t at construction: g = 0,
    whose prox is the identity, or the indicator of its box (the two kinds
    Regularizer admits), so fstar is the optimum of the composite cost F_t.
    value and grad accept x of shape (n,) or (R, n); fstar and xstar take
    the time index only.  grad writes into `out` when it is given (an
    array of the result's shape that does not overlap the input) and
    returns it.  Instances are immutable after construction by convention;
    all oracles are safe to call concurrently.

    error_map and error_gain say how the gradient errors enter; see
    noise.GradientErrors, which draws, measures and bounds them.
    """

    name: str
    n: int
    horizon: int
    smoothness: float      # L, gradient Lipschitz constant
    pl_constant: float     # mu, slope of the gradient-domination inequality
    domain_radius: float   # radius of the open ball the theory works on
    diameter: float        # 2r, or the constraint-box diameter
    regularizer: Regularizer = Regularizer.none()
    fstar_exact = True     # every family's optimal values are closed-form
    fstar_tol = 1e-9       # accuracy of fstar
    mu_exact: bool         # mu from structure vs sampled certificate
    error_map: np.ndarray | None = None  # A when the errors are A^T eta
    error_gain = 1.0       # ||A||_2 of the error map

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def fstar(self, t: int) -> float:
        raise NotImplementedError

    def evaluate(
        self,
        t: int,
        x: np.ndarray,
        grad_out: np.ndarray | None = None,
        noise: np.ndarray | None = None,
    ) -> tuple[float | np.ndarray, float | np.ndarray | None]:
        """(f_t(x), f_{t-1}(x)), and the measured gradient grad f_t(x) + e_t
        into grad_out when it is given.

        What run needs at x_t: the value for the regret, the previous one
        for phi_tilde_t (None at t = 0; the regularizers in scope are
        time-invariant and cancel) and the next step's gradient.  noise is
        step t's noise as noise.GradientErrors.draw gives it, one row per
        row of x, read with grad_out only: the error e_t, or 0 without it.
        A family overrides this default to share work between its oracles.
        """
        f = self.value(t, x)
        f_prev = self.value(t - 1, x) if t else None
        if grad_out is not None:
            g = self.grad(t, x, out=grad_out)
            if noise is not None:
                np.add(g, noise, out=g)
        return f, f_prev

    def total_value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        """F_t(x) = f_t(x) + g_t(x), one value per row of x."""
        return self.value(t, x) + self.regularizer.value(x)

    def smooth_only(self) -> bool:
        return self.regularizer.kind == "none"

    def _check_t(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise IndexError(f"time index {t} outside [0, {self.horizon}]")

    def compacted(self, x0: np.ndarray) -> tuple[OnlineProblem, np.ndarray] | None:
        """A view that iterates one column per run of coordinates whose
        iterates stay bit-identical from x0, with the run lengths; None
        where no such run has two columns.  Only QuadraticTracking finds
        runs."""
        return None


def _haar_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns, Haar-distributed."""
    q, r = np.linalg.qr(rng.normal(size=(rows, cols)))
    signs = np.sign(np.diag(r))
    return q * np.where(signs == 0.0, 1.0, signs)


def _matvec(a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ x for each row of x, summed per row so batching cannot change bits."""
    return np.vecdot(a, x[..., None, :], out=out)


def _row_norm(x: np.ndarray) -> float | np.ndarray:
    return np.sqrt(np.vecdot(x, x))


class QuadraticTracking(OnlineProblem):
    """0.5 ||A x - b_t||^2, over R^n or over a box.

    The one quadratic core behind drifting least squares, output tracking
    and demand response; the families differ only in the data they build.
    Without a box the optimal value is the residual of b_t against an
    orthonormal basis of range(A), which stays nonnegative under
    cancellation (no squared-norm differences).  A box needs a one-row A,
    a^T x: the cost then sees x only through the scalar a^T x, so the
    optimal value is the clamp distance of b_t onto the reachable interval.

    Without error_gain the gradient errors land on the gradient directly.
    With it, A is the error_map: the errors are measurement noise on A x,
    mapped through A^T, and error_gain is the declared ||A||_2.

    A one-row A over a box with measurement noise updates coordinate j
    from a_j, lo_j, hi_j and its own iterate only: the step is x_j -
    s a_j (a^T x - b_t + eta) clamped to [lo_j, hi_j], with one scalar
    a^T x - b_t + eta per trial.  Coordinates that share the bits of
    (a_j, lo_j, hi_j, x0_j) therefore stay bit-identical at every step,
    and compacted gives a view that iterates one column per run of equal
    neighbours.  Its products widen x back to n columns, so a^T x keeps
    its summation order; the widening is np.repeat, whose output is
    C-ordered like the full iterate (a fancy index gives an F-ordered
    array, which np.vecdot sums in another order).
    """

    mu_exact = True
    _runs: np.ndarray | None = None  # a compacted view's run lengths

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
        # [b_t, b_{t-1}] at each t, b_0 twice at t = 0
        self._b_pairs = np.stack([b, np.concatenate([b[:1], b[:-1]])], axis=1)
        # the noise is one measurement of a one-row A's output
        self._scalar_noise = error_gain is not None and a.shape[0] == 1
        if error_gain is not None:
            self.error_map, self.error_gain = a, error_gain
        if box is None:
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
        """A^T r for each row of r.  A one-row A scales its row by an einsum
        outer product; a broadcast np.multiply is about 3x slower and takes
        128 KiB of ufunc buffers, and the generic path is slower still.

        einsum sums into a zeroed output, so a zero product is +0.0 where
        multiply can give -0.0; every other bit is the same.  No output sees
        it: x - s * (+-0) = x unless x is -0.0, which demand response (the
        one one-row family, always boxed) reaches only from a -0.0 in x0 or
        in the box bounds."""
        if self.matrix.shape[0] == 1:
            return np.einsum("...,j->...j", r[..., 0], self.matrix[0], out=out)
        return _matvec(self._at, r, out=out)

    def _residual(self, t: int, ax: np.ndarray) -> np.ndarray:
        """A x - b_t from the product ax = A x."""
        self._check_t(t)
        return ax - self._b[t]

    def _product(self, x: np.ndarray) -> np.ndarray:
        """A x; a compacted view widens x through its runs first and
        multiplies by its error_map, the full A."""
        if self._runs is None:
            return _matvec(self.matrix, x)
        return _matvec(self.error_map, np.repeat(x, self._runs, axis=-1))

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        r = self._residual(t, self._product(x))
        return 0.5 * np.vecdot(r, r)

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._adjoint(self._residual(t, self._product(x)), out=out)

    def evaluate(
        self,
        t: int,
        x: np.ndarray,
        grad_out: np.ndarray | None = None,
        noise: np.ndarray | None = None,
    ) -> tuple[float | np.ndarray, float | np.ndarray | None]:
        """evaluate from one product A x, less [b_t, b_{t-1}] in one block.
        A one-row A with measurement noise adds it to the scalar residual,
        v = a (a^T x - b_t + eta), so one adjoint forms the measured
        gradient.  For a = ones this has the bits of grad f_t + a eta;
        another a rounds its last bits differently."""
        self._check_t(t)
        r = self._product(x)[..., None, :] - self._b_pairs[t]
        f = 0.5 * np.vecdot(r, r)
        if grad_out is not None:
            r = r[..., 0, :]
            if noise is None:
                self._adjoint(r, out=grad_out)
            elif self._scalar_noise:
                self._adjoint(np.add(r, noise, out=r), out=grad_out)
            else:
                np.add(self._adjoint(r, out=grad_out), noise, out=grad_out)
        return f[..., 0], (f[..., 1] if t else None)

    def fstar(self, t: int) -> float:
        self._check_t(t)
        return float(self._fstar[t])

    def xstar(self, t: int) -> np.ndarray | None:
        self._check_t(t)
        if self.regularizer.kind == "box":
            return None  # the minimum-norm point below ignores the box
        return np.linalg.pinv(self.matrix) @ self._b[t]

    def compacted(self, x0: np.ndarray) -> tuple[OnlineProblem, np.ndarray] | None:
        """The view of the class docstring on a one-row A over a box with
        measurement noise, and its run lengths.  Without an error_map the
        noise has n entries and classmates part.  Runs are found on bit
        patterns: lo = -0.0 and lo = 0.0 compare equal, yet a clamp keeps
        each one's sign.  The view shares b, fstar and the constants;
        its matrix, regularizer and n hold one column per run."""
        if self.regularizer.kind != "box" or self.error_map is None:
            return None
        reg = self.regularizer
        keys = np.stack(np.broadcast_arrays(self.matrix[0], reg.lo, reg.hi, x0)).view(np.int64)
        first = np.ones(self.n, dtype=bool)  # the first column of each run
        first[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
        starts = np.flatnonzero(first)
        if len(starts) == self.n:
            return None
        lo, hi = (np.broadcast_to(bound, (self.n,))[starts] for bound in (reg.lo, reg.hi))
        view = copy.copy(self)
        view.n, view.matrix = len(starts), self.matrix[:, starts]
        view.regularizer = Regularizer.box(lo, hi)
        view._runs = np.diff(starts, append=self.n)
        return view, view._runs


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
    ):
        if not (d >= n >= 1):
            raise ValueError(f"need d >= n >= 1, got n={n}, d={d}")
        if not (0 < mu <= l < math.inf):
            raise ValueError(f"need 0 < mu <= l < inf, got mu={mu}, l={l}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        if not (0 <= drift_std < math.inf and 0 <= obs_noise_std < math.inf):
            raise ValueError("noise scales must be finite and nonnegative")
        eigs = np.linspace(mu, l, n)

        rng = noise_mod.stream(seed, "build")
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

    Labels are balanced and the signed feature rows c_{t,i} are centered
    to sum to zero at every t, so grad f_t(0) = 0.5 sum_i c_{t,i} = 0: the
    convex cost is minimized at x*_t = 0 with f*_t = d log 2, and drift
    never moves the optimum.  The slope constant is a sampled certificate
    scaled by a safety factor of 2, not a closed form.
    """

    def __init__(self, n: int, d: int, seed: int, horizon: int, drift_std: float):
        if n < 1 or d < n + 1:
            raise ValueError(f"need d >= n + 1 >= 2, got n={n}, d={d}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        if not 0 <= drift_std < math.inf:
            raise ValueError(f"drift_std must be finite and nonnegative, got {drift_std}")
        rng = noise_mod.stream(seed, "build")
        labels = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        a0 = rng.normal(size=(d, n))
        drift = (
            rng.normal(0.0, drift_std, size=(horizon, d, n))
            if drift_std > 0
            else np.zeros((horizon, d, n))
        )
        feats = np.concatenate([a0[None], a0[None] + np.cumsum(drift, axis=0)])
        signed = labels[None, :, None] * feats
        # recenter so the signed rows sum to zero at every t: the optimum
        # is then x* = 0 (see the class docstring)
        signed = signed - signed.mean(axis=1, keepdims=True)
        self._c = signed
        self._ct = np.ascontiguousarray(signed.transpose(0, 2, 1))

        self.name = "logistic"
        self.n = n
        self.d = d
        self.horizon = horizon

        lmax = max(
            float(np.linalg.eigvalsh(self._c[t].T @ self._c[t])[-1])
            for t in range(horizon + 1)
        )
        self.smoothness = 0.25 * lmax
        # every term is log(1 + exp(0)), so f_t(0) has the same bits at every t
        self._fstar = float(self.value(0, np.zeros(n)))

        self.domain_radius = 10.0  # 10 max(||x*||, 1) with x* = 0
        self.diameter = 2.0 * self.domain_radius
        self.pl_constant = 0.5 * self._sampled_mu(rng)
        self.mu_exact = False

    def _sampled_mu(self, rng: np.random.Generator) -> float:
        return min(
            verify_pl(self, t, n_samples=400, seed=int(rng.integers(2**31)))
            for t in sampled_times(self.horizon)
        )

    def value(self, t: int, x: np.ndarray) -> float | np.ndarray:
        self._check_t(t)
        return np.sum(np.logaddexp(0.0, _matvec(self._c[t], x)), axis=-1)

    def grad(self, t: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._check_t(t)
        return _matvec(self._ct[t], _sigmoid(_matvec(self._c[t], x)), out=out)

    def fstar(self, t: int) -> float:
        self._check_t(t)
        return self._fstar

    def xstar(self, t: int) -> np.ndarray:
        self._check_t(t)
        return np.zeros(self.n)


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
        rng = noise_mod.stream(seed, "build")
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


class DemandResponse(QuadraticTracking):
    """Track a power reference with box-constrained device setpoints.

    F_t(x) = 0.5 (1^T x + 1^T w_t - p_ref_t)^2 + box indicator: every
    device and every load has unit weight, so this is the quadratic core
    with the one-row A = 1^T and b_t = p_ref_t - 1^T w_t.  The gradient
    estimate uses a scalar power measurement, so raw noise is
    one-dimensional and enters as 1 * noise, with gain ||1|| = sqrt(n_der).

    L = ||1||^2 = n_der, and the proximal slope constant of this
    rank-1-plus-box structure is the smallest squared weight, 1 (the worst
    case is a point where a single coordinate carries all remaining
    feasible movement); `plgrad validate --checks pl` samples it.  Rows
    of other weights are QuadraticTracking with a one-row A over a box.
    Non-finite trace entries for t = 0..horizon are refused.

    Without traces it draws synth_demand_response_traces(horizon, seed).
    Without bounds the first ceil(n_der / 2) devices are storage on
    [-50, 50] kW and the rest solar on [0, 50] kW: two device classes,
    which is what lets solvers.run compact this default to k = 2 columns.
    One bound value fills every device; otherwise there is one per device.
    Bounds come as a pair or not at all, and so do traces.  p_ref_trace
    holds one value per step: a 1-D array or a single column.
    """

    def __init__(
        self,
        n_der: int,
        seed: int,
        horizon: int,
        p_ref_trace: np.ndarray | None = None,
        w_trace: np.ndarray | None = None,
        bounds_lo: np.ndarray | float | None = None,
        bounds_hi: np.ndarray | float | None = None,
    ):
        if n_der < 1:
            raise ValueError(f"need at least one device, got {n_der}")
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        if (bounds_lo is None) != (bounds_hi is None):
            raise ValueError("bounds_lo and bounds_hi must be given together")
        if (p_ref_trace is None) != (w_trace is None):
            raise ValueError("p_ref_trace and w_trace must be given together")
        if bounds_lo is None:
            # half storage in [-50, 50] kW, half solar in [0, 50] kW
            bounds_lo, bounds_hi = np.where(np.arange(n_der) < n_der / 2, -50.0, 0.0), 50.0
        for name, bound in ("bounds_lo", bounds_lo), ("bounds_hi", bounds_hi):
            if np.size(bound) not in (1, n_der):
                raise ValueError(f"{name} must have 1 or {n_der} entries, got {np.size(bound)}")
        # one value fills every device
        lo, hi = (np.full(n_der, bound, dtype=float) for bound in (bounds_lo, bounds_hi))
        if np.any(lo >= hi):
            raise ValueError("bounds must satisfy lo < hi elementwise")
        if p_ref_trace is None:
            w_trace, p_ref_trace = synth_demand_response_traces(horizon, seed)
        # one value per step: a (T, 2) reference does not reshape to (T,)
        p_ref = np.asarray(p_ref_trace, dtype=float).reshape(len(p_ref_trace))[: horizon + 1]
        w = np.atleast_2d(np.asarray(w_trace, dtype=float))[: horizon + 1]
        if len(w) <= horizon or len(p_ref) <= horizon:
            raise ValueError(
                f"traces must cover t = 0..{horizon}, got w:{len(w)} p_ref:{len(p_ref)}"
            )
        if not (np.isfinite(p_ref).all() and np.isfinite(w).all()):
            raise ValueError(f"traces must be finite for t = 0..{horizon}")

        # b_t collects everything the setpoints cannot influence
        b = p_ref - w @ np.ones(w.shape[1])
        super().__init__(
            "demand_response", np.ones((1, n_der)), b[:, None], horizon,
            smoothness=float(n_der), pl_constant=1.0,
            domain_radius=1.05 * float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))),
            error_gain=math.sqrt(n_der), box=(lo, hi),
        )


def synth_demand_response_traces(horizon: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinusoidal traces for desk-scale runs: four uncontrollable loads of
    amplitude up to 50 kW, and a reference of -300 +/- 150 kW."""
    rng = noise_mod.stream(seed, "build")
    t = np.arange(horizon + 1)[:, None]
    periods = rng.uniform(80.0, 400.0, size=4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    amps = 50.0 * rng.uniform(0.4, 1.0, size=4)
    w = amps * np.sin(2.0 * np.pi * t / periods + phases)
    p_ref = -300.0 + 150.0 * np.sin(
        2.0 * np.pi * t[:, 0] / rng.uniform(200.0, 500.0)
    )
    return w, p_ref


def load_demand_response_traces(path) -> tuple[np.ndarray, np.ndarray]:
    """Read disturbance/reference traces from CSV.

    Expected header: t, w_1, ..., w_m, p_ref; one row per time step, and
    t must read 0, 1, 2, ... in order (the first data row that does not
    is named).  Returns (w_trace of shape (T, m), p_ref of shape (T,)).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        cols = [c.strip() for c in next(reader, [])]
        if len(cols) < 3 or cols[0] != "t" or cols[-1] != "p_ref":
            raise ValueError(
                f"{path}: expected header 't, w_1..w_m, p_ref', got {cols}"
            )
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if row[0] != i:
            raise ValueError(
                f"{path}: t must read 0, 1, 2, ... in order; data row {i + 1} does not"
            )
    data = np.asarray(rows)
    return data[:, 1:-1], data[:, -1]


def sampled_times(horizon: int) -> list[int]:
    """The time indices the sampled certificates visit: 0, T // 2 and T."""
    return sorted({0, horizon // 2, horizon})


def _sample_ball(rng: np.random.Generator, n: int, radius: float, size: int) -> np.ndarray:
    direction = rng.normal(size=(size, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
    return direction * radii


def verify_pl(problem: OnlineProblem, t: int, n_samples: int, seed: int) -> float:
    """Largest mu with 2 mu (f_t - f*_t) <= ||grad f_t||^2 at n_samples points
    of the domain ball; points at the optimum are skipped, and inf, which
    every mu satisfies, is returned when all are."""
    if not problem.smooth_only():
        raise ValueError("gradient-domination check applies to unregularized costs")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = noise_mod.stream(seed, "verify", t)
    xs = _sample_ball(rng, problem.n, problem.domain_radius, n_samples)
    fstar = problem.fstar(t)
    gap = problem.value(t, xs) - fstar
    gsq = np.sum(problem.grad(t, xs) ** 2, axis=-1)
    keep = gap > 1e-12 * max(1.0, abs(fstar))
    if not keep.any():
        return math.inf
    return float(np.min(gsq[keep] / (2.0 * gap[keep])))


def prox_decrease(problem: OnlineProblem, t: int, x: np.ndarray) -> float | np.ndarray:
    """Exact surrogate decrease -2L min_y {<grad, y-x> + L/2 ||y-x||^2 + g(y) - g(x)}.

    The minimizer is the prox-gradient point y.  x must lie in dom g: g is
    0 or a box indicator, so g(x) = g(y) = 0 and the g terms drop out.  One
    value per row of x.
    """
    l = problem.smoothness
    g = problem.grad(t, x)
    # one buffer takes g / L, then v = x - g / L, then y = prox(v), then y - x
    d = np.divide(g, l)
    np.subtract(x, d, out=d)
    problem.regularizer.prox(1.0 / l, d, out=d)
    np.subtract(d, x, out=d)
    return -2.0 * l * (np.vecdot(g, d) + 0.5 * l * np.vecdot(d, d))

