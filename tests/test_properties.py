"""Property-based invariants, drawn by hypothesis over whole input ranges.

The fixed-point tests elsewhere pin each invariant at the presets' seeds and
sizes; these draw the inputs instead.  Every property runs derandomized,
with a fixed example count, a per-example deadline and no example database,
so a run is deterministic and writes nothing.

* Chunk invariance: however 1-12 trials are split into batches, every
  per-trial row of `run` has the bits of the one-batch run.
* Compaction cannot be seen: on one-row measured box problems of any
  device layout, `run`, which iterates one column per run of equal
  devices, gives every output with the bits of the n-column reference loop.
* The certified step-norm maximum cannot be seen: with scripted noise
  that makes zero steps, steps whose squares underflow, steps tied with
  the running maximum and a row that turns nan at a drawn t, `run` gives
  every output, or the abort message, of the loop that sums every widened
  step.
* Scope soundness: wherever `theory_scope` passes, `recursion_pathwise`
  passes, over every family, both solvers where they apply and every noise
  family, with demand response on default, scalar and per-device bounds.
* Envelope soundness: `envelope_norm`'s K is at least ||e||_p / p^theta at
  any p in [1, 400], the moment taken at 50 digits with mpmath.
* gradient_fd passes a correct least-squares gradient at any observation
  noise in [0, 1e4], where f grows to about 1e9.
"""

import math
from unittest import mock

import mpmath
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import test_solvers
from plgrad import noise as noise_mod
from plgrad import solvers as solvers_mod
from plgrad.bounds import SOLVERS
from plgrad.config import make_config
from plgrad.harness import _check_gradient, run_experiment, validate_bounds
from plgrad.noise import FAMILIES, NoiseModel, envelope_norm
from plgrad.problems import synth_demand_response_traces
from plgrad.solvers import run
from test_checks import static_ls
from test_problems import weighted_demand_response
from test_solvers import FAMILY_NAMES, PER_TRIAL, _families, bits, reference_run

FAMILY_CASES = _families()


@st.composite
def split_trials(draw):
    """Distinct trial indices in any order, and the cut points of a split."""
    trials = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    cuts = draw(st.sets(st.integers(1, len(trials) - 1))) if len(trials) > 1 else set()
    return trials, [0, *sorted(cuts), len(trials)]


@settings(derandomize=True, max_examples=40, deadline=1000, database=None)
@given(family=st.sampled_from(FAMILY_NAMES), split=split_trials(), seed=st.integers(0, 2**16))
def test_any_split_of_the_trials_gives_the_same_rows(family, split, seed):
    problem, model = FAMILY_CASES[family]
    trials, bounds = split
    whole = run(problem, model, seed=seed, trials=trials)
    parts = [run(problem, model, seed=seed, trials=trials[a:b]) for a, b in zip(bounds, bounds[1:])]
    for name in PER_TRIAL + ("domain_excursions", "max_step_norm"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(joined, getattr(whole, name)), name


# powers of two and 0, so a (r + eta) has the bits of the reference loop's
# a r + a eta; both signs of zero among the bounds
WEIGHTS = (1.0, 0.5, -2.0, 0.0)
LOWER = (-50.0, -1.5, -0.0, 0.0)
UPPER = (-0.0, 0.0, 2.0, 50.0)


@st.composite
def device_class(draw):
    """A device's (weight, lo, hi, x0), x0 feasible; every lo <= every hi."""
    lo, hi = draw(st.sampled_from(LOWER)), draw(st.sampled_from(UPPER))
    return draw(st.sampled_from(WEIGHTS)), lo, hi, draw(st.sampled_from((lo, hi, 0.5 * (lo + hi))))


@st.composite
def device_layout(draw):
    """Devices as contiguous classes, interleaved classes, one class or
    each its own draw: 1 to 24 of them."""
    layout = draw(st.sampled_from(("contiguous", "interleaved", "one class", "all distinct")))
    if layout == "all distinct":
        return draw(st.lists(device_class(), min_size=1, max_size=12))
    if layout == "one class":
        return [draw(device_class())] * draw(st.integers(1, 12))
    classes = draw(st.lists(device_class(), min_size=2, max_size=4))
    if layout == "interleaved":
        return classes * draw(st.integers(1, 4))
    return [c for c in classes for _ in range(draw(st.integers(1, 6)))]


# the loads of the first four devices clamp at lo = -0.0, the rest at lo = 0.0
SIGNED_ZEROS = [(1.0, -0.0, 50.0, 0.0)] * 4 + [(1.0, 0.0, 50.0, 0.0)] * 4


@settings(derandomize=True, max_examples=60, deadline=1000, database=None)
@given(
    devices=device_layout(),
    split=split_trials(),
    horizon=st.integers(1, 25),
    shift=st.sampled_from((-1000.0, 0.0, 1000.0)),
    seed=st.integers(0, 2**16),
)
@example(devices=SIGNED_ZEROS, split=([0, 1, 2, 3], [0, 2, 4]), horizon=20, shift=-1000.0, seed=3)
def test_compaction_cannot_be_seen_in_the_outputs(devices, split, horizon, shift, seed):
    a, lo, hi, x0 = (np.array(column) for column in zip(*devices))
    assume(np.any(a != 0.0) and np.any(np.maximum(np.abs(lo), np.abs(hi)) > 0.0))
    w, p_ref = synth_demand_response_traces(horizon, seed)
    problem = weighted_demand_response(horizon, p_ref + shift, w, lo, hi, a)
    model = NoiseModel("gaussian_iid", scale=10.0)
    trials, cuts = split
    parts = [
        run(problem, model, x0=x0, seed=seed, trials=trials[i:j]) for i, j in zip(cuts, cuts[1:])
    ]
    ref = reference_run(problem, model, seed, trials, x0=x0)
    for name, expected in ref.items():
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(bits(joined), bits(expected)), name


# scripted measurement noise: zero and repeated values give zero and tied
# steps, 1e-160 and below give steps whose squares underflow
ETAS = (0.0, 0.0, 1.0, -1.0, 3.0, 1e-160, -1e-160, 1e-170, 5e-324, 1e-300)


@st.composite
def scripted_run(draw):
    """Two device classes, a box half-width, and a scripted noise block of
    shape (horizon, trials) with at most one nan at a drawn (t, trial)."""
    sizes = draw(st.tuples(st.integers(1, 5), st.integers(2, 5)))
    width = draw(st.sampled_from((1e-150, 1.0, 50.0)))
    horizon, trials = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    etas = draw(st.lists(st.sampled_from(ETAS), min_size=horizon * trials,
                         max_size=horizon * trials))
    noise = np.array(etas).reshape(horizon, trials)
    if draw(st.booleans()):
        noise[draw(st.integers(0, horizon - 1)), draw(st.integers(0, trials - 1))] = np.nan
    return sizes, width, noise


def _outcome(problem, model, trials):
    """Every output of run as bit patterns, or its abort message."""
    try:
        traj = run(problem, model, seed=0, trials=trials)
    except RuntimeError as exc:
        return str(exc)
    names = PER_TRIAL + ("domain_excursions", "max_step_norm")
    return {name: bits(getattr(traj, name)).tolist() for name in names}


@settings(derandomize=True, max_examples=80, deadline=1000, database=None)
@given(case=scripted_run())
def test_certified_step_maximum_cannot_be_seen(case):
    (left, right), width, noise = case
    horizon, trials = noise.shape
    # b_t = 0; the classes differ in lo, so they compact to two columns
    lo = np.repeat([-width, -0.5 * width], [left, right])
    problem = weighted_demand_response(
        horizon, np.zeros(horizon + 1), np.zeros((horizon + 1, 1)), lo,
        np.full(left + right, width), np.ones(left + right))
    assert problem.compacted(np.zeros(left + right))[1].tolist() == [left, right]

    def scripted(model, dim, seed, trial, steps):
        return noise[:steps, trial, None].copy()

    model = NoiseModel("gaussian_iid", scale=1.0)
    with mock.patch.object(noise_mod, "sample", scripted), \
            mock.patch.object(test_solvers, "sample", scripted):
        got = _outcome(problem, model, range(trials))
        # no row passes a bound of inf: every step takes the widened sum
        with mock.patch.object(
                solvers_mod, "_step_bracket", lambda runs: (runs * 0.0, np.inf)):
            assert _outcome(problem, model, range(trials)) == got
        if isinstance(got, str):
            assert got.startswith("non-finite iterate at t=") and np.isnan(noise).any()
            return
        ref = reference_run(problem, model, 0, range(trials))
    for name, expected in ref.items():
        assert got[name] == bits(expected).tolist(), name


@st.composite
def experiment(draw):
    """A small config of any problem kind, solver and noise family."""
    horizon = draw(st.integers(1, 50))
    kind = draw(st.sampled_from(("timevarying_ls", "logistic", "lti_tracking", "demand_response")))
    n = draw(st.integers(1, 6))
    if kind == "timevarying_ls":
        mu = draw(st.floats(0.01, 1.0))
        problem = dict(
            n=n, d=n + draw(st.integers(0, 6)), mu=mu, l=mu * draw(st.floats(1.0, 100.0)),
            drift_std=draw(st.floats(0.0, 1.0)), obs_noise_std=draw(st.floats(0.0, 10.0)),
        )
    elif kind == "logistic":
        problem = dict(n=n, d=n + draw(st.integers(1, 10)), drift_std=draw(st.floats(0.0, 0.1)))
    elif kind == "lti_tracking":
        problem = dict(n=n, m=n + draw(st.integers(0, 6)))
    else:
        # default bounds compact to two columns, scalar ones to one, and
        # per-device ones only where neighbours are equal
        n = draw(st.integers(1, 20))
        problem = dict(n_der=n)
        bounds = draw(st.sampled_from(("default", "scalar", "per-device")))
        if bounds != "default":
            size = 1 if bounds == "scalar" else n
            # the origin, where every run starts, lies in the box
            lo = draw(st.lists(st.sampled_from((-50.0, -10.0, 0.0)), min_size=size, max_size=size))
            problem["bounds_lo"] = tuple(lo)
            problem["bounds_hi"] = tuple(b + draw(st.sampled_from((50.0, 100.0))) for b in lo)
    solver = "opgm" if kind == "demand_response" else draw(st.sampled_from(SOLVERS))
    noise = dict(
        family=draw(st.sampled_from(FAMILIES)),
        scale=draw(st.floats(0.0, 20.0)),
        weibull_shape=draw(st.floats(0.5, 4.0)),
        bias=draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
    )
    if draw(st.booleans()):
        noise["per_time_scale"] = tuple(
            draw(st.lists(st.floats(0.0, 2.0), min_size=horizon, max_size=horizon)))
    run_settings = dict(
        solver=solver, horizon=horizon, trials=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
    )
    return make_config(
        {"experiment": run_settings, "problem": {"kind": kind, **problem}, "noise": noise})


@settings(derandomize=True, max_examples=80, deadline=2000, database=None)
@given(cfg=experiment())
def test_recursion_holds_wherever_the_theory_applies(cfg):
    scope, recursion = validate_bounds(run_experiment(cfg), checks=("recursion",)).checks
    assert recursion.passed or not scope.passed, recursion.detail


def _moment_ratio(model, n, p):
    """An upper bound on ||e||_p / p^theta, exact for unbiased gaussian_iid
    and weibull_tail, at 50 digits.

    gaussian_iid: E||e||^p = s^p 2^(p/2) Gamma((n + p)/2) / Gamma(n/2).
    weibull_tail: the norm is the Weibull radius, E R^p = s^p Gamma(1 + p/k).
    bounded_uniform: ||e|| <= s sqrt(n) almost surely, a bound on every
    p-norm.  A bias adds |b| sqrt(n) to the p-norm at most (Minkowski).
    """
    with mpmath.workdps(50):
        p, s, k = mpmath.mpf(p), mpmath.mpf(model.scale), mpmath.mpf(model.weibull_shape)
        if model.family == "gaussian_iid":
            lg = mpmath.loggamma((n + p) / 2) - mpmath.loggamma(mpmath.mpf(n) / 2)
            norm = s * mpmath.sqrt(2) * mpmath.exp(lg / p)
        elif model.family == "weibull_tail":
            norm = s * mpmath.exp(mpmath.loggamma(1 + p / k) / p)
        else:
            norm = s * mpmath.sqrt(n)
        norm += abs(mpmath.mpf(model.bias)) * mpmath.sqrt(n)
        return norm / p ** mpmath.mpf(model.theta)


@settings(derandomize=True, max_examples=150, deadline=500, database=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 500),
    scale=st.floats(1e-3, 1e3),
    shape=st.floats(0.1, 10.0),
    bias=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
    p=st.floats(1.0, 400.0),
)
def test_envelope_k_bounds_every_moment_ratio(family, n, scale, shape, bias, p):
    model = NoiseModel(family, scale=scale, weibull_shape=shape, bias=bias)
    k = envelope_norm(model, n).k
    # K comes from float lgamma, whose difference at n = 500 loses about
    # 2e-13 of the exact value (lgamma(250.5) is about 1,131); the sup
    # itself sits at p = 1, which the grid holds
    assert k >= float(_moment_ratio(model, n, p)) * (1.0 - 1e-12)


@settings(derandomize=True, max_examples=25, deadline=2000, database=None)
@given(obs_noise_std=st.floats(0.0, 1e4))
def test_correct_gradient_passes_at_any_observation_noise(obs_noise_std):
    result = _check_gradient(*static_ls(obs_noise_std))
    assert result.passed, (obs_noise_std, result.detail)
