"""Property-based invariants, drawn by hypothesis over whole input ranges.

The fixed-point tests elsewhere pin each invariant at the presets' seeds and
sizes; these draw the inputs instead.  Every property runs derandomized,
with a fixed example count, a per-example deadline and no example database,
so a run is deterministic and writes nothing.

* Chunk invariance: however 1-12 trials are split into batches, every
  per-trial row of `run` has the bits of the one-batch run.
* Envelope soundness: `envelope_norm`'s K is at least ||e||_p / p^theta at
  any p in [1, 400], the moment taken at 50 digits with mpmath.
* gradient_fd passes a correct least-squares gradient at any observation
  noise in [0, 1e4], where f grows to about 1e9.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plgrad.harness import _check_gradient
from plgrad.noise import FAMILIES, NoiseModel, envelope_norm
from plgrad.solvers import run
from test_checks import static_ls
from test_solvers import FAMILY_NAMES, PER_TRIAL, _families

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
