"""Closure algebra, quantile bound, and moment-fit tests.

Frozen expected values were computed from the defining formulas (and, for
the Gaussian fit, from the absolute-moment identity
E|N(0,s^2)|^k = s^k 2^(k/2) Gamma((k+1)/2) / sqrt(pi)) before being asserted
here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from plgrad.subweibull import (
    SubWeibullParams,
    add,
    add_scalar,
    fit_from_samples,
    hp_bound,
    power,
    scale,
)


class TestClosureRules:
    @pytest.mark.parametrize(
        "params,a,expected",
        [
            ((0.5, 2.0), 3.0, (0.5, 6.0)),
            ((1.0, 5.0), 0.0, (1.0, 0.0)),
            ((2.0, 1.5), -2.0, (2.0, 3.0)),
        ],
    )
    def test_scale(self, params, a, expected):
        out = scale(SubWeibullParams(*params), a)
        assert (out.theta, out.k) == expected

    @pytest.mark.parametrize(
        "params,a,expected",
        [
            ((0.5, 2.0), 1.0, (0.5, 3.0)),
            ((1.0, 4.0), 0.0, (1.0, 4.0)),
            ((1.0, 0.0), -3.0, (1.0, 3.0)),
        ],
    )
    def test_add_scalar(self, params, a, expected):
        out = add_scalar(SubWeibullParams(*params), a)
        assert (out.theta, out.k) == expected

    def test_add_takes_max_theta_and_sums_k(self):
        out = add(SubWeibullParams(0.5, 1.0), SubWeibullParams(1.0, 2.0))
        assert (out.theta, out.k) == (1.0, 3.0)

    def test_add_degenerate_summand(self):
        out = add(SubWeibullParams(1.0, 0.0), SubWeibullParams(1.0, 7.0))
        assert (out.theta, out.k) == (1.0, 7.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fold_of_n_copies(self, n):
        # induction on the two-variable rule: n identical summands give n K
        x = SubWeibullParams(0.7, 1.3)
        acc = x
        for _ in range(n - 1):
            acc = add(acc, x)
        assert acc.theta == x.theta
        assert acc.k == pytest.approx(n * x.k, rel=1e-15)

    def test_power_square_formula(self):
        # X^2 climbs to (2 theta, 4^theta K^2) since 2^(2 theta) >= 1
        for theta, k in [(0.5, 3.0), (1.0, 2.0), (2.0, 0.7)]:
            out = power(SubWeibullParams(theta, k), 2.0)
            assert out.theta == 2 * theta
            assert out.k == pytest.approx(4.0**theta * k**2, rel=1e-15)

    def test_power_examples(self):
        out = power(SubWeibullParams(0.5, 3.0), 2.0)
        assert (out.theta, out.k) == (1.0, 18.0)
        identity = power(SubWeibullParams(1.0, 5.0), 1.0)
        assert (identity.theta, identity.k) == (1.0, 5.0)

    def test_power_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            power(SubWeibullParams(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            power(SubWeibullParams(1.0, 1.0), -1.0)

    def test_power_then_scale_commutes_with_formulas(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = rng.uniform(0.1, 3.0)
            k = rng.uniform(0.0, 5.0)
            c = rng.uniform(-4.0, 4.0)
            out = scale(power(SubWeibullParams(theta, k), 2.0), c)
            assert out.k == pytest.approx(abs(c) * 4.0**theta * k**2, rel=1e-12)

    def test_add_associative_in_k_max_in_theta(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            xs = [
                SubWeibullParams(rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0))
                for _ in range(3)
            ]
            left = add(add(xs[0], xs[1]), xs[2])
            right = add(xs[0], add(xs[1], xs[2]))
            assert left.theta == right.theta == max(x.theta for x in xs)
            assert left.k == pytest.approx(right.k, rel=1e-15)
            assert left.k == pytest.approx(sum(x.k for x in xs), rel=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SubWeibullParams(0.0, 1.0)
        with pytest.raises(ValueError):
            SubWeibullParams(1.0, -0.1)

    @pytest.mark.parametrize("theta, k", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)])
    def test_non_finite_params(self, theta, k):
        with pytest.raises(ValueError, match="finite"):
            SubWeibullParams(theta, k)


class TestTailAndQuantile:
    def test_hp_bound_values(self):
        # log(2/delta) = 1 at delta = 2/e, leaving K (2e/theta)^theta
        assert hp_bound(SubWeibullParams(1.0, 1.0), 2.0 / math.e) == pytest.approx(
            2.0 * math.e, rel=1e-12
        )
        assert hp_bound(SubWeibullParams(0.5, 2.0), 0.05) == pytest.approx(
            12.666436902298189, rel=1e-12
        )
        assert hp_bound(SubWeibullParams(3.0, 0.0), 0.5) == 0.0

    def test_hp_bound_monotone_in_delta(self):
        x = SubWeibullParams(0.8, 2.5)
        deltas = np.linspace(0.01, 0.99, 25)
        values = [hp_bound(x, d) for d in deltas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_hp_bound_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hp_bound(SubWeibullParams(1.0, 1.0), delta)


def _sampled_moment_norms(samples: np.ndarray, k_max: int = 10) -> np.ndarray:
    s = np.abs(samples)
    return np.array([np.mean(s**k) ** (1.0 / k) for k in range(1, k_max + 1)])


# exact moment scale of |N(0,1)|: max_k ||X||_k / sqrt(k), attained at k = 1
# with value E|X| = sqrt(2/pi)
HALF_NORMAL_K = math.sqrt(2.0 / math.pi)


class TestMomentSemantics:
    """Operations keep the moment inequality testable by sampling."""

    N_SAMPLES = 10**5
    SLACK = 1.1

    @pytest.fixture(scope="class")
    @staticmethod
    def half_normal():
        rng = np.random.default_rng(123)
        return np.abs(rng.normal(size=TestMomentSemantics.N_SAMPLES))

    def _assert_envelope(self, samples, params):
        norms = _sampled_moment_norms(samples)
        orders = np.arange(1, 11)
        bound = params.k * orders**params.theta
        assert np.all(norms <= bound * self.SLACK), (norms / bound).max()

    def test_base_envelope(self, half_normal):
        self._assert_envelope(half_normal, SubWeibullParams(0.5, HALF_NORMAL_K))

    def test_scale_envelope(self, half_normal):
        x = SubWeibullParams(0.5, HALF_NORMAL_K)
        self._assert_envelope(-2.5 * half_normal, scale(x, -2.5))

    def test_add_scalar_envelope(self, half_normal):
        x = SubWeibullParams(0.5, HALF_NORMAL_K)
        self._assert_envelope(3.0 + half_normal, add_scalar(x, 3.0))

    def test_add_envelope_dependent(self, half_normal):
        # fully dependent sum: X + 2X against the two-variable rule
        x = SubWeibullParams(0.5, HALF_NORMAL_K)
        self._assert_envelope(half_normal + 2.0 * half_normal, add(x, scale(x, 2.0)))

    def test_power_envelope(self, half_normal):
        x = SubWeibullParams(0.5, HALF_NORMAL_K)
        self._assert_envelope(half_normal**2, power(x, 2.0))


class TestFitFromSamples:
    def test_all_zero_samples(self):
        out = fit_from_samples(np.zeros(100), theta=1.0)
        assert (out.theta, out.k) == (1.0, 0.0)

    def test_signed_samples_fit_as_their_magnitudes(self):
        # negative entries and -0.0 take the |x| copy; the all-zero case
        # keeps K = +0.0 whatever the signs of its zeros
        x = np.random.default_rng(3).normal(size=(20, 30))
        x[0, :5] = -0.0
        assert fit_from_samples(x, 0.5).k == fit_from_samples(np.abs(x), 0.5).k
        zeros = fit_from_samples(np.array([-0.0, 0.0, -0.0]), 1.0).k
        assert zeros == 0.0 and not math.copysign(1.0, zeros) < 0

    def test_norms_are_not_copied(self):
        # nonnegative samples are read in place: the traced peak holds the
        # power buffer and small objects, not a second copy of the samples
        norms = np.abs(np.random.default_rng(4).normal(size=30_000))
        tracemalloc.start()
        try:
            fit_from_samples(norms, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * norms.nbytes, (peak, norms.nbytes)

    def test_constant_samples(self):
        # for constant c the ratio c / k^theta is maximized at k = 1
        out = fit_from_samples(np.full(50, 2.0), theta=1.0)
        assert out.k == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_fit_matches_moment_formula(self):
        # oracle: E|X|^k = s^k 2^(k/2) Gamma((k+1)/2)/sqrt(pi); the ratio
        # ||X||_k / sqrt(k) peaks at k = 1 with sqrt(2/pi) s = 0.79788 s
        sigma = 2.0
        rng = np.random.default_rng(2024)
        samples = np.abs(rng.normal(0.0, sigma, size=10**5))
        out = fit_from_samples(samples, theta=0.5)
        assert out.k == pytest.approx(HALF_NORMAL_K * sigma, rel=0.03)

    def test_fit_coverage(self):
        rng = np.random.default_rng(31)
        samples = np.abs(rng.normal(size=10**5))
        fitted = fit_from_samples(samples, theta=0.5)
        for delta in (0.1, 0.05, 0.01):
            bound = hp_bound(fitted, delta)
            assert np.mean(samples > bound) <= delta

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_from_samples(np.array([]), theta=0.5)
