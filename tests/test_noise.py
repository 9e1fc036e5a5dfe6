"""Sampler reproducibility, exact moments, and envelope certification."""

import numpy as np
import pytest
from scipy.special import gamma

from plgrad.noise import (
    NoiseModel,
    envelope_norm,
    envelope_norm_at,
    envelope_norm_generic,
    mean_norm,
    sample,
    second_moment,
)
from plgrad.subweibull import hp_bound

N_MC = 10**5


def _norm_samples(model, n, count, seed=0):
    return np.linalg.norm(sample(model, n, seed, 0, count), axis=1)


class TestSampling:
    def test_zero_family(self):
        model = NoiseModel("zero")
        block = sample(model, 7, 1, 2, 3)
        assert block.shape == (3, 7)
        assert np.all(block == 0.0)

    def test_keyed_reproducibility(self):
        model = NoiseModel("gaussian_iid", scale=0.3)
        a = sample(model, 10, seed=5, trial=9, horizon=100)
        b = sample(model, 10, seed=5, trial=9, horizon=100)
        assert a.shape == (100, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(model, 10, seed=5, trial=8, horizon=100))
        assert not np.array_equal(a, sample(model, 10, seed=6, trial=9, horizon=100))
        # rows within a block are distinct draws
        assert not np.array_equal(a[0], a[1])

    def test_gaussian_second_moment_monte_carlo(self):
        # chi-square identity: E||e||^2 = n sigma^2
        model = NoiseModel("gaussian_iid", scale=0.5)
        n = 10
        rng_samples = np.sum(sample(model, n, 0, 0, N_MC // 10) ** 2, axis=1)
        assert rng_samples.mean() == pytest.approx(n * 0.25, rel=0.02)

    def test_bounded_uniform_worst_case(self):
        model = NoiseModel("bounded_uniform", scale=2.0)
        for n in (1, 2, 3):
            norms = _norm_samples(model, n, 2000)
            assert np.all(norms <= 2.0 * np.sqrt(n) + 1e-12)

    def test_weibull_radius_distribution(self):
        # the norm is exactly the Weibull radius
        model = NoiseModel("weibull_tail", scale=1.5, weibull_shape=2.0)
        norms = _norm_samples(model, 4, 4000)
        expected = 1.5 * gamma(1.0 + 1.0 / 2.0)
        assert norms.mean() == pytest.approx(expected, rel=0.05)

    def test_bias_offsets_every_coordinate(self):
        model = NoiseModel("zero", bias=0.7)
        assert np.allclose(sample(model, 5, 0, 0, 1), 0.7)

    def test_per_time_scale(self):
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 0.0, 2.0))
        block = sample(model, 3, 0, 0, 3)
        assert np.all(block[1] == 0.0)
        # rows are the base draws scaled by c_t
        base = sample(NoiseModel("gaussian_iid", scale=1.0), 3, 0, 0, 3)
        assert np.array_equal(block[2], 2.0 * base[2])
        assert model.scale_at(2) == 2.0
        with pytest.raises(ValueError):
            sample(model, 3, 0, 0, 4)  # scales cover only three steps


class TestMoments:
    @pytest.mark.parametrize(
        "model,n,expected",
        [
            (NoiseModel("gaussian_iid", scale=np.sqrt(1e-3)), 10, 0.01),
            (NoiseModel("zero"), 4, 0.0),
            (NoiseModel("bounded_uniform", scale=3.0), 2, 6.0),
            (
                NoiseModel("weibull_tail", scale=1.5, weibull_shape=0.5),
                3,
                1.5**2 * gamma(5.0),
            ),
        ],
    )
    def test_second_moment_closed_forms(self, model, n, expected):
        assert second_moment(model, n) == pytest.approx(expected, rel=1e-12)

    def test_second_moment_with_bias(self):
        model = NoiseModel("gaussian_iid", scale=1.0, bias=2.0)
        # zero-mean raw part plus n b^2
        assert second_moment(model, 5) == pytest.approx(5.0 + 5 * 4.0, rel=1e-12)

    def test_mean_norm_gaussian_exact(self):
        model = NoiseModel("gaussian_iid", scale=1.0)
        # chi mean with n = 10 degrees of freedom
        expected = np.sqrt(2.0) * gamma(11 / 2) / gamma(5.0)
        assert mean_norm(model, 10) == pytest.approx(expected, rel=1e-12)
        mc = _norm_samples(model, 10, 4000).mean()
        assert mc == pytest.approx(expected, rel=0.02)

    def test_mean_norm_uniform_is_upper_bound(self):
        model = NoiseModel("bounded_uniform", scale=1.0)
        mc = _norm_samples(model, 5, 4000).mean()
        assert mc <= mean_norm(model, 5)

    def test_second_moment_time_varying(self):
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 3.0))
        assert second_moment(model, 2, t=1) == pytest.approx(18.0, rel=1e-12)


class TestEnvelopes:
    SLACK = 1.1

    @pytest.mark.parametrize(
        "model,theta",
        [
            (NoiseModel("gaussian_iid", scale=0.8), 0.5),
            (NoiseModel("bounded_uniform", scale=0.8), 0.5),
            (NoiseModel("weibull_tail", scale=0.8, weibull_shape=0.5), 2.0),
            (NoiseModel("weibull_tail", scale=0.8, weibull_shape=2.0), 0.5),
        ],
    )
    def test_moment_inequality_at_n10(self, model, theta):
        env = envelope_norm(model, 10)
        assert env.theta == theta
        norms = _norm_samples(model, 10, N_MC)
        orders = np.arange(1, 11)
        sampled = np.array([np.mean(norms**k) ** (1.0 / k) for k in orders])
        assert np.all(sampled <= env.k * orders**env.theta * self.SLACK)

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel("gaussian_iid", scale=0.8),
            NoiseModel("weibull_tail", scale=0.8, weibull_shape=0.5),
        ],
    )
    def test_hp_coverage(self, model):
        env = envelope_norm(model, 10)
        norms = _norm_samples(model, 10, N_MC)
        for delta in (0.1, 0.01):
            assert np.mean(norms > hp_bound(env, delta)) <= delta

    def test_zero_envelope(self):
        env = envelope_norm(NoiseModel("zero"), 6)
        assert env.k == 0.0

    def test_degenerate_iff_zero_family_or_scale(self):
        assert envelope_norm(NoiseModel("gaussian_iid", scale=0.0), 4).k == 0.0
        assert envelope_norm(NoiseModel("bounded_uniform", scale=0.0), 4).k == 0.0
        for model in (
            NoiseModel("gaussian_iid", scale=1e-9),
            NoiseModel("bounded_uniform", scale=1e-9),
            NoiseModel("weibull_tail", scale=1e-9, weibull_shape=1.0),
        ):
            assert envelope_norm(model, 4).k > 0.0

    def test_scaling_is_linear_in_k(self):
        base = envelope_norm(NoiseModel("gaussian_iid", scale=1.0), 10)
        scaled = envelope_norm(NoiseModel("gaussian_iid", scale=2.5), 10)
        assert scaled.k == pytest.approx(2.5 * base.k, rel=1e-12)
        assert scaled.theta == base.theta

    def test_generic_composition_dominates(self):
        for model in (
            NoiseModel("gaussian_iid", scale=1.0),
            NoiseModel("bounded_uniform", scale=1.0),
            NoiseModel("weibull_tail", scale=1.0, weibull_shape=0.5),
        ):
            tight = envelope_norm(model, 10)
            loose = envelope_norm_generic(model, 10)
            assert loose.theta == tight.theta
            assert loose.k >= tight.k

    def test_gaussian_k_close_to_fit(self):
        # family formula within a factor 2 of the empirical moment fit
        from plgrad.subweibull import fit_from_samples

        model = NoiseModel("gaussian_iid", scale=0.5)
        env = envelope_norm(model, 10)
        fitted = fit_from_samples(_norm_samples(model, 10, N_MC), theta=0.5)
        assert env.k <= 2.0 * fitted.k
        assert fitted.k <= 2.0 * env.k

    def test_envelope_k_scale_diagnostic(self):
        honest = envelope_norm(NoiseModel("gaussian_iid", scale=1.0), 10)
        halved = envelope_norm(
            NoiseModel("gaussian_iid", scale=1.0, envelope_k_scale=0.5), 10
        )
        assert halved.k == pytest.approx(0.5 * honest.k, rel=1e-12)

    def test_envelope_at_time(self):
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 4.0))
        base = envelope_norm(model, 10)
        assert envelope_norm_at(model, 10, 1).k == pytest.approx(4.0 * base.k, rel=1e-12)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy", scale=1.0)

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian_iid", scale=-1.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sample(NoiseModel("zero"), 0, 0, 0, 1)
