"""Sampler reproducibility, exact moments, and envelope certification."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammaln

from plgrad.config import ConfigError, make_config
from plgrad.harness import run_experiment
from plgrad.noise import (
    FAMILIES,
    STREAMS,
    GradientErrors,
    NoiseModel,
    _gaussian_norm_k,
    _max_moment_ratio,
    _weibull_k,
    envelope_norm,
    mean_norm,
    sample,
    second_moment,
    time_scales,
)
from plgrad.problems import TimeVaryingLeastSquares
from plgrad.subweibull import SubWeibullParams, hp_bound, power, scale

N_MC = 10**5


def _norm_samples(model, n, count, seed=0):
    return np.linalg.norm(sample(model, n, seed, 0, count), axis=1)


def generic_envelope(model, n):
    """Looser ||e|| envelope from the closure algebra alone, for zero-bias models.

    Route: per-coordinate envelope -> square -> sum over n possibly dependent
    coordinates -> square root, with no distributional structure.
    """
    if model.family == "gaussian_iid":
        k = _gaussian_norm_k(model.scale, 1)  # |N(0, s^2)|
    elif model.family == "bounded_uniform":
        k = model.scale
    else:  # radial family: |e_i| <= R pointwise
        k = _weibull_k(model.scale, model.weibull_shape)
    coord = SubWeibullParams(model.theta, k)
    return power(scale(power(coord, 2.0), float(n)), 0.5)


def _identity_map_errors(model, n, horizon):
    """The errors of a problem whose gradient errors are the raw noise (dim n, gain 1)."""
    problem = TimeVaryingLeastSquares(
        n=n, d=n, mu=0.1, l=1.0, drift_std=0.0, obs_noise_std=0.0, seed=0, horizon=horizon
    )
    return GradientErrors(problem, model)


def test_stream_tags_are_distinct():
    # two consumers sharing a tag would draw the same numbers from one seed
    assert len(set(STREAMS.values())) == len(STREAMS)


class TestSampling:
    def test_zero_scale_draws_zeros(self):
        model = NoiseModel()
        block = sample(model, 7, 1, 2, 3)
        assert block.shape == (3, 7)
        assert np.all(block == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_scale_is_no_noise_in_every_family(self, family):
        # no noise is written scale = 0: zero draws, K = 0 and zero moments
        model = NoiseModel(family, scale=0.0, weibull_shape=0.5)
        assert np.all(sample(model, 4, 1, 2, 5) == 0.0)
        assert envelope_norm(model, 4).k == 0.0
        assert second_moment(model, 4) == 0.0 and mean_norm(model, 4) == 0.0

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
        model = NoiseModel(bias=0.7)
        assert np.allclose(sample(model, 5, 0, 0, 1), 0.7)

    def test_per_time_scale(self):
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 0.0, 2.0))
        block = sample(model, 3, 0, 0, 3)
        assert np.all(block[1] == 0.0)
        # rows are the base draws scaled by c_t
        base = sample(NoiseModel("gaussian_iid", scale=1.0), 3, 0, 0, 3)
        assert np.array_equal(block[2], 2.0 * base[2])
        assert np.array_equal(time_scales(model, 3), [1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            sample(model, 3, 0, 0, 4)  # scales cover only three steps


class TestMoments:
    @pytest.mark.parametrize(
        "model,n,expected",
        [
            (NoiseModel("gaussian_iid", scale=np.sqrt(1e-3)), 10, 0.01),
            (NoiseModel(), 4, 0.0),
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
        # the harness's analytic inputs scale E||e||^2 by c_t^2
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 3.0))
        moments, _ = _identity_map_errors(model, 2, 2).analytic(2, power=2)
        np.testing.assert_allclose(moments, [2.0, 18.0], rtol=1e-12)

    @pytest.mark.parametrize(
        "model, reason",
        [
            (NoiseModel("gaussian_iid", scale=1e154), "E||e||^2 = inf"),  # 2 s^2 overflows
            (NoiseModel("gaussian_iid", scale=1e200), "out of range"),  # s**2 raises
            (NoiseModel("weibull_tail", scale=0.01, weibull_shape=0.01), "math range error"),
        ],
        ids=["inf", "overflow", "weibull-shape"],
    )
    def test_non_finite_closed_forms_are_a_config_error(self, model, reason):
        # the experiment refuses it before any trial runs
        noise = {"family": model.family, "scale": model.scale, "weibull_shape": model.weibull_shape}
        cfg = make_config({"noise": noise}, {"preset": "static-ls", "horizon": 2, "trials": 1})
        with pytest.raises(ConfigError, match="no finite closed form") as info:
            run_experiment(cfg)
        assert reason in str(info.value)

    def test_mean_norm_time_varying(self):
        # power 1 takes c_t E||e||: the chi mean of 2 degrees of freedom, sqrt(pi / 2)
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 3.0))
        moments, _ = _identity_map_errors(model, 2, 2).analytic(2, power=1)
        base = math.sqrt(math.pi / 2.0)
        np.testing.assert_allclose(moments, [base, 3.0 * base], rtol=1e-12)


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
        env = envelope_norm(NoiseModel(), 6)
        assert env.k == 0.0

    def test_degenerate_iff_zero_scale(self):
        assert envelope_norm(NoiseModel("gaussian_iid", scale=0.0), 4).k == 0.0
        assert envelope_norm(NoiseModel("bounded_uniform", scale=0.0), 4).k == 0.0
        assert envelope_norm(NoiseModel("weibull_tail", scale=0.0), 4).k == 0.0
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

    def test_schedule_scales_the_bias_too(self):
        # c_t multiplies the whole error: a step with c_t = 0 draws nothing,
        # bias included, and the others are c_t times the unscheduled draw
        c = np.array((1.0, 0.0) * 3 + (2.5,))
        model = NoiseModel("gaussian_iid", scale=0.5, bias=0.05, per_time_scale=tuple(c))
        block = sample(model, 4, 7, 3, len(c))
        base = sample(NoiseModel("gaussian_iid", scale=0.5, bias=0.05), 4, 7, 3, len(c))
        assert np.all(block[c == 0.0] == 0.0)
        np.testing.assert_allclose(block[c > 0], c[c > 0, None] * base[c > 0], rtol=1e-12)
        assert np.array_equal(time_scales(NoiseModel(), 3), np.ones(3))

    def test_generic_composition_dominates(self):
        for model in (
            NoiseModel("gaussian_iid", scale=1.0),
            NoiseModel("bounded_uniform", scale=1.0),
            NoiseModel("weibull_tail", scale=1.0, weibull_shape=0.5),
        ):
            family = envelope_norm(model, 10)
            loose = generic_envelope(model, 10)
            assert loose.theta == family.theta
            assert loose.k >= family.k

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

    @pytest.mark.parametrize(
        "model,n",
        [
            (NoiseModel("weibull_tail", scale=0.8, weibull_shape=k), 10)
            for k in (0.3, 0.5, 1.0, 2.0, 5.0)
        ]
        + [(NoiseModel("gaussian_iid", scale=0.8), n) for n in (1, 10, 500)],
    )
    def test_family_ratios_peak_inside_the_grid(self, model, n):
        # the edge guard in _max_moment_ratio does not fire on the families
        assert envelope_norm(model, n).k > 0.0

    def test_ratio_largest_at_grid_edge_raises(self):
        # negative control: log-moment 0.6 log p grows faster than 0.5 log p,
        # so the ratio p**0.1 is unbounded and its grid sup understates K
        with pytest.raises(ValueError, match="grid edge"):
            _max_moment_ratio(lambda p: 0.6 * np.log(p), 0.5)
        # at exactly theta log p the ratio is flat; the sup is attained at p = 1
        assert _max_moment_ratio(lambda p: 0.5 * np.log(p), 0.5) == pytest.approx(1.0)

    def test_envelope_at_time(self):
        # the harness's analytic inputs scale K by c_t
        model = NoiseModel("gaussian_iid", scale=1.0, per_time_scale=(1.0, 4.0))
        base = envelope_norm(model, 10)
        _, ks = _identity_map_errors(model, 10, 2).analytic(2, power=2)
        np.testing.assert_allclose(ks, [base.k, 4.0 * base.k], rtol=1e-12)


class TestGammalnAgreement:
    """The math.lgamma forms agree with the scipy.special.gammaln formulas."""

    @staticmethod
    def _rtol(n):
        # the Gaussian forms subtract two log-gamma values of size about
        # |lgamma(n/2)|, each good to a few ulp, so two implementations can
        # agree no better than a few ulp of that size (2.3e-13 at n = 500)
        return max(1e-14, 16 * np.finfo(float).eps * abs(math.lgamma(n / 2.0)))

    @pytest.mark.parametrize("n", [1, 2, 10, 500])
    def test_gaussian(self, n):
        sigma = 0.7
        model = NoiseModel("gaussian_iid", scale=sigma)
        mean = sigma * np.sqrt(2.0) * np.exp(gammaln((n + 1) / 2.0) - gammaln(n / 2.0))
        k = _max_moment_ratio(
            lambda p: np.log(sigma)
            + 0.5 * np.log(2.0)
            + (gammaln((n + p) / 2.0) - gammaln(n / 2.0)) / p,
            0.5,
        )
        assert mean_norm(model, n) == pytest.approx(mean, rel=self._rtol(n), abs=0.0)
        assert envelope_norm(model, n).k == pytest.approx(k, rel=self._rtol(n), abs=0.0)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_weibull(self, shape):
        # the radial family's moments do not depend on the dimension
        n = 10
        lam = 1.3
        model = NoiseModel("weibull_tail", scale=lam, weibull_shape=shape)
        k = _max_moment_ratio(lambda p: np.log(lam) + gammaln(1.0 + p / shape) / p, 1.0 / shape)
        expected = {
            "mean": lam * np.exp(gammaln(1.0 + 1.0 / shape)),
            "second": lam**2 * np.exp(gammaln(1.0 + 2.0 / shape)),
            "k": k,
        }
        got = {
            "mean": mean_norm(model, n),
            "second": second_moment(model, n),
            "k": envelope_norm(model, n).k,
        }
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=1e-14, abs=0.0), name


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy", scale=1.0)

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian_iid", scale=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("scale", math.nan),
            ("scale", math.inf),
            ("weibull_shape", math.nan),
            ("bias", math.nan),
            ("envelope_k_scale", math.nan),
            ("per_time_scale", (1.0, math.nan)),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        # an analytic envelope of nan would make each high-probability series
        # nan, which no regret exceeds, so coverage would pass vacuously
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{"family": "gaussian_iid", "scale": 1.0, field: value})

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sample(NoiseModel(), 0, 0, 0, 1)
