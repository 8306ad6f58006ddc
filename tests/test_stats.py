"""Weighted Kolmogorov-Smirnov tests, log-mean-exp, and the Poisson
goodness-of-fit statistic of the PPP-law tests."""

import numpy as np
import pytest

from conftest import chisquare_poisson, weighted_ks_2samp
from hyptrap.stats import (
    effective_sample_size,
    kolmogorov_tail,
    log_mean_exp,
    weighted_cdf,
    weighted_ks_1samp,
)


class TestEffectiveSampleSize:
    def test_uniform_weights(self):
        assert effective_sample_size(np.ones(100)) == 100.0

    def test_single_atom(self):
        w = np.zeros(10)
        w[3] = 2.0
        assert effective_sample_size(w) == 1.0

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros(5))


class TestLogMeanExp:
    def test_matches_plain_formula(self):
        a = np.log([0.5, 1.0, 2.0])
        assert log_mean_exp(a) == pytest.approx(np.log(3.5 / 3), rel=1e-15)

    def test_finite_where_exp_underflows(self):
        assert log_mean_exp([-1000.0, -1000.0 + np.log(3.0)]) == pytest.approx(
            -1000.0 + np.log(2.0), rel=1e-15)

    def test_weighted_rows(self):
        # per column, log((1 * e^a_0 + 3 * e^a_1) / 4)
        a = np.array([[-900.0, 0.0], [-900.0 + np.log(5.0), np.log(2.0)]])
        out = log_mean_exp(a, weights=[1, 3])
        assert out == pytest.approx([-900.0 + np.log(4.0), np.log(7.0 / 4.0)], rel=1e-15)


class TestWeightedCdf:
    def test_step_locations(self):
        vals = np.array([1.0, 2.0, 3.0])
        w = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 1.0, 2.5, 3.0])
        assert np.allclose(weighted_cdf(vals, w, q), [0.0, 0.2, 0.5, 1.0])


class TestWeightedKs:
    def test_same_sample_distance_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        d, p = weighted_ks_2samp(x, np.ones(500), x, np.ones(500))
        assert d == 0.0
        assert p == 1.0

    def test_detects_shift(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000) + 1.0
        _, p = weighted_ks_2samp(x, np.ones(2000), y, np.ones(2000))
        assert p < 1e-6

    def test_null_calibration(self):
        rng = np.random.default_rng(2)
        pvals = []
        for _ in range(50):
            x = rng.standard_normal(400)
            y = rng.standard_normal(400)
            _, p = weighted_ks_2samp(x, np.ones(400), y, np.ones(400))
            pvals.append(p)
        # under the null, small p-values are rare
        assert np.mean(np.asarray(pvals) < 0.01) < 0.2

    def test_kolmogorov_tail_matches_scipy(self):
        # scipy as the reference; against a 40-digit sum of the series both
        # are within 1e-14 relative on [0.2, 5]
        from scipy.special import kolmogorov

        grid = np.r_[0.0, np.linspace(1e-3, 5.0, 5001), np.geomspace(1e-3, 5.0, 2001)]
        got = np.array([kolmogorov_tail(x) for x in grid])
        np.testing.assert_allclose(got, kolmogorov(grid), rtol=2e-14, atol=0.0)


class TestWeightedKs1samp:
    def test_unit_weights_are_the_plain_statistic(self):
        # scipy as the reference: with unit weights D is kstest's statistic,
        # n the sample size and p the Kolmogorov tail at Stephens' argument
        from scipy import stats

        rng = np.random.default_rng(5)
        for n in (10, 400, 3000):
            x = rng.standard_normal(n) + 0.05
            d, ess, p = weighted_ks_1samp(x, np.ones(n), stats.norm.cdf)
            assert d == stats.kstest(x, stats.norm.cdf).statistic
            assert ess == n
            assert p == kolmogorov_tail((np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d)

    def test_integer_weights_are_the_repeated_sample(self):
        # a weight k on a value is that value k times: the weighted empirical
        # CDF is the repeated sample's, ties included, so D is kstest's on it;
        # n is the Kish size (sum w)^2 / sum w^2, not the repeated count
        from scipy import stats

        rng = np.random.default_rng(6)
        x = np.round(rng.exponential(size=300), 1)
        k = rng.integers(1, 5, size=300)
        d, ess, _ = weighted_ks_1samp(x, k, stats.expon.cdf)
        assert d == pytest.approx(stats.kstest(np.repeat(x, k), stats.expon.cdf).statistic,
                                  rel=1e-14, abs=1e-15)
        assert ess == pytest.approx(k.sum() ** 2 / np.sum(k**2), rel=1e-14)

    def test_detects_shift(self):
        from scipy import stats

        x = np.random.default_rng(7).standard_normal(2000) + 0.2
        _, _, p = weighted_ks_1samp(x, np.ones(2000), stats.norm.cdf)
        assert p < 1e-6


class TestChisquarePoisson:
    def test_true_poisson_passes(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(4.0, size=10_000)
        _, p = chisquare_poisson(counts, 4.0)
        assert p > 0.01

    def test_wrong_mean_fails(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(4.0, size=10_000)
        _, p = chisquare_poisson(counts, 5.0)
        assert p < 1e-6
