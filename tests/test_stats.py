"""Weighted two-sample tests, log-mean-exp, and the Poisson goodness-of-fit
statistic of the PPP-law tests."""

import numpy as np
import pytest

from conftest import chisquare_poisson
from hyptrap.stats import (
    effective_sample_size,
    log_mean_exp,
    weighted_cdf,
    weighted_ks_2samp,
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
