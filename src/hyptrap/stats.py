"""Small statistical helpers shared by the estimators and the test suite."""

from __future__ import annotations

import numpy as np
from scipy import special, stats


def effective_sample_size(weights):
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    if s <= 0:
        raise ValueError("weights must have positive mass")
    return float(s * s / np.sum(w * w))


def log_mean_exp(a, weights=None):
    """log of the mean of exp(a) over its first axis, weighted by `weights`
    (one per row) if given.  Shifted by the max, it stays finite where every
    exp(a) underflows, as the log-weights -int V do once T V passes 745."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=0)
    e = np.exp(a - m)
    if weights is None:
        return m + np.log(np.mean(e, axis=0))
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    return m + np.log(np.sum(e * w.reshape(-1, *(1,) * (e.ndim - 1)), axis=0))


def weighted_cdf(values, weights, query):
    order = np.argsort(values)
    v = np.asarray(values)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w) / np.sum(w)
    idx = np.searchsorted(v, query, side="right") - 1
    out = np.where(idx >= 0, cum[np.clip(idx, 0, len(cum) - 1)], 0.0)
    return out


def weighted_ks_2samp(x1, w1, x2, w2):
    """Two-sample KS with importance weights.

    The statistic is the sup distance between the weighted empirical CDFs;
    the p-value uses the Kolmogorov asymptotic with effective sample sizes.
    """
    grid = np.concatenate([x1, x2])
    d = float(np.max(np.abs(weighted_cdf(x1, w1, grid) - weighted_cdf(x2, w2, grid))))
    n1 = effective_sample_size(w1)
    n2 = effective_sample_size(w2)
    en = np.sqrt(n1 * n2 / (n1 + n2))
    p = float(special.kolmogorov((en + 0.12 + 0.11 / en) * d))
    return d, p


def ks_2samp(x1, x2):
    res = stats.ks_2samp(x1, x2)
    return float(res.statistic), float(res.pvalue)


def chisquare_poisson(counts, mean, min_expected=5.0):
    """Goodness-of-fit of integer counts against Poisson(mean).

    Bins the Poisson support and pools tails so every expected count is at
    least `min_expected`; returns (statistic, p-value).
    """
    counts = np.asarray(counts, dtype=int)
    n = len(counts)
    kmax = int(max(counts.max(), mean) + 10 * np.sqrt(mean) + 10)
    ks = np.arange(kmax + 1)
    pmf = stats.poisson.pmf(ks, mean)
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    # pool adjacent bins until each expected count clears the floor
    exp_bins, obs_bins = [], []
    acc_e = acc_o = 0.0
    for k in ks:
        acc_e += n * pmf[k]
        acc_o += observed[k]
        if acc_e >= min_expected:
            exp_bins.append(acc_e)
            obs_bins.append(acc_o)
            acc_e = acc_o = 0.0
    if exp_bins:
        exp_bins[-1] += acc_e
        obs_bins[-1] += acc_o
    exp_arr = np.asarray(exp_bins)
    obs_arr = np.asarray(obs_bins)
    # account for unbinned upper tail mass
    exp_arr = exp_arr * n / exp_arr.sum()
    stat, p = stats.chisquare(obs_arr, exp_arr)
    return float(stat), float(p)
