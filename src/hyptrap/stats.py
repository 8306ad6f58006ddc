"""Statistical helpers of the estimators: effective sample size, log-mean-exp
and the weighted one-sample Kolmogorov-Smirnov test."""

from __future__ import annotations

import numpy as np


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


def kolmogorov_tail(x):
    """P(K > x) for the Kolmogorov distribution, 2 sum_k (-1)^{k-1} e^{-2k^2x^2}
    for x >= 1 and by the theta-function form 1 - (sqrt(2pi)/x) sum_k
    q^{(2k-1)^2}, q = e^{-pi^2/(8x^2)}, below, where the first converges
    slowly.  Five terms reach rounding in either form."""
    if x < 0.1:
        return 1.0  # 1 - O(e^{-123}), and d = 0 gives x = 0
    k = np.arange(1, 6)
    if x < 1.0:
        q = np.exp(-np.pi**2 / (8.0 * x * x))
        return float(1.0 - np.sqrt(2.0 * np.pi) / x * np.sum(q ** ((2 * k - 1) ** 2)))
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * x * x)))


def weighted_ks_1samp(values, weights, cdf):
    """One-sample KS with importance weights against the continuous CDF `cdf`
    (a callable on arrays): (D, n, p).

    D is the sup distance between the weighted empirical CDF and `cdf`, taken
    on both sides of each jump, n the Kish effective sample size, and p the
    Kolmogorov tail at (sqrt(n) + 0.12 + 0.11 / sqrt(n)) D.  With unit weights,
    D is the plain one-sample statistic."""
    order = np.argsort(values)
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w) / np.sum(w)
    F = cdf(np.asarray(values, dtype=float)[order])
    d = float(max(np.max(cum - F), np.max(F - np.concatenate([[0.0], cum[:-1]]))))
    n = effective_sample_size(w)
    en = np.sqrt(n)
    return d, n, kolmogorov_tail((en + 0.12 + 0.11 / en) * d)
