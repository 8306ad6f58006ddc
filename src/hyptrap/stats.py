"""Statistical helpers of the estimators: effective sample size, log-mean-exp
and the weighted two-sample Kolmogorov-Smirnov test."""

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


def weighted_ks_2samp(x1, w1, x2, w2):
    """Two-sample KS with importance weights.

    The statistic is the sup distance between the weighted empirical CDFs;
    the p-value uses the Kolmogorov asymptotic with effective sample sizes.
    """
    # a local import: only full-pipeline and doob-compare need scipy.special
    from scipy import special

    grid = np.concatenate([x1, x2])
    d = float(np.max(np.abs(weighted_cdf(x1, w1, grid) - weighted_cdf(x2, w2, grid))))
    n1 = effective_sample_size(w1)
    n2 = effective_sample_size(w2)
    en = np.sqrt(n1 * n2 / (n1 + n2))
    p = float(special.kolmogorov((en + 0.12 + 0.11 / en) * d))
    return d, p
