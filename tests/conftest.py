"""Shared test plumbing: verdict lines that survive output capture, and the
Poisson goodness-of-fit statistic of the PPP-law tests."""

import numpy as np
from scipy import stats

VERDICTS = []


def record_verdict(line):
    """Queue a one-line verdict for the end-of-run summary."""
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.line(line)


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
