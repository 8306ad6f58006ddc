"""Shared test plumbing: verdict lines that survive output capture, the
Poisson goodness-of-fit statistic of the PPP-law tests, and the reference
objects the tests compare the program with: the scalar geodesic distance, a
constant potential, an independent radial oracle, and the walk step and
polar distance table written with numpy's row reductions.

`radial_oracle_final` is an independent 1-D Euler-Maruyama discretization of the
radial SDE dr = dB + ((d-1)/2) coth(r) dt, used only to cross-check the full
sampler's radial statistics.
"""

import numpy as np
from scipy import stats

from hyptrap.diffusion import _draws
from hyptrap.geometry import HPoint, minkowski_dot
from hyptrap.ppp import PotentialField

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


def distance(x: HPoint, y: HPoint) -> float:
    """Geodesic distance arccosh(-<x,y>_J)."""
    return float(np.arccosh(np.maximum(1.0, -minkowski_dot(x.z, y.z))))


class ConstantPotential(PotentialField):
    """V identically equal to c; the exactly solvable reference case."""

    def __init__(self, c):
        self.c = float(c)
        self.v_max = max(self.c, 0.0)

    def evaluate_polar(self, r, u):
        return np.full(len(np.asarray(r)), self.c)


def radial_drift(d, r):
    """Drift ((d-1)/2) coth(r) of the radial part of Brownian motion."""
    return (d - 1) / 2.0 / np.tanh(r)


def radial_oracle_final(d, r0, T, h, N, rng):
    """Terminal radii of N independent radial-SDE paths, reflected at r = h
    near the origin (an entrance boundary; this dodges the coth singularity)."""
    m = int(round(T / h))
    r = np.full(N, max(r0, 0.0))
    sqh = np.sqrt(h)
    for _ in range(m):
        rc = np.maximum(r, h)
        r = np.maximum(rc + radial_drift(d, rc) * h + sqh * rng.standard_normal(N), h)
    return r


def step_polar_reference(r, u, h, rng, drift_fn=None, blocks=1):
    """`diffusion.step_polar` with numpy's row reductions and the draw's
    geometry computed on every row."""
    N, d = u.shape
    draws = _draws(rng, N // blocks)
    if sum(n for _, n in draws) * blocks != N:
        raise ValueError("the streams' rows must add up to one block of paths")
    xi = np.concatenate([g.standard_normal((n, d)) for g, n in draws]) * np.sqrt(h)
    if blocks > 1:
        xi = np.tile(xi, (blocks, 1))
    if drift_fn is not None:
        xi += (h * drift_fn(r))[:, None] * u
    xi_r = np.sum(xi * u, axis=1)
    xi_perp = xi - xi_r[:, None] * u
    n = np.linalg.norm(xi, axis=1)
    sinc = np.where(n > 1e-300, np.sinh(n) / np.maximum(n, 1e-300), 1.0)
    alpha = np.cosh(n) * np.sinh(r) + sinc * xi_r * np.cosh(r)
    vec = alpha[:, None] * u + sinc[:, None] * xi_perp
    norm = np.linalg.norm(vec, axis=1)
    r_new = np.arcsinh(norm)
    u_new = np.where(norm[:, None] > 1e-300, vec / np.maximum(norm, 1e-300)[:, None], u)
    # keep directions exactly unit against slow drift
    u_new = u_new / np.linalg.norm(u_new, axis=1)[:, None]
    return r_new, u_new


def polar_distances_reference(r, u, ry, uy):
    """`ppp.polar_distances` with numpy's sum over the (..., n, k, d) difference."""
    half_chord = 0.5 * np.sum(
        (np.asarray(u)[..., :, None, :] - np.asarray(uy)[..., None, :, :]) ** 2, axis=-1
    )
    r = np.asarray(r)[..., :, None]
    ry = np.asarray(ry)[..., None, :]
    coshd = np.cosh(r - ry) + np.sinh(r) * np.sinh(ry) * half_chord
    return np.arccosh(np.maximum(1.0, coshd))
