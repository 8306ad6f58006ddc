"""Shared test plumbing: verdict lines that survive output capture, the
Poisson goodness-of-fit statistic of the PPP-law tests, and the reference
objects the tests compare the program with: the Minkowski form of the
hyperboloid model, the scalar geodesic distance and its pairwise table over
ambient coordinates, the polar start o, a constant potential, an
independent radial oracle, the walk step and polar distance table
written with numpy's row reductions, and a second simulation of the
Q-process: the Doob walk with its drift and the weighted two-sample KS test
that compares it with the tilted walk.

`radial_oracle_final` is an independent 1-D Euler-Maruyama discretization of the
radial SDE dr = dB + ((d-1)/2) coth(r) dt, used only to cross-check the full
sampler's radial statistics.
"""

import numpy as np
from scipy import stats

from hyptrap.diffusion import _draws, on_axis
from hyptrap.feynman_kac import _chunk_rngs, _chunk_sizes
from hyptrap.ppp import PotentialField
from hyptrap.stats import effective_sample_size, kolmogorov_tail, weighted_cdf

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


def minkowski_dot(x, y):
    """The bilinear form -x_0 y_0 + sum_{i>=1} x_i y_i of R^{1+d}, over the
    last axis: H^d is the upper sheet <z, z> = -1, z_0 >= 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def distance(x, y) -> float:
    """Geodesic distance arccosh(-<x,y>_J) between two points of the sheet."""
    return float(np.arccosh(np.maximum(1.0, -minkowski_dot(x, y))))


def distance_batch(X, Y):
    """Pairwise distances between rows of X (N, d+1) and rows of Y (m, d+1)."""
    inner = X[:, 0][:, None] * Y[:, 0][None, :] - X[:, 1:] @ Y[:, 1:].T
    return np.arccosh(np.maximum(1.0, inner))


def origin(d):
    """The start o = (0, e_1)."""
    return on_axis(d, [0.0])


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


def log_derivative_interpolant(grid, phi):
    """(log phi)'(r) from the difference quotients of log phi at the midpoints
    between grid points, linear in between: the operator's face gradient.

    The returned callable raises on queries beyond the grid (no silent
    extrapolation); queries outside the midpoints clamp to the nearest.
    """
    if np.any(np.asarray(phi) <= 0):
        raise ValueError("phi must be strictly positive on its grid")
    mid = 0.5 * (grid[:-1] + grid[1:])
    slope = np.diff(np.log(np.asarray(phi, dtype=float))) / np.diff(grid)
    r_hi = float(grid[-1])

    def dlogphi(r):
        r = np.asarray(r, dtype=float)
        if np.any(r > r_hi + 1e-12):
            raise ValueError(
                f"radius {float(np.max(r)):.4f} outside the eigenfunction grid "
                f"(max {r_hi:.4f})"
            )
        return np.interp(r, mid, slope)

    return dlogphi


def doob_final_radii(x0, grid, phi, T, h, N, seed):
    """Terminal radii of N paths from the one start x0 = (r, u) of the
    Doob-transformed diffusion (1/2)Lap + (log phi)' d_r, with `phi` a
    positive radial eigenfunction tabulated on `grid`: the geodesic walk with
    the drift added Euler-style to each draw, on the program's 16 streams of
    `seed` (no potential weighting)."""
    drift = log_derivative_interpolant(grid, phi)
    sizes = _chunk_sizes(N)
    streams = list(zip(_chunk_rngs(seed, len(sizes)), sizes))
    r, u = np.repeat(x0[0], N), np.repeat(x0[1], N, axis=0)
    for _ in range(int(round(T / h))):
        r, u = step_polar_reference(r, u, h, streams, drift_fn=drift)
    return r


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
    return d, kolmogorov_tail((en + 0.12 + 0.11 / en) * d)
