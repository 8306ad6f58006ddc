"""Poisson point processes in hyperbolic windows and factor potentials.

A configuration is a finite realization of the PPP in a geodesic ball about
the origin; the potential at x is min(V_max, sum_y eta(d(x, y))) for a
compactly supported seed profile eta.  The window policy makes the finite
window an exact restriction of the infinite process: a caller declaring a
path-excursion budget R_path must use window_radius >= R_path + r_0.

The same support bound prunes traps exactly.  For a query at radius r and a
trap at radius r_y, d(x, y) >= r_y - r, so the query receives nothing from
traps with r_y >= r + r_0; FactorPotential sorts its traps by radius once
and each query sums a prefix of them whose length depends on that query
alone.  V is therefore a pointwise function: a query's value is bitwise the
same in any batch, which is what lets a walk evaluate many independent
streams and starts in one call.

Volumes and the radial law rest on one integral, I_n(r) = int_0^r sinh^n,
evaluated to rounding with numpy alone (Gauss-Legendre on unit panels).  The
sampler inverts the radial CDF I_{d-1}(r) / I_{d-1}(R) exactly: a linear
table gives each radius a start and one Halley step on the exact integral
finishes it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from hyptrap import geometry

#: caps V_max below (d-1)^2/8 are inside the regime of the existence theorem
def theorem_regime_bound(d):
    return (d - 1) ** 2 / 8.0


class WindowError(ValueError):
    """Raised when the configuration window does not cover a potential query."""


def sphere_area(d):
    """Surface area of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@functools.lru_cache(maxsize=256)
def ball_volume(d, R):
    """Hyperbolic volume of the geodesic ball of radius R in H^d; inf where
    it exceeds the float range (R past about 710 / (d - 1))."""
    if d < 2:
        raise ValueError("need d >= 2")
    if R < 0:
        raise ValueError("negative radius")
    if R == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf past the range
        vol = sphere_area(d) * float(sinh_power_integral(d - 1, R))
    return math.inf if math.isnan(vol) else vol


# 16-point Gauss-Legendre rule on [0, 1]: on a unit panel its relative error
# for sinh^n is about 3e-55 * n^32, below rounding for every n up to 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@functools.lru_cache(maxsize=64)
def _whole_panels(n, k):
    """I_n at the integers 0..k, summed panel by panel (read-only)."""
    out = np.concatenate(
        [[0.0], np.cumsum(_panel_rule(n, _GL_NODES[:, None] + np.arange(k)))])
    out.setflags(write=False)
    return out


def _panel_rule(n, t):
    """The rule's sum over the nodes, the first axis of t.  The node axis
    leads so numpy's inner loops run over the points; einsum, not BLAS, so no
    thread count can change a bit."""
    return np.einsum("i...,i->...", np.sinh(t) ** n, _GL_WEIGHTS)


def sinh_power_integral(n, r):
    """I_n(r) = integral of sinh^n over [0, r], to rounding, for radii r >= 0.

    The whole unit panels below r come from a cached cumulative sum and the
    last partial panel from the same rule scaled to its length, so the terms
    are all nonnegative and nothing cancels, at any r.
    """
    r = np.asarray(r, dtype=float)
    frac, k = np.modf(r)
    whole = _whole_panels(n, int(k.max(initial=0.0)))
    nodes = _GL_NODES.reshape((-1,) + (1,) * r.ndim)
    return whole[k.astype(np.intp)] + frac * _panel_rule(n, k + frac * nodes)


def check_intensity(kappa):
    """The PPP intensity bound, which every `Configuration` obeys."""
    if kappa < 0:
        raise ValueError("intensity must be nonnegative")


@dataclass(frozen=True)
class Configuration:
    """A finite PPP realization in the ball of radius window_radius about o."""

    points: np.ndarray  # (n, d+1) hyperboloid coordinates
    window_radius: float
    intensity: float
    d: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.d + 1)
        object.__setattr__(self, "points", pts)
        if self.window_radius <= 0:
            raise ValueError("window_radius must be positive")
        check_intensity(self.intensity)
        if len(pts):
            r = geometry.radius_batch(pts)
            if np.any(r > self.window_radius + 1e-9):
                raise WindowError("configuration point outside its own window")

    def __len__(self):
        return self.points.shape[0]

    def to_json(self):
        return json.dumps(
            {
                "d": self.d,
                "window_radius": self.window_radius,
                "intensity": self.intensity,
                "points": self.points.tolist(),
            }
        )


@dataclass(frozen=True)
class PotentialSpec:
    """Seed profile and cap defining a factor-of-PPP potential.

    The default profile is the C^1 bump eta(r) = a (1 - (r/r_0)^2)^2 for
    r < r_0 and zero beyond, so the dependence zone of the potential at x is
    exactly the ball of radius r_0 around x.
    """

    amplitude: float
    support_radius: float
    v_max: float

    def __post_init__(self):
        if self.amplitude < 0 or self.support_radius <= 0:
            raise ValueError("profile must be nonnegative with positive support")
        if self.v_max < 0:
            raise ValueError("v_max must be nonnegative")

    def profile(self, r):
        """Seed eta(r): continuous, non-increasing, zero for r >= r_0."""
        r = np.asarray(r, dtype=float)
        q = 1.0 - (r / self.support_radius) ** 2
        return self.amplitude * np.where(r < self.support_radius, q * q, 0.0)


#: knots of the sampler's start table per unit of radius: from starts this
#: close, one Halley step lands every radius within rounding for d = 2..8
_KNOTS_PER_UNIT = 256


@functools.lru_cache(maxsize=32)
def _radial_start_table(d, R):
    """F(r)^(1/d) at knots r in [0, R] (read-only), the knots, and I_{d-1}(R).

    F(r) = I_{d-1}(r) / I_{d-1}(R) vanishes like r^d at 0, so F^(1/d) is
    close to linear in r there as well as away from it.
    """
    knots = np.linspace(0.0, R, math.ceil(_KNOTS_PER_UNIT * R) + 1)
    vol = sinh_power_integral(d - 1, knots)
    s = (vol / vol[-1]) ** (1.0 / d)
    s.setflags(write=False)
    knots.setflags(write=False)
    return s, knots, float(vol[-1])


def radial_quantile(d, R, q):
    """The radii r in [0, R] with F(r) = q, F the radial CDF of the ball.

    A linear interpolant in F^(1/d) starts each radius; one Halley step on
    f(r) = I(r) - q I(R), with f' = sinh^{d-1} r and f''/f' = (d-1) coth r,
    finishes it to rounding.  q = 0 gives r = 0.
    """
    n = d - 1
    s, knots, vol = _radial_start_table(d, R)
    r = np.interp(q ** (1.0 / d), s, knots)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at r = 0
        newton = (sinh_power_integral(n, r) - q * vol) / np.sinh(r) ** n
        r -= newton / (1.0 - 0.5 * n * newton / np.tanh(r))
    r[q == 0] = 0.0
    return r


def sample_configuration(d, R, kappa, rng) -> Configuration:
    """Draw a PPP(kappa * vol) configuration in the ball of radius R about o.

    Count is Poisson with mean kappa * ball_volume(d, R); radii follow the
    sinh^{d-1} density through its exact inverse CDF (`radial_quantile`);
    directions are uniform on the sphere in T_o H^d.
    """
    if R <= 0:
        raise ValueError("window radius must be positive")
    mean = kappa * ball_volume(d, R)
    n = int(rng.poisson(mean)) if mean > 0 else 0
    if n == 0:
        return Configuration(np.empty((0, d + 1)), R, kappa, d)
    radii = radial_quantile(d, R, rng.uniform(size=n))
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = np.empty((n, d + 1))
    pts[:, 0] = np.cosh(radii)
    pts[:, 1:] = np.sinh(radii)[:, None] * dirs
    return Configuration(pts, R, kappa, d)


def polar_distances(r, u, ry, uy):
    """Pairwise geodesic distances between polar states, cancellation-free.

    Uses cosh d = cosh(r - r') + sinh r sinh r' * |u - u'|^2 / 2, whose terms
    are all nonnegative, so the formula stays accurate at radii where the
    ambient Minkowski product has lost every significant digit.  Queries
    r (..., n), u (..., n, d) against points ry (..., k), uy (..., k, d)
    give (..., n, k); leading axes broadcast.
    """
    u = np.asarray(u)[..., :, None, :]
    uy = np.asarray(uy)[..., None, :, :]
    # fold the d columns left to right: bitwise numpy's sum over the last
    # axis below 8 columns, without building the (..., n, k, d) difference
    sq_chord = (u[..., 0] - uy[..., 0]) ** 2
    for j in range(1, u.shape[-1]):
        sq_chord += (u[..., j] - uy[..., j]) ** 2
    half_chord = 0.5 * sq_chord
    r = np.asarray(r)[..., :, None]
    ry = np.asarray(ry)[..., None, :]
    coshd = np.cosh(r - ry) + np.sinh(r) * np.sinh(ry) * half_chord
    return np.arccosh(np.maximum(1.0, coshd))


class PotentialField:
    """Common interface for potentials evaluated along batched positions:
    the path samplers call `evaluate_polar` with radii and unit directions in
    T_o H^d."""

    v_max: float

    def evaluate_polar(self, r, u):  # (N,), (N, d) -> (N,)
        """V at each query: a function of that query alone, bitwise the same
        whatever batch it is evaluated in."""
        raise NotImplementedError


class FactorPotential(PotentialField):
    """min(V_max, sum over configuration points of eta(d(x, y))).

    The trap polar states are stored sorted by radius.  A query at radius r
    has its own cut c, the number of traps with r_y < r + r_0: every other
    trap has d(x, y) >= r_y - r >= r_0, so its profile term is exactly zero.
    The query sums the first k(c) = min(2^bit_length(c), n_traps) traps, a
    prefix length that depends on the query alone, so every bit of its row
    sum does too; the traps between c and k(c) add exact zeros.  Queries of
    one bit length share a distance table, summed along each contiguous row.
    """

    def __init__(self, spec: PotentialSpec, config: Configuration):
        self.spec = spec
        self.config = config
        self.v_max = spec.v_max
        from hyptrap.diffusion import polar_from_ambient

        ry, uy = polar_from_ambient(config.points)
        order = np.argsort(ry, kind="stable")
        self._ry = ry[order]
        self._uy = uy[order]

    def check_window(self, max_radius):
        """Enforce the window policy for queries up to geodesic radius max_radius."""
        need = max_radius + self.spec.support_radius
        if need > self.config.window_radius + 1e-9:
            raise WindowError(
                f"window too small: queries reach radius {max_radius:.3f}, need "
                f"window_radius >= {need:.3f}, have {self.config.window_radius:.3f}"
            )

    def _near_sum(self, r, u, r_max):
        """Profile sums per query over the prefix of traps its own cut sets
        (all others add 0); r_max bounds the radii from above."""
        u = np.asarray(u, dtype=float)
        sums = np.zeros(len(r))
        if not len(r):
            return sums

        def cut_bits(x):
            """Bit length of the cut at each radius: frexp's exponent, 0 for 0."""
            return np.frexp(np.searchsorted(self._ry, x + self.spec.support_radius))[1]

        lo, hi = cut_bits(np.array([r.min(), r_max]))
        if lo == hi:  # cuts grow with r, so every query has this bit length
            groups = [(lo, slice(None))]
        else:
            bits = cut_bits(r)
            groups = [(b, np.flatnonzero(bits == b))
                      for b in np.flatnonzero(np.bincount(bits)).tolist()]
        for b, rows in groups:
            if not b:
                continue  # a cut of 0 keeps no trap: those sums stay 0
            k = min(1 << b, len(self._ry))
            # numpy gathers rows of a 2-D array by integer index with take
            # about ten times faster than by u[rows]
            u_rows = u[rows] if isinstance(rows, slice) else u.take(rows, axis=0)
            # sum along each row: summed over the trap axis of a (k, n) table
            # instead, a lone query's (k, 1) column is contiguous and numpy
            # sums it pairwise, so its bits would differ from a batch's
            sums[rows] = self.spec.profile(polar_distances(
                r[rows], u_rows, self._ry[:k], self._uy[:k])).sum(axis=1)
        return sums

    def evaluate_polar(self, r, u):
        r = np.asarray(r, dtype=float)
        r_max = float(np.max(r, initial=0.0))
        self.check_window(r_max)
        return np.minimum(self.spec.v_max, self._near_sum(r, u, r_max))
