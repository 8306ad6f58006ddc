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
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from hyptrap import geometry
from hyptrap.geometry import HPoint

#: caps V_max below (d-1)^2/8 are inside the regime of the existence theorem
def theorem_regime_bound(d):
    return (d - 1) ** 2 / 8.0


class WindowError(ValueError):
    """Raised when the configuration window does not cover a potential query."""


def sphere_area(d):
    """Surface area of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d, R):
    """Hyperbolic volume of the geodesic ball of radius R in H^d."""
    if d < 2:
        raise ValueError("need d >= 2")
    if R < 0:
        raise ValueError("negative radius")
    if R == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda r: math.sinh(r) ** (d - 1), 0.0, R, limit=200)
    return sphere_area(d) * val


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
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        if len(pts):
            r = geometry.radius_batch(pts)
            if np.any(r > self.window_radius + 1e-9):
                raise WindowError("configuration point outside its own window")

    def __len__(self):
        return self.points.shape[0]

    def add_point(self, x: HPoint) -> "Configuration":
        pts = np.vstack([self.points, x.z[None, :]]) if len(self) else x.z[None, :]
        return Configuration(pts, self.window_radius, self.intensity, self.d)

    def to_json(self):
        return json.dumps(
            {
                "d": self.d,
                "window_radius": self.window_radius,
                "intensity": self.intensity,
                "points": self.points.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            np.asarray(obj["points"], dtype=float).reshape(-1, obj["d"] + 1),
            obj["window_radius"],
            obj["intensity"],
            obj["d"],
        )


@dataclass(frozen=True)
class PotentialSpec:
    """Seed profile, cap and intensity defining a factor-of-PPP potential.

    The default profile is the C^1 bump eta(r) = a (1 - (r/r_0)^2)^2 for
    r < r_0 and zero beyond, so the dependence zone of the potential at x is
    exactly the ball of radius r_0 around x.
    """

    amplitude: float
    support_radius: float
    v_max: float
    intensity: float

    def __post_init__(self):
        if self.amplitude < 0 or self.support_radius <= 0:
            raise ValueError("profile must be nonnegative with positive support")
        if self.v_max < 0 or self.intensity < 0:
            raise ValueError("v_max and intensity must be nonnegative")

    def profile(self, r):
        """Seed eta(r): continuous, non-increasing, zero for r >= r_0."""
        r = np.asarray(r, dtype=float)
        q = 1.0 - (r / self.support_radius) ** 2
        return self.amplitude * np.where(r < self.support_radius, q * q, 0.0)


@functools.lru_cache(maxsize=32)
def _radial_cdf_table(d, R, n_knots=10_000):
    """Inverse-CDF interpolant for the radial density prop. to sinh^{d-1}."""
    r = np.linspace(0.0, R, n_knots)
    w = np.sinh(r) ** (d - 1)
    cdf = integrate.cumulative_trapezoid(w, r, initial=0.0)
    cdf /= cdf[-1]
    # strictly increasing except at r=0 where sinh^{d-1} vanishes
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    return PchipInterpolator(cdf[keep], r[keep])


def sample_configuration(d, R, kappa, rng) -> Configuration:
    """Draw a PPP(kappa * vol) configuration in the ball of radius R about o.

    Count is Poisson with mean kappa * ball_volume(d, R); radii follow the
    sinh^{d-1} density via a tabulated inverse CDF; directions are uniform
    on the sphere in T_o H^d.
    """
    if R <= 0:
        raise ValueError("window radius must be positive")
    if kappa < 0:
        raise ValueError("intensity must be nonnegative")
    mean = kappa * ball_volume(d, R)
    n = int(rng.poisson(mean)) if mean > 0 else 0
    if n == 0:
        return Configuration(np.empty((0, d + 1)), R, kappa, d)
    inv = _radial_cdf_table(d, R)
    radii = inv(rng.uniform(size=n))
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
    half_chord = 0.5 * np.sum(
        (np.asarray(u)[..., :, None, :] - np.asarray(uy)[..., None, :, :]) ** 2, axis=-1
    )
    r = np.asarray(r)[..., :, None]
    ry = np.asarray(ry)[..., None, :]
    coshd = np.cosh(r - ry) + np.sinh(r) * np.sinh(ry) * half_chord
    return np.arccosh(np.maximum(1.0, coshd))


class PotentialField:
    """Common interface for potentials evaluated along batched positions.

    `evaluate_polar` (radii + unit directions in T_o H^d) is what the path
    samplers call; `evaluate` accepts ambient hyperboloid rows.
    """

    v_max: float

    def evaluate_polar(self, r, u):  # (N,), (N, d) -> (N,)
        """V at each query: a function of that query alone, bitwise the same
        whatever batch it is evaluated in."""
        raise NotImplementedError

    def evaluate(self, X):
        from hyptrap.diffusion import polar_from_ambient

        return self.evaluate_polar(*polar_from_ambient(X))

    def __call__(self, x: HPoint) -> float:
        return float(self.evaluate(x.z[None, :])[0])


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

    def _near_sum(self, r, u):
        """Profile sums per query over the prefix of traps its own cut sets
        (all others add 0)."""
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        sums = np.zeros(len(r))
        if not len(r):
            return sums

        def cut_bits(x):
            """Bit length of the cut at each radius: frexp's exponent, 0 for 0."""
            return np.frexp(np.searchsorted(self._ry, x + self.spec.support_radius))[1]

        lo, hi = cut_bits(np.array([r.min(), r.max()]))
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
        self.check_window(float(np.max(r, initial=0.0)))
        return np.minimum(self.spec.v_max, self._near_sum(r, u))

    def uncapped_polar(self, r, u):
        """The raw sum without the V_max cap (monotone in the configuration)."""
        return self._near_sum(r, u)


class ConstantPotential(PotentialField):
    """V identically equal to c; the exactly solvable reference case."""

    def __init__(self, c):
        self.c = float(c)
        self.v_max = max(self.c, 0.0)

    def evaluate_polar(self, r, u):
        return np.full(len(np.asarray(r)), self.c)


class ShiftedPotential(PotentialField):
    """V - c for an existing field; used by the midrange-reduction checks."""

    def __init__(self, base: PotentialField, c):
        self.base = base
        self.c = float(c)
        self.v_max = base.v_max - min(self.c, 0.0)

    def evaluate_polar(self, r, u):
        return self.base.evaluate_polar(r, u) - self.c

