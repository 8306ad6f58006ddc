"""Poisson point processes in hyperbolic windows and factor potentials.

A configuration is a finite realization of the PPP in a geodesic ball about
the origin; the potential at x is min(V_max, sum_y eta(d(x, y))) for a
compactly supported seed profile eta.  The window policy makes the finite
window an exact restriction of the infinite process: a caller declaring a
path-excursion budget R_path must use window_radius >= R_path + r_0.

The same support bound prunes traps exactly.  For a query at radius r and a
trap at radius r_y, d(x, y) >= r_y - r, so a batch whose largest radius is
r_max receives nothing from traps with r_y >= r_max + r_0; FactorPotential
sorts its traps by radius once and sums only the prefix below that cut (per
block, when it holds rotated copies of the configuration for a fused walk).
"""

from __future__ import annotations

import bisect
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

    def rotate(self, k) -> "Configuration":
        """Apply a K-element (matrix fixing o) to every point."""
        A = k.A if hasattr(k, "A") else np.asarray(k)
        return Configuration(self.points @ A.T, self.window_radius, self.intensity, self.d)

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
        raise NotImplementedError

    def evaluate(self, X):
        from hyptrap.diffusion import polar_from_ambient

        return self.evaluate_polar(*polar_from_ambient(X))

    def __call__(self, x: HPoint) -> float:
        return float(self.evaluate(x.z[None, :])[0])


class FactorPotential(PotentialField):
    """min(V_max, sum over configuration points of eta(d(x, y))).

    The trap polar states are stored sorted by radius.  A batch whose largest
    radius is r_max only sums the traps with r_y < r_max + r_0: every other
    trap has d(x, y) >= r_y - r >= r_0 for each query, so its profile term
    is exactly zero and the cut changes no value.

    With `rotations` (K-elements, one per block) the potential holds B rotated
    copies of the configuration, for a batch of B equal blocks of queries
    (`diffusion.ensemble_walk` with `blocks`=B): block b is evaluated against
    config.rotate(rotations[b]).  A K-rotation fixes o, so z_0, the trap radii
    and their sort order are bitwise the same in every copy and only a
    (B, k, d) table of trap directions differs.  The distances come from one
    call over the cut at the largest radius of any block; each block then
    sums the prefix below its own cut, so it gets bitwise the value that a
    one-block potential on its rotated configuration gives.
    """

    def __init__(self, spec: PotentialSpec, config: Configuration, rotations=None):
        self.spec = spec
        self.config = config
        self.v_max = spec.v_max
        from hyptrap.diffusion import polar_from_ambient

        copies = [config] if rotations is None else [config.rotate(k) for k in rotations]
        polar = [polar_from_ambient(c.points) for c in copies]
        ry = polar[0][0]
        if any(not np.array_equal(r, ry) for r, _ in polar):
            raise ValueError("rotations must fix the origin")
        order = np.argsort(ry, kind="stable")
        self._ry = ry[order]
        self._uy = np.stack([uy[order] for _, uy in polar])
        self._ry_list = self._ry.tolist()

    def check_window(self, max_radius):
        """Enforce the window policy for queries up to geodesic radius max_radius."""
        need = max_radius + self.spec.support_radius
        if need > self.config.window_radius + 1e-9:
            raise WindowError(
                f"window too small: queries reach radius {max_radius:.3f}, need "
                f"window_radius >= {need:.3f}, have {self.config.window_radius:.3f}"
            )

    def _near_sum(self, r, u):
        """Profile sums per query over the traps with r_y < max(r_b) + r_0 in
        each block b (all others add 0), and the largest radius of the batch."""
        blocks = len(self._uy)
        r = np.asarray(r, dtype=float).reshape(blocks, -1)
        u = np.asarray(u, dtype=float)
        u = u.reshape(blocks, r.shape[1], u.shape[-1])
        tops = r.max(axis=1).tolist() if r.size else [0.0] * blocks
        cuts = [bisect.bisect_left(self._ry_list, t + self.spec.support_radius) for t in tops]
        k = max(cuts)
        prof = self.spec.profile(polar_distances(r, u, self._ry[:k], self._uy[:, :k]))
        sums = np.empty(r.shape)
        for b, cut in enumerate(cuts):
            prof[b, :, :cut].sum(axis=1, out=sums[b])
        return sums.reshape(-1), max(tops)

    def evaluate_polar(self, r, u):
        sums, max_radius = self._near_sum(r, u)
        self.check_window(max_radius)
        return np.minimum(self.spec.v_max, sums)

    def uncapped_polar(self, r, u):
        """The raw sum without the V_max cap (monotone in the configuration)."""
        return self._near_sum(r, u)[0]


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

