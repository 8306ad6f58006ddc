"""Poisson point processes in hyperbolic windows and factor potentials.

A configuration is a finite realization of the PPP in a geodesic ball about
the origin, held in polar form like every point of the package
(`diffusion`): each trap's radius and unit direction at o.  Its hyperboloid
rows (`Configuration.points`) are computed only where an output needs them.
The potential at x is min(V_max, sum_y eta(d(x, y))) for a compactly
supported seed profile eta.
The window policy makes the finite window an exact restriction of the
infinite process: a caller declaring a path-excursion budget R_path must use
window_radius >= R_path + r_0.

The same support bound prunes traps exactly.  For a query at radius r and a
trap at radius r_y, d(x, y) >= r_y - r, so the query receives nothing from
traps with r_y >= r + r_0; FactorPotential sorts its traps by radius once
and each query sums a prefix of them whose length depends on that query
alone.  V is therefore a pointwise function: a query's value is bitwise the
same in any batch, which is what lets a walk evaluate many independent
streams, starts and steps in one call.  Every batch takes one path: the
queries of each bit length of the cut are gathered in row blocks of at most
`diffusion.DRAW_BUFFER` query-trap pairs, so no table grows with the batch,
and a query beyond the reach of every trap of its prefix (r >= r_y + r_0
plus a rounding margin) is not evaluated: each of its terms is an exact zero.

Volumes rest on one integral, I_n(r) = int_0^r sinh^n, evaluated to rounding
with numpy alone (Gauss-Legendre on unit panels).  The sampler draws the
radii from their sinh^{d-1} density exactly, by rejection from the envelope
e^{(d-1) r}, whose inverse CDF is closed-form (Devroye, Non-Uniform Random
Variate Generation, 1986, II.3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from hyptrap import diffusion

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
# for sinh^n is about 3e-55 * n^32, below rounding for every n up to 15.  The
# doubles are np.polynomial.legendre.leggauss(16) mapped to [0, 1] (nodes
# (x + 1) / 2, weights w / 2) bit for bit, written out so that importing the
# package loads no numpy.polynomial and runs no eigensolve
_GL_NODES = np.array([
    0.005299532504175031, 0.0277124884633837, 0.06718439880608412,
    0.1222977958224985, 0.19106187779867811, 0.2709916111713863,
    0.35919822461037054, 0.4524937450811813, 0.5475062549188188,
    0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939159, 0.9722875115366163,
    0.994700467495825])
_GL_WEIGHTS = np.array([
    0.013576229705877088, 0.031126761969323728, 0.0475792558412463,
    0.062314485627767036, 0.07479799440828835, 0.08457825969750132,
    0.09130170752246182, 0.09472530522753432, 0.09472530522753432,
    0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
    0.062314485627767036, 0.0475792558412463, 0.031126761969323728,
    0.013576229705877088])


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
    if not kappa >= 0:
        raise ValueError("intensity must be nonnegative")


@dataclass(frozen=True)
class Configuration:
    """A finite PPP realization in the ball of radius window_radius about o:
    the traps' radii (n,) and unit directions (n, d) in T_o H^d."""

    radii: np.ndarray
    directions: np.ndarray
    window_radius: float
    intensity: float

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float).reshape(-1)
        u = np.asarray(self.directions, dtype=float)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "directions", u)
        # polar_distances reads |u - u_y|^2 / 2 as 1 - cos(angle): unit
        # directions only, and no NaN: the max propagates a NaN direction, and
        # a NaN radius fails r >= 0
        if (u.ndim != 2 or u.shape[0] != len(r) or u.shape[1] < 2 or not np.all(r >= 0)
                or not np.abs(np.linalg.norm(u, axis=1) - 1.0).max(initial=0.0) <= 1e-9):
            raise ValueError("need a radius >= 0 and a unit direction of d >= 2 "
                             "components per trap")
        if not self.window_radius > 0:
            raise ValueError("window_radius must be positive")
        check_intensity(self.intensity)
        if np.any(r > self.window_radius + 1e-9):
            raise WindowError("configuration point outside its own window")

    @property
    def d(self):
        return self.directions.shape[1]

    @property
    def points(self):
        """The traps' hyperboloid coordinates (n, d+1)."""
        return diffusion.ambient_from_polar(self.radii, self.directions)

    def __len__(self):
        return len(self.radii)


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
        # an infinite amplitude times the zero past r_0 would give NaN
        if not (0 <= self.amplitude < np.inf and self.support_radius > 0):
            raise ValueError("profile must be finite and nonnegative with positive support")
        if not self.v_max >= 0:
            raise ValueError("v_max must be nonnegative")

    def profile(self, r):
        """Seed eta(r): continuous, non-increasing, zero for r >= r_0."""
        r = np.asarray(r, dtype=float)
        # a (1 - (r / r_0)^2)^2 below r_0, in place in one new array
        q = np.asarray(r / self.support_radius)
        q *= q
        np.subtract(1.0, q, out=q)
        q *= q
        q[~(r < self.support_radius)] = 0.0
        q *= self.amplitude
        return q


def sample_configuration(d, R, kappa, rng) -> Configuration:
    """Draw a PPP(kappa * vol) configuration in the ball of radius R about o.

    Count is Poisson with mean kappa * ball_volume(d, R).  The radii follow
    the sinh^{d-1} density exactly, by rejection in rounds: each round draws
    n proposals from the density proportional to e^{(d-1) r} on [0, R] (by
    its inverse CDF) and keeps each with probability (1 - e^{-2r})^{d-1},
    which is sinh^{d-1} r over that envelope up to a constant; the first n
    kept are the radii.  Directions are uniform on the sphere in T_o H^d.
    """
    mean = kappa * ball_volume(d, R)
    n = int(rng.poisson(mean)) if mean > 0 else 0
    if n == 0:
        return Configuration(np.empty(0), np.empty((0, d)), R, kappa)
    m = d - 1
    # inf past (d - 1) R = 709.78; an infinite proposal fails the window check
    top = np.expm1(m * R)
    radii = np.empty(0)
    while len(radii) < n:
        r = np.log1p(rng.uniform(size=n) * top) / m
        radii = np.concatenate([radii, r[rng.uniform(size=n) < (-np.expm1(-2.0 * r)) ** m]])
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return Configuration(radii[:n], dirs, R, kappa)


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
    # axis below 8 columns, without building the (..., n, k, d) difference;
    # the rest of the formula runs in place in one scratch table, each step
    # the same rounding of the same operands as the formula written out
    coshd = np.square(u[..., 0] - uy[..., 0])
    scratch = np.empty_like(coshd)
    for j in range(1, u.shape[-1]):
        coshd += np.square(np.subtract(u[..., j], uy[..., j], out=scratch), out=scratch)
    coshd *= 0.5
    r = np.asarray(r)[..., :, None]
    ry = np.asarray(ry)[..., None, :]
    coshd *= np.multiply(np.sinh(r), np.sinh(ry), out=scratch)
    coshd += np.cosh(np.subtract(r, ry, out=scratch), out=scratch)
    np.maximum(coshd, 1.0, out=coshd)
    return np.arccosh(coshd, out=coshd)


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

    The traps' radii and directions are stored sorted by radius.  A query at radius r
    has its own cut c, the number of traps with r_y < r + r_0: every other
    trap has d(x, y) >= r_y - r >= r_0, so its profile term is exactly zero.
    The query sums the first k(c) = min(2^bit_length(c), n_traps) traps, a
    prefix length that depends on the query alone, so every bit of its row
    sum does too; the traps between c and k(c) add exact zeros.  Queries of
    one bit length share a distance table, built in row blocks of at most
    DRAW_BUFFER pairs and summed along each contiguous row.  A query at
    r >= r_y(k) + `_reach`, past the farthest trap of its prefix, has only
    zero terms and keeps its sum of 0 without a table.
    """

    def __init__(self, spec: PotentialSpec, config: Configuration):
        self.spec = spec
        self.config = config
        self.v_max = spec.v_max
        order = np.argsort(config.radii, kind="stable")
        self._ry = config.radii[order]
        self._uy = config.directions[order]
        self._edges = self._ry[(1 << np.arange(len(self._ry).bit_length())) - 1]
        # The skip's margin m.  A query at r and a trap at r_y <= r - _reach
        # are delta >= r - r_y >= _reach apart.  The computed distance is
        # arccosh(cosh(fl(r - r_y)) + t) with t >= 0, so it falls short of
        # delta only by the rounding of fl(r - r_y) (at most u delta,
        # u = 2^-53) and of cosh and arccosh (a few ulps each; arccosh turns
        # a relative error e of its argument into e coth(delta) <=
        # e (1 + 1/r_0) of distance): by less than 10 u (delta + 1 + 1/r_0)
        # in all.  At delta = r_0 + m that is below m once
        # m >= 2e-15 (r_0 + 1/r_0); the m taken here is 5e5 times that, which
        # also covers the rounding of r_y + _reach at any radius below 1e5.
        # So the computed distance is >= r_0, every profile term is +0, and
        # the query's sum stays at its start, +0.
        r0 = spec.support_radius
        self._reach = r0 + 1e-9 * (r0 + 1.0 / r0)

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
        # the directions as (d, n) rows, which gather by index several times
        # faster than the rows of an (n, d) array that is column-major (the
        # walk's), a view of them for the walk and one copy for others
        cols = np.ascontiguousarray(np.asarray(u, dtype=float).T)
        sums = np.zeros(len(r))
        # bit length of the cut at each query: the cut is >= 2^j exactly when
        # trap 2^j - 1 (from 0) lies below r + r_0.  Counted by comparison
        # with each of these few edges, several times faster than a binary
        # search (searchsorted) per query
        bits = (self._edges[:, None] < r + self.spec.support_radius).sum(axis=0)
        for b in range(1, bits.max(initial=0) + 1):  # a cut of 0 keeps no trap: its sum stays 0
            k = min(1 << b, len(self._ry))
            # the queries of this bit length within reach of their prefix's
            # farthest trap; the others add only zeros
            rows = np.flatnonzero((bits == b) & (r < self._ry[k - 1] + self._reach))
            block = max(1, diffusion.DRAW_BUFFER // k)
            for a in range(0, len(rows), block):
                part = rows[a:a + block]
                # sum along each row: summed over the trap axis of a (k, n)
                # table instead, a lone query's (k, 1) column is contiguous and
                # numpy sums it pairwise, so its bits would differ from a batch's
                sums[part] = self.spec.profile(polar_distances(
                    r[part], cols.take(part, axis=1).T, self._ry[:k], self._uy[:k])).sum(axis=1)
        return sums

    def evaluate_polar(self, r, u):
        r = np.asarray(r, dtype=float)
        self.check_window(float(np.max(r, initial=0.0)))
        sums = self._near_sum(r, u)
        return np.minimum(sums, self.spec.v_max, out=sums)
