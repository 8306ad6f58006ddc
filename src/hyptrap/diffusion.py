"""Brownian motion on H^d by geodesic random walk.

One step from x draws Gaussian components in an orthonormal tangent frame
and follows the geodesic: weak order 1 for the generator (1/2)
Laplace-Beltrami, and exactly manifold-preserving.  The same walk with an
extra radial drift term serves the Doob-transformed dynamics.

State is kept in polar form (geodesic radius r from the origin, unit
direction u in T_o H^d): the ambient hyperboloid coordinates lose the sheet
constraint to cancellation once r exceeds ~18, while the polar update below
is built from same-sign terms and keeps absolute machine accuracy in r at
any radius the walks reach.

`radial_oracle_final` is an independent 1-D Euler-Maruyama discretization of the
radial SDE dr = dB + ((d-1)/2) coth(r) dt, used only to cross-check the full
sampler's radial statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hyptrap import geometry
from hyptrap.geometry import HPoint

MAX_STEP = 0.1


def polar_from_ambient(X):
    """(r, u) polar state from ambient rows (N, d+1); u = e_1 at the origin."""
    X = np.asarray(X, dtype=float)
    r = geometry.radius_batch(X)
    u = np.zeros_like(X[:, 1:])
    u[:, 0] = 1.0
    ok = r > 1e-14
    u[ok] = X[ok, 1:] / np.linalg.norm(X[ok, 1:], axis=1)[:, None]
    return r, u


def ambient_from_polar(r, u):
    """Hyperboloid coordinates (cosh r, sinh r * u); overflows only for r > 700."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    X = np.empty((len(r), u.shape[1] + 1))
    X[:, 0] = np.cosh(r)
    X[:, 1:] = np.sinh(r)[:, None] * u
    return X


def _check_step(h):
    if not 0.0 < h <= MAX_STEP:
        raise ValueError(f"step size must lie in (0, {MAX_STEP}], got {h}")


def on_step_grid(t, h):
    """Whether time t is a whole number (>= 0) of steps of size h (to 1e-9
    relative)."""
    return t >= 0 and abs(round(t / h) * h - t) <= 1e-9 * max(1.0, t)


def _draws(rng, n):
    """A step's Gaussian draws as (generator, rows) pairs: a single generator
    draws all n rows of a block."""
    return [(rng, n)] if isinstance(rng, np.random.Generator) else list(rng)


def step_polar(r, u, h, rng, drift_fn=None, blocks=1):
    """Advance a polar-state batch by one geodesic-random-walk step.

    The Gaussian tangent components xi split into the part along the radial
    direction u and its orthogonal complement; the geodesic endpoint then has
        sinh r' u' = (cosh n sinh r + (sinh n / n) xi_r cosh r) u
                     + (sinh n / n) xi_perp
    with n = |xi|.  Both coefficients are cancellation-free, so r' is read
    off as arcsinh of the norm.

    `rng` is one generator, or a sequence of (generator, rows) pairs: the
    independent streams walked in lockstep, each drawing its own rows of
    the (N / blocks, d) Gaussian block in order.  That block is tiled over
    `blocks` equal blocks of paths, which share the draw.  Every operation
    acts row by row, so each row takes bitwise the step it would take alone
    from its own state with its generator's state.
    """
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


@dataclass(frozen=True)
class PathSample:
    """A discretized trajectory on the hyperboloid with a uniform time grid."""

    times: np.ndarray   # (m+1,)
    points: np.ndarray  # (m+1, d+1)
    start: HPoint

    def radii(self):
        return geometry.radius_batch(self.points)

    def to_csv(self, path):
        r = self.radii()
        d = self.points.shape[1] - 1
        header = "t," + ",".join(f"z_{i}" for i in range(d + 1)) + ",r"
        data = np.column_stack([self.times, self.points, r])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def simulate_path(x0: HPoint, T, h, rng) -> PathSample:
    """Iterate the walk to horizon T, storing the whole trajectory."""
    if T < 0:
        raise ValueError("negative horizon")
    m = int(round(T / h)) if T > 0 else 0
    if T > 0:
        _check_step(h)
        if not on_step_grid(T, h):
            raise ValueError("T must be an integral number of steps")
    pts = np.empty((m + 1, x0.d + 1))
    pts[0] = x0.z
    if m:
        r, u = polar_from_ambient(x0.z[None, :])
        walk = ensemble_walk(r, u, m, h, rng, snapshot_steps=range(1, m + 1))
        for k in range(1, m + 1):
            pts[k] = ambient_from_polar(*walk.snapshots[k][:2])[0]
    times = np.arange(m + 1) * h
    return PathSample(times, pts, x0)


@dataclass
class WalkResult:
    """Streaming output of an ensemble walk in polar state.

    `integrals` holds the trapezoid accumulation of the potential along each
    path and `v` the potential at the final state (None without a
    potential); `snapshots` maps a step index to copies of (r, u, integrals).
    """

    r: np.ndarray
    u: np.ndarray
    integrals: np.ndarray
    v: np.ndarray | None
    snapshots: dict


def ensemble_walk(r0, u0, n_steps, h, rng, potential=None, snapshot_steps=(),
                  drift_fn=None, blocks=1, integrals=None, v0=None) -> WalkResult:
    """Advance N paths in lockstep, accumulating int V dt by trapezoid rule.

    This is the one geodesic-walk loop: every estimator, `simulate_path` and
    the SMC particle systems advance through it.  `rng` is one generator or
    a sequence of (generator, rows) pairs, the independent streams of each
    block (`step_polar`); every step makes one `step_polar` and one
    `evaluate_polar` call for all of them.  The N paths may stack `blocks`
    equal blocks, each from its own starts, that share every Gaussian draw.
    The step and the potential are functions of each row alone, so every
    (stream, block) segment is bitwise the walk that stream would take
    alone from that block's starts.  `integrals` and `v0`, the integrals
    accumulated so far and the potential at (r0, u0), continue an earlier
    walk exactly.
    """
    _check_step(h)
    r = np.array(r0, dtype=float)
    u = np.array(u0, dtype=float)
    draws = _draws(rng, len(r) // blocks)
    integrals = np.zeros(len(r)) if integrals is None else np.array(integrals, dtype=float)
    snapshots = {}
    v_prev = None
    if potential is not None:
        v_prev = potential.evaluate_polar(r, u) if v0 is None else v0
    if 0 in snapshot_steps:
        snapshots[0] = (r.copy(), u.copy(), integrals.copy())
    for k in range(1, n_steps + 1):
        r, u = step_polar(r, u, h, draws, drift_fn=drift_fn, blocks=blocks)
        if potential is not None:
            v_cur = potential.evaluate_polar(r, u)
            integrals += 0.5 * h * (v_prev + v_cur)
            v_prev = v_cur
        if k in snapshot_steps:
            snapshots[k] = (r.copy(), u.copy(), integrals.copy())
    return WalkResult(r, u, integrals, v_prev, snapshots)


# ---------------------------------------------------------------------------
# independent radial oracle (1-D Euler-Maruyama)
# ---------------------------------------------------------------------------


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
