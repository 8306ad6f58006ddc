"""Brownian motion on H^d by geodesic random walk.

One step from x draws Gaussian components in an orthonormal tangent frame
and follows the geodesic: weak order 1 for the generator (1/2)
Laplace-Beltrami, and exactly manifold-preserving.  The same walk with an
extra radial drift term serves the Doob-transformed dynamics.

Every point of the package, start, trap or path state, is kept in polar
form (geodesic radius r from the origin o, unit direction u in T_o H^d): the
ambient hyperboloid coordinates (cosh r, sinh r u) lose the sheet constraint
to cancellation once r exceeds ~18, while the polar update below is built
from same-sign terms and keeps absolute machine accuracy in r at any radius
the walks reach.  The ambient form is only an output format
(`configuration.json`, the path CSVs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_STEP = 0.1


def on_axis(d, radii):
    """Polar states (|p|, +-e_1) at signed radii p on the e_1 axis: -e_1 for
    p < 0, e_1 otherwise, so o is on_axis(d, [0])."""
    p = np.asarray(radii, dtype=float).reshape(-1)
    u = np.zeros((len(p), d))
    u[:, 0] = np.where(p < 0, -1.0, 1.0)
    return np.abs(p), u


def polar_from_ambient(X):
    """(r, u) polar state from ambient rows (N, d+1); u = e_1 at the origin."""
    X = np.asarray(X, dtype=float)
    r = np.arccosh(np.maximum(1.0, X[:, 0]))
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


def _row_dot(a, b):
    """Sums of a * b over the last axis (d columns, broadcasting the rest),
    folding the columns left to right.  Below 8 columns this is bitwise
    numpy's sum along each row, at a fraction of its per-row cost."""
    s = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        s += a[..., j] * b[..., j]
    return s


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
    the (N / blocks, d) Gaussian block in order.  That block broadcasts over
    `blocks` equal blocks of paths, which share the draw; without a drift
    the draw's geometry (n, sinh n / n and cosh n) is computed once on the
    block and broadcast with it.  Row sums and norms fold the d columns left
    to right, which is bitwise numpy's reduction along a row below 8 columns.
    Every operation acts row by row, so each row takes bitwise the step it
    would take alone from its own state with its generator's state.
    """
    N, d = u.shape
    draws = _draws(rng, N // blocks)
    if sum(n for _, n in draws) * blocks != N:
        raise ValueError("the streams' rows must add up to one block of paths")
    xi = np.concatenate([g.standard_normal((n, d)) for g, n in draws]) * np.sqrt(h)
    if drift_fn is not None:
        # the drift gives every row its own xi: nothing is shared from here
        xi = np.tile(xi, (blocks, 1)) + (h * drift_fn(r))[:, None] * u
        blocks = 1
    n = np.sqrt(_row_dot(xi, xi))
    sinc = np.where(n > 1e-300, np.sinh(n) / np.maximum(n, 1e-300), 1.0)
    cosh_n = np.cosh(n)
    # one block of paths per leading index: the draw's rows broadcast over them
    r = r.reshape(blocks, -1)
    u = u.reshape(blocks, -1, d)
    xi_r = _row_dot(xi, u)
    xi_perp = xi - xi_r[..., None] * u
    alpha = cosh_n * np.sinh(r) + sinc * xi_r * np.cosh(r)
    vec = alpha[..., None] * u + sinc[..., None] * xi_perp
    norm = np.sqrt(_row_dot(vec, vec))
    r_new = np.arcsinh(norm)
    u_new = np.where(norm[..., None] > 1e-300, vec / np.maximum(norm, 1e-300)[..., None], u)
    # keep directions exactly unit against slow drift
    u_new = u_new / np.sqrt(_row_dot(u_new, u_new))[..., None]
    return r_new.reshape(N), u_new.reshape(N, d)


@dataclass
class WalkResult:
    """Streaming output of an ensemble walk in polar state.

    `integrals` holds the trapezoid accumulation of the potential along each
    path (zeros without a potential); `snapshots` maps a step index to
    copies of (r, u, integrals).
    """

    r: np.ndarray
    u: np.ndarray
    integrals: np.ndarray
    snapshots: dict


def ensemble_walk(r0, u0, n_steps, h, rng, potential=None, snapshot_steps=(),
                  drift_fn=None, blocks=1) -> WalkResult:
    """Advance N paths in lockstep, accumulating int V dt by trapezoid rule.

    This is the one geodesic-walk loop: every estimator and `simulate-bm`'s
    path dump advance through it.  `rng` is one generator or a sequence of
    (generator, rows) pairs, the independent streams of each block
    (`step_polar`); every step makes one `step_polar` and one
    `evaluate_polar` call for all of them.  The N paths may stack `blocks`
    equal blocks, each from its own starts, that share every Gaussian draw.
    The step and the potential are functions of each row alone, so every
    (stream, block) segment is bitwise the walk that stream would take
    alone from that block's starts.
    """
    _check_step(h)
    r = np.array(r0, dtype=float)
    u = np.array(u0, dtype=float)
    draws = _draws(rng, len(r) // blocks)
    integrals = np.zeros(len(r))
    snapshots = {}
    if potential is not None:
        v_prev = potential.evaluate_polar(r, u)
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
    return WalkResult(r, u, integrals, snapshots)

