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

Inside a walk the directions are column-major, (d, N) with one contiguous
row per component, so each operation of a step runs over the N paths rather
than over d entries at a time, the Gaussian draws come several steps per
generator call, and the potential is evaluated on several steps' states per
call.  None of this changes a bit: the arithmetic is the same per path, a
generator emits the same numbers in the same order, and the potential is a
function of each state alone.  Everything outside a walk sees (N, d)
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_STEP = 0.1
#: doubles that a walk holds at once of Gaussian draws and of held directions
#: (`ensemble_walk`), and query-trap pairs of one potential table
#: (`ppp.FactorPotential`)
DRAW_BUFFER = 1 << 14


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
    """A walk's Gaussian draws as (generator, rows) pairs: a single generator
    draws all n rows of a block."""
    return [(rng, n)] if isinstance(rng, np.random.Generator) else list(rng)


def _column_draws(draws, m, d, h):
    """The next m steps' scaled draws, (m, d, n) in C order: step k's draw is
    the contiguous (d, n) block [k].  Each stream makes one (m, rows, d)
    call, which a generator fills in C order, so it emits the numbers that m
    calls of (rows, d) would, in the same order."""
    xi = np.concatenate([g.standard_normal((m, rows, d)) for g, rows in draws], axis=1)
    return np.multiply(xi.transpose(0, 2, 1), np.sqrt(h), order="C")


def _column_dot(a, b):
    """Sums of a * b over the first axis (the d components, broadcasting the
    rest), folding the components left to right.  Below 8 components this is
    bitwise numpy's sum along each row of the (N, d) layout."""
    s = a[0] * b[0]
    for j in range(1, len(a)):
        s += a[j] * b[j]
    return s


def step_polar(r, U, h, xi, drift_fn=None):
    """Advance a polar-state batch by one geodesic-random-walk step.

    The Gaussian tangent components xi split into the part along the radial
    direction u and its orthogonal complement; the geodesic endpoint then has
        sinh r' u' = (cosh n sinh r + (sinh n / n) xi_r cosh r) u
                     + (sinh n / n) xi_perp
    with n = |xi|.  Both coefficients are cancellation-free, so r' is read
    off as arcsinh of the norm.

    The state is column-major: r (N,) and directions U (d, N), one
    contiguous row per component, so every operation runs over the paths.
    `xi` is the step's Gaussian draw scaled by sqrt(h), (d, n) for one block
    of n paths; it broadcasts over the N / n equal blocks of paths, which
    share it, and without a drift the draw's geometry (n, sinh n / n and
    cosh n) is computed once on the block and broadcast with it.  Sums over
    the components fold them left to right, which is bitwise numpy's row
    reduction below 8 components, and the 1e-300 guards divide by the
    guarded value and patch the guarded paths, which is bitwise np.where's
    result.  Every operation acts path by path, so each path takes bitwise
    the step it would take alone from its own state and draw.  Returns
    r' (N,) and U' (d, N).
    """
    d, N = U.shape
    blocks = N // xi.shape[1]
    if drift_fn is not None:
        # the drift gives every path its own xi: nothing is shared from here
        xi = np.tile(xi, blocks) + (h * drift_fn(r)) * U
        blocks = 1
    n = np.sqrt(_column_dot(xi, xi))
    sinc = np.sinh(n) / np.maximum(n, 1e-300)
    sinc[~(n > 1e-300)] = 1.0
    cosh_n = np.cosh(n)
    # one block of paths per middle index: the draw's columns broadcast over them
    r = r.reshape(blocks, -1)
    U = U.reshape(d, blocks, -1)
    xi_r = _column_dot(xi, U)
    xi_perp = xi[:, None, :] - xi_r * U
    alpha = cosh_n * np.sinh(r) + sinc * xi_r * np.cosh(r)
    vec = alpha * U + sinc * xi_perp
    norm = np.sqrt(_column_dot(vec, vec))
    r_new = np.arcsinh(norm)
    U_new = vec / np.maximum(norm, 1e-300)
    np.copyto(U_new, U, where=~(norm > 1e-300))
    # keep directions exactly unit against slow drift
    U_new /= np.sqrt(_column_dot(U_new, U_new))
    return r_new.reshape(N), U_new.reshape(d, N)


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
    (generator, rows) pairs, the independent streams of each block, which
    draw their own rows of the block's Gaussian draw in order; every step
    makes one `step_polar` call for all of them.  The N paths may stack
    `blocks` equal blocks of n paths, each from its own starts, that share
    every Gaussian draw.

    The walk holds the directions column-major, (d, N), for `step_polar`.
    Each stream draws several steps per generator call, as many as keep the
    walk's draws within DRAW_BUFFER doubles (one step at a time for a wide
    ensemble), and never past the last step, so a generator is left where
    per-step draws would leave it.  The states of up to
    depth = DRAW_BUFFER // (N d) steps are held in buffers allocated once,
    (depth, N) radii and (d, depth, N) directions, and `evaluate_polar` is
    called once per filled buffer (and once for a last, partial one) on all
    of them, as (depth N, d) directions; the trapezoid sums and snapshots
    then run step by step over its rows.  The step and the potential are
    functions of each path alone, so every (stream, block) segment is
    bitwise the walk that stream would take alone from that block's starts,
    whatever the depth.  A WindowError surfaces at the buffer holding the
    step that leaves the window.  `u` and the snapshots are (N, d) C-order
    copies.
    """
    _check_step(h)
    r = np.array(r0, dtype=float)
    U = np.array(np.asarray(u0, dtype=float).T, order="C")
    d, N = U.shape
    n = N // blocks
    draws = _draws(rng, n)
    if sum(rows for _, rows in draws) * blocks != N:
        raise ValueError("the streams' rows must add up to one block of paths")
    chunk = max(1, DRAW_BUFFER // (n * d))
    depth = max(1, DRAW_BUFFER // (N * d))
    r_held, U_held = np.empty((depth, N)), np.empty((d, depth, N))
    integrals = np.zeros(N)
    snapshots = {}
    if potential is not None:
        v_prev = potential.evaluate_polar(r, U.T)
    if 0 in snapshot_steps:
        snapshots[0] = (r.copy(), U.T.copy(), integrals.copy())
    for k in range(1, n_steps + 1):
        j = (k - 1) % chunk
        if j == 0:
            xi = _column_draws(draws, min(chunk, n_steps + 1 - k), d, h)
        r, U = step_polar(r, U, h, xi[j], drift_fn=drift_fn)
        i = (k - 1) % depth
        r_held[i], U_held[:, i] = r, U
        if i + 1 < depth and k < n_steps:
            continue
        # one potential call for the held steps k - i .. k, then their
        # trapezoid sums and snapshots in order
        if potential is not None:
            v = potential.evaluate_polar(r_held[:i + 1].reshape(-1),
                                         U_held[:, :i + 1].reshape(d, -1).T).reshape(i + 1, N)
        for row, step in enumerate(range(k - i, k + 1)):
            if potential is not None:
                integrals += 0.5 * h * (v_prev + v[row])
                v_prev = v[row]
            if step in snapshot_steps:
                snapshots[step] = (r_held[row].copy(), U_held[:, row].T.copy(),
                                   integrals.copy())
    return WalkResult(r, U.T.copy(), integrals, snapshots)
