"""Brownian motion on H^d by geodesic random walk.

One step from x draws Gaussian components in an orthonormal tangent frame
and follows the geodesic: weak order 1 for the generator (1/2)
Laplace-Beltrami, and exactly manifold-preserving.

Every point of the package, start, trap or path state, is kept in polar
form (geodesic radius r from the origin o, unit direction u in T_o H^d): the
ambient hyperboloid coordinates (cosh r, sinh r u) lose the sheet constraint
to cancellation once r exceeds ~18, while the polar update below is built
from same-sign terms and keeps absolute machine accuracy in r at any radius
the walks reach.  The ambient form is only an output format
(`configuration.json`, the path CSVs).

Inside a walk the directions are column-major, (d, N) with one contiguous
row per component, so each operation of a step runs over the N paths rather
than over d entries at a time; the Gaussian draws, with their geometry, come
several steps per generator call; each step runs in place and writes its
state into a row of the walk's held buffers; and the potential is evaluated
on several steps' states per call.  None of this changes a bit: the
arithmetic is the same per path, a generator emits the same numbers in the
same order, and the potential is a function of each state alone.
Everything outside a walk sees (N, d) directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_STEP = 0.1
#: doubles of Gaussian draws and path states that a walk holds at once
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
    """The next m steps' scaled draws, (m, d, n) in C order, and their
    geometry sinh(n) / n and cosh n, (m, n), with n = |xi|: step k's draw is
    the contiguous (d, n) block [k].  Each stream makes one (m, rows, d)
    call, which a generator fills in C order, so it emits the numbers that m
    calls of (rows, d) would, in the same order; the geometry acts draw by
    draw, so it is bitwise that of each step's draw alone."""
    xi = np.concatenate([g.standard_normal((m, rows, d)) for g, rows in draws], axis=1)
    xi = np.multiply(xi.transpose(0, 2, 1), np.sqrt(h), order="C")
    return (xi, *_geometry(xi.transpose(1, 0, 2)))


def _column_sum(a, out):
    """The sum of a over its first axis (the d >= 2 components), into `out`,
    folding the components left to right.  Below 8 components this is
    bitwise numpy's sum along each row of the (N, d) layout."""
    np.add(a[0], a[1], out=out)
    for row in a[2:]:
        out += row
    return out


def _geometry(xi):
    """sinh(n) / n (1 where n <= 1e-300) and cosh n of draws xi with their
    components along the first axis, n = |xi|."""
    n = _column_sum(np.square(xi), np.empty(xi.shape[1:]))
    np.sqrt(n, out=n)
    sinc = np.sinh(n)
    if (n > 1e-300).all():
        sinc /= n
    else:
        sinc /= np.maximum(n, 1e-300)
        sinc[~(n > 1e-300)] = 1.0
    return sinc, np.cosh(n)


def step_polar(r, U, h, xi, geometry=None, out=None):
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
    share it, with its `geometry`, the pair (sinh n / n, cosh n) of
    `_column_draws` (computed here if None).

    The step writes r' and U' into `out`, a pair of (N,) and (d, N) arrays
    that must not overlap r or U (new arrays if None), and returns them.
    Its arithmetic runs in place in arrays of its own, and each operation
    rounds the operands of the formula above in its order; sums over the
    components fold them left to right, which is bitwise numpy's row
    reduction below 8 components, and each 1e-300 guard patches the guarded
    paths only when one is guarded, which is bitwise np.where's result.
    Every operation acts path by path, so each path takes bitwise the step
    it would take alone from its own state and draw.
    """
    d, N = U.shape
    r_new, U_new = (np.empty(N), np.empty((d, N))) if out is None else out
    sinc, cosh_n = _geometry(xi) if geometry is None else geometry
    r_out, vec = r_new, U_new
    if xi.shape[1] < N:
        # one block of paths per middle index: the draw's columns broadcast
        # over them (a lone block keeps the flat rows, whose loops are faster)
        shape = (N // xi.shape[1], xi.shape[1])
        r, U, xi = r.reshape(shape), U.reshape(d, *shape), xi[:, None]
        r_out, vec = r_new.reshape(shape), U_new.reshape(d, *shape)
    work = np.empty(U.shape)
    xi_r, alpha, scratch = np.empty(r.shape), np.empty(r.shape), np.empty(r.shape)
    _column_sum(np.multiply(xi, U, out=work), xi_r)
    # alpha = cosh n sinh r + (sinc xi_r) cosh r
    np.sinh(r, out=alpha)
    alpha *= cosh_n
    np.multiply(sinc, xi_r, out=scratch)
    scratch *= np.cosh(r, out=work[0])
    alpha += scratch
    # vec = alpha u + sinc (xi - xi_r u)
    np.multiply(xi_r, U, out=vec)
    np.subtract(xi, vec, out=vec)
    vec *= sinc
    vec += np.multiply(alpha, U, out=work)
    norm = np.sqrt(_column_sum(np.square(vec, out=work), scratch), out=scratch)
    np.arcsinh(norm, out=r_out)
    if (norm > 1e-300).all():
        vec /= norm
    else:
        vec /= np.maximum(norm, 1e-300)
        np.copyto(vec, U, where=~(norm > 1e-300))
    # keep directions exactly unit against slow drift
    vec /= np.sqrt(_column_sum(np.square(vec, out=work), alpha), out=alpha)
    return r_new, U_new


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
                  blocks=1) -> WalkResult:
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
    per-step draws would leave it; the draws' geometry is computed once on
    the whole chunk.  The states of depth = max(2, DRAW_BUFFER // N) steps
    (16 at 1,000 paths, 3 at 5,000) are held in buffers allocated once,
    (depth, N) radii and (d, depth, N) directions, and each step writes its
    state straight into its row, never the one it reads, as there are at
    least two.  `evaluate_polar` is called once per filled buffer (and once
    for a last, partial one) on all of its steps, as (depth N, d)
    directions; the trapezoid sums and snapshots then run step by step over
    its rows.  The step and the potential are
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
    depth = max(2, DRAW_BUFFER // N)
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
            xi, sinc, cosh_n = _column_draws(draws, min(chunk, n_steps + 1 - k), d, h)
        i = (k - 1) % depth
        r, U = step_polar(r, U, h, xi[j], geometry=(sinc[j], cosh_n[j]),
                          out=(r_held[i], U_held[:, i]))
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
    return WalkResult(r.copy(), U.T.copy(), integrals, snapshots)
