"""Deterministic radial spectral oracles on H^d.

Finite-volume discretization of H = -(1/2)(d_rr + (d-1) coth(r) d_r) + V(r)
on (0, R_max] with the sinh^{d-1}(r) dr weight: Neumann (regularity) at 0
via the vanishing inner face flux, Dirichlet wall at R_max.  The operator is
self-adjoint in the weighted inner product; eigensolves, Born-series
resolvents and contour projectors all act on the same tridiagonal form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded


class BornDivergenceError(RuntimeError):
    """Born series terms stopped contracting; smallness condition violated."""


class ContourError(ValueError):
    """The integration circle does not cleanly separate the ground eigenvalue."""


@dataclass(frozen=True)
class RadialOperator:
    """Symmetric tridiagonal discretization of the radial Schroedinger operator."""

    d: int
    r_max: float
    m: int
    grid: np.ndarray      # cell centers (m,)
    dr: float
    weights: np.ndarray   # sinh^{d-1} at cell centers
    face_weights: np.ndarray  # sinh^{d-1} at cell faces (m+1,)
    potential: np.ndarray
    diag: np.ndarray      # symmetric similarity form
    offdiag: np.ndarray

    def apply(self, u):
        """Matvec in the original (unsymmetrized) variable."""
        s = np.sqrt(self.weights)
        v = s * np.asarray(u)
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out / s

    def weighted_dot(self, f, g):
        return float(np.real(np.sum(np.conj(f) * g * self.weights) * self.dr))

    def weighted_norm(self, f):
        return np.sqrt(max(0.0, self.weighted_dot(f, f)))


@dataclass(frozen=True)
class RadialSpectrum:
    """Ground eigenpair of a RadialOperator, phi positive and weight-normalized."""

    rho: float
    phi: np.ndarray
    gap: float
    grid: np.ndarray
    operator: RadialOperator


def check_grid(r_max, m):
    """The grid bounds of `build_radial_operator`."""
    if m < 50:
        raise ValueError("need at least 50 cells")
    if r_max < 5:
        raise ValueError("need r_max >= 5")


def build_radial_operator(d, r_max, m, potential) -> RadialOperator:
    """Assemble the finite-volume tridiagonal form on m cells of (0, r_max]."""
    check_grid(r_max, m)
    dr = r_max / m
    grid = (np.arange(m) + 0.5) * dr
    faces = np.arange(m + 1) * dr
    w = np.sinh(grid) ** (d - 1)
    wf = np.sinh(faces) ** (d - 1)
    V = np.asarray(potential(grid), dtype=float)
    if V.shape != grid.shape:
        raise ValueError("potential callable must be vectorized over the grid")
    if np.any(~np.isfinite(V)):
        raise ValueError("potential evaluated to NaN/inf on the grid")
    diag = 0.5 * (wf[:-1] + wf[1:]) / (w * dr**2) + V
    # Dirichlet value sits on the outer face itself, half a cell from the
    # last center, which doubles that face's flux coefficient; this keeps
    # the eigenvalue error at O(1/m^2) instead of O(1/m)
    diag[-1] += 0.5 * wf[-1] / (w[-1] * dr**2)
    off = -0.5 * wf[1:-1] / (dr**2 * np.sqrt(w[:-1] * w[1:]))
    return RadialOperator(d, r_max, m, grid, dr, w, wf, V, diag, off)


def solve_ground_state(op: RadialOperator) -> RadialSpectrum:
    """Lowest eigenpair by the LAPACK bisection + inverse-iteration path."""
    vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 1))
    rho = float(vals[0])
    gap = float(vals[1] - vals[0])
    if gap < 1e-12:
        raise RuntimeError("numerically degenerate ground state")
    u = vecs[:, 0]
    phi = u / np.sqrt(op.weights)
    # ground state of a tridiagonal operator with negative couplings has a sign
    if np.sum(phi * op.weights) < 0:
        phi = -phi
    if np.any(phi <= 0):
        raise RuntimeError("ground state failed positivity")
    phi = phi / op.weighted_norm(phi)
    return RadialSpectrum(rho, phi, gap, op.grid, op)


def _banded(diag, off):
    m = diag.shape[0]
    ab = np.zeros((3, m), dtype=np.result_type(diag, off))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return ab


def direct_resolvent_solve(op: RadialOperator, z, w_vec):
    """(H - z)^{-1} w by a direct banded solve (the projector's workhorse)."""
    s = np.sqrt(op.weights)
    rhs = s * np.asarray(w_vec, dtype=complex)
    ab = _banded(op.diag.astype(complex) - z, op.offdiag.astype(complex))
    u = solve_banded((1, 1), ab, rhs)
    return u / s


def born_resolvent_apply(op: RadialOperator, z, w_vec, k_max):
    """Partial Born sum (H-z)^{-1} w = sum_k R_0 (-V R_0)^k w with tail report.

    Raises BornDivergenceError when the term norms stop decreasing for five
    consecutive orders, mirroring failure of the smallness condition.
    """
    free = RadialOperator(
        op.d, op.r_max, op.m, op.grid, op.dr, op.weights, op.face_weights,
        np.zeros_like(op.potential), op.diag - op.potential, op.offdiag,
    )
    term = direct_resolvent_solve(free, z, w_vec)
    total = term.copy()
    prev_norm = np.sqrt(op.weighted_dot(term, term))
    n_bad = 0
    ratio = 0.0
    for _ in range(1, k_max + 1):
        term = direct_resolvent_solve(free, z, -op.potential * term)
        total += term
        norm = np.sqrt(op.weighted_dot(term, term))
        if norm >= prev_norm and norm > 0:
            n_bad += 1
            if n_bad >= 5:
                raise BornDivergenceError(
                    f"Born terms non-decreasing for 5 orders (last ratio {norm / prev_norm:.3g})"
                )
        else:
            n_bad = 0
        ratio = norm / prev_norm if prev_norm > 0 else 0.0
        prev_norm = norm
        if norm == 0.0:
            break
    tail = prev_norm * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else np.inf
    return total, tail


def contour_projector(op: RadialOperator, center, radius, n_quad=64):
    """Riesz projector applied to the constant vector, by circular trapezoid.

    Returns the normalized real vector P.1/||P.1|| and its Rayleigh quotient.
    The circle must enclose exactly the lowest eigenvalue.
    """
    spec = solve_ground_state(op)
    lam2 = spec.rho + spec.gap
    inside1 = abs(spec.rho - center) < radius
    inside2 = abs(lam2 - center) < radius
    if not inside1 or inside2:
        raise ContourError(
            f"contour (center={center}, radius={radius}) does not separate "
            f"rho={spec.rho:.6g} from the rest (next eigenvalue {lam2:.6g})"
        )
    for lam in (spec.rho, lam2):
        if abs(abs(lam - center) - radius) < 1e-6 * radius:
            raise ContourError("eigenvalue too close to the integration circle")
    p1 = apply_projector(op, center, radius, np.ones(op.m), n_quad)
    norm = op.weighted_norm(p1)
    if norm == 0.0:
        raise ContourError("projector annihilated the constant vector")
    v = p1 / norm
    if op.weighted_dot(v, np.ones(op.m)) < 0:
        v = -v
    rayleigh = op.weighted_dot(v, op.apply(v))
    return v, rayleigh


def apply_projector(op: RadialOperator, center, radius, vec, n_quad=64):
    """Riesz projector applied to `vec` by the trapezoid rule on the circle."""
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    acc = np.zeros(op.m, dtype=complex)
    # P = (1/2pi i) contour integral of (z - H)^{-1}; with the direct solver
    # returning (H - z)^{-1} this is minus the mean of r e^{i theta} R(z) vec
    for t in theta:
        z = center + radius * np.exp(1j * t)
        acc += radius * np.exp(1j * t) * direct_resolvent_solve(op, z, vec)
    return -np.real(acc) / n_quad


def survival_harmonic(op: RadialOperator):
    """The bounded positive solution of H h = 0 with h(R_max) = 1.

    This is the generalized ground state at energy zero for a transient
    potential: h(r) is the limiting survival weight E^r[exp(-int_0^inf V)].
    Requires V >= 0 somewhere-positive so that H is positive definite.
    """
    rhs = np.zeros(op.m)
    # boundary value 1 on the outer face, half a cell from the last center
    rhs[-1] = op.face_weights[-1] / (op.weights[-1] * op.dr**2)
    s = np.sqrt(op.weights)
    ab = _banded(op.diag, op.offdiag)
    u = solve_banded((1, 1), ab, s * rhs)
    h = u / s
    if np.any(h <= 0):
        raise RuntimeError("survival harmonic failed positivity")
    return h


def finite_horizon_survival(op: RadialOperator, T):
    """Z_T(r) = E^r[exp(-int_0^T V)] on the grid, as h + e^{-TH}(1 - h).

    u = Z_T - h solves the heat equation du/dT = -H u with u(0) = 1 - h, so
    the survival weight relaxes from 1 to the survival harmonic h.  e^{-TH}
    acts by full eigensolve in the symmetric similarity form: with
    s = sqrt(weights), e^{-TH} f = s^{-1} U e^{-T Lambda} U^t (s f).  The
    eigensolve uses LAPACK's MRRR driver (stemr): the default divide and
    conquer merges with threaded BLAS, so its bits depend on the thread count.
    """
    h = survival_harmonic(op)
    vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, lapack_driver="stemr")
    s = np.sqrt(op.weights)
    coeffs = vecs.T @ (s * (1.0 - h))
    return h + (vecs @ (np.exp(-T * vals) * coeffs)) / s


def log_derivative_interpolant(grid, phi):
    """(log phi)'(r) from a monotone cubic interpolant of log phi on the grid.

    The returned callable raises on queries beyond the grid (no silent
    extrapolation); queries below the first cell center clamp to it.
    """
    # a local import: only full-pipeline and doob-compare need scipy.interpolate
    from scipy.interpolate import PchipInterpolator

    if np.any(np.asarray(phi) <= 0):
        raise ValueError("phi must be strictly positive on its grid")
    interp = PchipInterpolator(grid, np.log(np.asarray(phi, dtype=float)))
    deriv = interp.derivative()
    r_lo, r_hi = float(grid[0]), float(grid[-1])

    def dlogphi(r):
        r = np.asarray(r, dtype=float)
        if np.any(r > r_hi + 1e-12):
            raise ValueError(
                f"radius {float(np.max(r)):.4f} outside the eigenfunction grid "
                f"(max {r_hi:.4f})"
            )
        return deriv(np.clip(r, r_lo, r_hi))

    return dlogphi


def eigenpair_to_csv(spec: RadialSpectrum, path):
    op = spec.operator
    with open(path, "w") as fh:
        fh.write(f"# rho={float(spec.rho)!r} gap={float(spec.gap)!r} "
                 f"R_max={float(op.r_max)!r} M={op.m} d={op.d}\n")
        fh.write("r,phi\n")
        for r, p in zip(spec.grid, spec.phi):
            fh.write(f"{float(r)!r},{float(p)!r}\n")
