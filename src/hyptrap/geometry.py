"""Hyperboloid-model geometry of H^d embedded in Minkowski space R^{1+d}.

Points live on the upper sheet {<z,z>_J = -1, z_0 >= 1} of the quadric for
the bilinear form J = diag(-1, 1, ..., 1).  All operations are pure; points
are re-normalized onto the sheet after every move to kill floating drift.

Scalar operations work on small wrapper types (HPoint, Isometry); the
`*_batch` helpers operate on (N, d+1) arrays.  The path samplers do not walk
in these coordinates: `diffusion` keeps a polar state (radius, direction)
and converts at the ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHEET_TOL = 1e-8


class GeometryError(ValueError):
    """Raised when an input violates a hyperboloid-model invariant."""


def minkowski_dot(x, y):
    """Minkowski bilinear form -x_0 y_0 + sum_{i>=1} x_i y_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise GeometryError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.shape[-1] < 3:
        raise GeometryError("need ambient dimension d+1 >= 3 (d >= 2)")
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def minkowski_matrix(d):
    J = np.eye(d + 1)
    J[0, 0] = -1.0
    return J


def origin(d):
    """The base point o = e_0 of the upper sheet."""
    z = np.zeros(d + 1)
    z[0] = 1.0
    return HPoint(z)


def project_to_sheet(z):
    """Rescale z onto the sheet by dividing by sqrt(-<z,z>_J)."""
    q = minkowski_dot(z, z)
    if np.any(q >= 0):
        raise GeometryError("cannot project a non-timelike vector onto the sheet")
    return z / np.sqrt(-q)


@dataclass(frozen=True)
class HPoint:
    """A point on the upper sheet of the hyperboloid."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or z.shape[0] < 3:
            raise GeometryError("HPoint needs a flat coordinate array of length d+1 >= 3")
        if abs(minkowski_dot(z, z) + 1.0) > SHEET_TOL:
            raise GeometryError(f"point off the sheet: <z,z>_J = {minkowski_dot(z, z)}")
        if z[0] < 1.0 - SHEET_TOL:
            raise GeometryError("point not on the upper sheet (z_0 < 1)")

    @property
    def d(self):
        return self.z.shape[0] - 1


@dataclass(frozen=True)
class Isometry:
    """A J-orthogonal matrix preserving the upper sheet (A^T J A = J, det +1)."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        n = A.shape[0]
        if A.shape != (n, n) or n < 3:
            raise GeometryError("Isometry must be a square (d+1)x(d+1) matrix, d >= 2")
        J = minkowski_matrix(n - 1)
        if np.max(np.abs(A.T @ J @ A - J)) > SHEET_TOL:
            raise GeometryError("matrix is not J-orthogonal")
        if A[0, 0] <= 0:
            raise GeometryError("matrix does not preserve the upper sheet")

    @property
    def d(self):
        return self.A.shape[0] - 1


def distance(x: HPoint, y: HPoint) -> float:
    """Geodesic distance arccosh(-<x,y>_J)."""
    return float(np.arccosh(np.maximum(1.0, -minkowski_dot(x.z, y.z))))


def apply_isometry(g: Isometry, x: HPoint) -> HPoint:
    if g.d != x.d:
        raise GeometryError("isometry/point dimension mismatch")
    return HPoint(project_to_sheet(g.A @ x.z))


# ---------------------------------------------------------------------------
# batched kernels (arrays of shape (N, d+1))
# ---------------------------------------------------------------------------


def sheet_defect_batch(X):
    """max |<z,z>_J + 1| over the batch."""
    X = np.asarray(X, dtype=float)
    q = -X[:, 0] ** 2 + np.sum(X[:, 1:] ** 2, axis=1)
    return float(np.max(np.abs(q + 1.0)))


def radius_batch(X):
    """Geodesic distance to o for each row."""
    return np.arccosh(np.maximum(1.0, X[:, 0]))


def distance_batch(X, Y):
    """Pairwise distances between rows of X (N, d+1) and rows of Y (m, d+1)."""
    inner = X[:, 0][:, None] * Y[:, 0][None, :] - X[:, 1:] @ Y[:, 1:].T
    return np.arccosh(np.maximum(1.0, inner))
