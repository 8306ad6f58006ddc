"""Deterministic radial spectral oracles on H^d.

Finite-volume discretization of H = -(1/2)(d_rr + (d-1) coth(r) d_r) + V(r)
on (0, R_max] with the sinh^{d-1}(r) dr weight: Neumann (regularity) at 0
via the vanishing inner face flux, Dirichlet wall at R_max.  The operator is
self-adjoint in the weighted inner product; eigensolves, Born-series
resolvents and the contour sums of the projector and the semigroup all act on
the same tridiagonal form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np


N_QUAD = 64  # trapezoid nodes on the contour projector's circle
N_BORN = 60  # Born orders past the free resolvent


class BornDivergenceError(RuntimeError):
    """Born series terms stopped contracting; smallness condition violated."""


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
    operator: RadialOperator
    norm_bound: float     # Gershgorin bound on ||H||, where the bisection starts


def check_grid(r_max, m):
    """The grid bounds of `build_radial_operator`."""
    if m < 50:
        raise ValueError("need at least 50 cells")
    if not 5 <= r_max < np.inf:
        raise ValueError("need a finite r_max >= 5")


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
    # sqrt(w w') of neighbouring cells; where the product overflows (d = 5
    # past r ~ 89) it is sqrt(w) sqrt(w'), and only there, since that rounds
    # differently
    with np.errstate(over="ignore"):
        w_pair = w[:-1] * w[1:]
    root = np.sqrt(w_pair)
    far = np.isinf(w_pair)
    root[far] = np.sqrt(w[:-1][far]) * np.sqrt(w[1:][far])
    off = -0.5 * wf[1:-1] / (dr**2 * root)
    return RadialOperator(d, r_max, m, grid, dr, w, wf, V, diag, off)


def _sturm_count(diag, off, x):
    """The number of eigenvalues below x of the symmetric tridiagonal matrix
    (diag, off[1:]), given as lists with off[0] = 0, counted up to 2: the
    negative pivots of the LDL^T factorization of T - x (Sylvester).  The
    count stops at the second negative pivot, since the bisection of the two
    lowest eigenvalues reads only whether it exceeds 0 and 1."""
    below = 0
    q = 1.0
    for a, b in zip(diag, off):
        q = a - x - b / q * b
        if q <= 0.0:
            below += 1
            if below == 2:
                break
            if q == 0.0:
                q = -sys.float_info.min
    return below


def solve_ground_state(op: RadialOperator) -> RadialSpectrum:
    """Lowest eigenpair and the gap, by the path LAPACK's select="i" takes.

    Sturm counts bisect the two lowest eigenvalues of the symmetric form from
    its Gershgorin interval (Barth, Martin and Wilkinson 1967), every count
    narrowing both brackets, until no double lies inside a bracket.  The
    count at the lower end sigma of lambda_0's bracket found every pivot of
    T - sigma positive, and `_factor` computes those same pivots: with the
    negative couplings, the inverse iteration at sigma from the constant
    vector then adds positive terms only.  It runs until the Rayleigh
    quotient stops decreasing by more than its rounding, eps ||T||.
    """
    diag = op.diag.tolist()
    off = op.offdiag.tolist()
    padded = [0.0, *off]
    radius = np.abs(np.r_[op.offdiag, 0.0]) + np.abs(np.r_[0.0, op.offdiag])
    lo, hi = float(np.min(op.diag - radius)), float(np.max(op.diag + radius))
    brackets = [[lo, hi], [lo, hi]]
    for bracket in brackets:
        while bracket[0] < (x := 0.5 * (bracket[0] + bracket[1])) < bracket[1]:
            below = _sturm_count(diag, padded, x)
            for k, other in enumerate(brackets):
                if below > k:
                    other[1] = min(other[1], x)
                else:
                    other[0] = max(other[0], x)
    rho = 0.5 * sum(brackets[0])
    gap = 0.5 * sum(brackets[1]) - rho
    if gap < 1e-12:
        raise RuntimeError("numerically degenerate ground state")
    sigma = brackets[0][0]
    factors = _factor([a - sigma for a in diag], off)
    u = np.ones(op.m)
    rayleigh = np.inf
    norm_bound = max(abs(lo), abs(hi))
    while True:
        u = _solve(factors, u.tolist())
        u /= np.linalg.norm(u)
        phi = u / np.sqrt(op.weights)
        quotient = op.weighted_dot(phi, op.apply(phi)) / op.dr
        if not quotient < rayleigh - np.finfo(float).eps * norm_bound:
            break
        rayleigh = quotient
    if np.any(phi <= 0):
        raise RuntimeError("ground state failed positivity")
    phi = phi / op.weighted_norm(phi)
    return RadialSpectrum(rho, phi, gap, op, norm_bound)


def _factor(diag, off):
    """LU factors of the symmetric tridiagonal matrix (diag, off), lists of
    real or complex numbers, without row interchanges: the pivots, the
    multipliers and the couplings, in the arithmetic of LAPACK's banded
    solver when it swaps no rows.  The pivots are bitwise `_sturm_count`'s,
    positive for T - sigma below the spectrum; those of T - z stay |Im z| or
    more from 0."""
    p = diag[0]
    pivots, mult = [p], []
    for a, b in zip(diag[1:], off):
        l = b / p
        p = a - l * b
        mult.append(l)
        pivots.append(p)
    return pivots, mult, off


def _solve(factors, rhs):
    """T^{-1} rhs for a list rhs, from `_factor`'s factors of T."""
    pivots, mult, off = factors
    y = rhs[0]
    fwd = [y]
    for x, l in zip(rhs[1:], mult):
        y = x - l * y
        fwd.append(y)
    u = fwd[-1] / pivots[-1]
    out = [u]
    for y, p, b in zip(fwd[-2::-1], pivots[-2::-1], off[::-1]):
        u = (y - b * u) / p
        out.append(u)
    return np.array(out[::-1])


def _resolvent(op: RadialOperator, z):
    """w -> (H - z)^{-1} w, with H - z factored once."""
    s = np.sqrt(op.weights)
    factors = _factor((op.diag - z).tolist(), op.offdiag.tolist())
    return lambda w: _solve(factors, (s * w).tolist()) / s


def born_resolvent_apply(op: RadialOperator, z, w_vec, k_max=N_BORN):
    """Partial Born sum (H-z)^{-1} w = sum_k R_0 (-V R_0)^k w with tail report.

    Raises BornDivergenceError when the term norms stop decreasing for five
    consecutive orders, mirroring failure of the smallness condition.  The
    tail is the geometric bound from the last ratio of term norms; a series
    that reaches an exact 0 term has no tail, and reports 0.
    """
    free = replace(op, potential=np.zeros_like(op.potential), diag=op.diag - op.potential)
    solve = _resolvent(free, complex(z))
    term = solve(w_vec)
    total = term.copy()
    prev_norm = np.sqrt(op.weighted_dot(term, term))
    n_bad = 0
    ratio = 0.0
    for _ in range(1, k_max + 1):
        term = solve(-op.potential * term)
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
            # every later term is 0 too: the sum is complete
            return total, 0.0
    tail = prev_norm * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else np.inf
    return total, tail


def _born_error(op: RadialOperator, z, norm_bound):
    """The Born sum's error on the constant vector relative to the direct solve,
    its tail, and the error's bound: the tail plus u ||H|| / |Im z| for each of
    the N_BORN + 2 solves, as a backward stable solve at z is off by
    u ||H|| / dist(z, spectrum) and |Im z| <= dist(z, spectrum) for H self-adjoint."""
    u, w = 2.0**-53, np.ones(op.m)  # the unit roundoff
    born, tail = born_resolvent_apply(op, z, w)
    direct = _resolvent(op, z)(w)
    norm = op.weighted_norm(direct)
    return (float(op.weighted_norm(born - direct) / norm), float(tail),
            float(tail / norm) + (N_BORN + 2) * u * norm_bound / z.imag)


def born_check(spec: RadialSpectrum):
    """The Born series' self-check at z = rho + 0.15i: z, `_born_error` on spec's
    operator, and the (error, bound) of its twin with 100 V, whose series either
    diverges, (None, None) as it has no error to bound, or converges within the
    same form of bound, with ||H + 99 V|| at most ||H|| + 99 max V."""
    op = spec.operator
    z = spec.rho + 0.15j
    born = _born_error(op, z, spec.norm_bound)
    amplified = build_radial_operator(op.d, op.r_max, op.m, lambda r: 100.0 * op.potential)
    try:
        amp_rel, _, amp_bound = _born_error(
            amplified, z, spec.norm_bound + 99.0 * float(np.max(op.potential)))
    except BornDivergenceError:
        amp_rel = amp_bound = None
    return z, born, (amp_rel, amp_bound)


def contour_sum(op: RadialOperator, nodes, weights, vec):
    """sum_k Re(w_k (H - z_k)^{-1} vec) for a real `vec`: the trapezoid rule
    for a contour integral of the resolvent, on the caller's nodes and weights.
    H is real, so a contour symmetric about the real axis needs the nodes of
    its upper half only, each weight counting its conjugate node too."""
    acc = np.zeros(op.m)
    for z, w in zip(nodes, weights):
        acc += np.real(w * _resolvent(op, z)(vec))
    return acc


def contour_projector(spec: RadialSpectrum):
    """Riesz projector of spec's operator applied to the constant vector, by
    the trapezoid rule on N_QUAD nodes (0..N_QUAD/2 of them summed) of the
    circle about rho of radius gap/2: rho at its centre, rho + gap at twice
    its radius.  P = (1/2pi i) contour integral of (z - H)^{-1}, which is minus
    the mean of r e^{i theta} (H - z)^{-1} over the circle.

    Returns the normalized real vector P.1/||P.1|| and its Rayleigh quotient;
    P.1 is <phi, 1> phi, a positive multiple of phi.
    """
    op = spec.operator
    k = np.arange(N_QUAD // 2 + 1)
    e = (spec.gap / 2.0) * np.exp(1j * (2.0 * np.pi * k / N_QUAD))
    p1 = contour_sum(op, spec.rho + e, -np.where(2 * k % N_QUAD, 2.0, 1.0) * e / N_QUAD,
                     np.ones(op.m))
    v = p1 / op.weighted_norm(p1)
    return v, op.weighted_dot(v, op.apply(v))


def contour_check(spec: RadialSpectrum):
    """The contour projector's self-check against spec's ground pair: the
    circle's radius, the (vector, Rayleigh) errors and their bounds.

    N trapezoid nodes weigh an eigenvalue a from the centre by 1/(1 - (a/radius)^N)
    inside the circle and by about (radius/a)^N outside (Trefethen and Weideman,
    SIAM Review 2014): exact for rho, 2^-N for rho + gap; every node is radius or
    more from the spectrum, and phi's inverse iteration is off by about u ||H|| / gap.
    A unit vector e from phi has its Rayleigh quotient within ||H|| e^2 of rho, and
    the quotient's m-term sum, added pairwise, rounds by about log2(m) u ||H||."""
    op, u = spec.operator, 2.0**-53  # the unit roundoff
    radius = spec.gap / 2.0
    vec, rayleigh = contour_projector(spec)
    vec_bound = 2.0**-N_QUAD + u * spec.norm_bound * (1 / radius + 1 / spec.gap)
    return (radius, [float(op.weighted_norm(vec - spec.phi)), abs(rayleigh - spec.rho)],
            [vec_bound, spec.norm_bound * (vec_bound**2 + op.m.bit_length() * u)])


def apply_semigroup(op: RadialOperator, T, vec):
    """e^{-TH} vec for a real `vec` and H >= 0, by the trapezoid rule for
    (1/2pi i) int e^{Tz} (z + H)^{-1} dz on the parabola z(theta) =
    (N/T)(0.1309 - 0.1194 theta^2 + 0.25 i theta), theta_k = -pi + (k + 1/2) 2pi/N
    (Trefethen, Weideman and Schmelzer, BIT 2006; error ~ 2.85^{-N}).  Its
    conjugate nodes pair into (2/N) sum_{theta_k > 0} Im(e^{Tz} z' (H + z)^{-1} vec)."""
    n = 32
    theta = -np.pi + (np.arange(n // 2, n) + 0.5) * (2.0 * np.pi / n)
    z = (n / T) * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    dz = (n / T) * (-0.2388 * theta + 0.25j)
    # Im(a) = Re(-i a), and (H + z)^{-1} is the resolvent at -z
    return contour_sum(op, -z, (-2j / n) * np.exp(T * z) * dz, vec)


def survival_harmonic(op: RadialOperator):
    """The bounded positive solution of H h = 0 with h(R_max) = 1.

    This is the generalized ground state at energy zero for a transient
    potential: h(r) is the limiting survival weight E^r[exp(-int_0^inf V)].
    Requires V >= 0 somewhere-positive so that H is positive definite.
    """
    rhs = np.zeros(op.m)
    # boundary value 1 on the outer face, half a cell from the last center
    rhs[-1] = op.face_weights[-1] / (op.weights[-1] * op.dr**2)
    h = _resolvent(op, 0.0)(rhs)
    if np.any(h <= 0):
        raise RuntimeError("survival harmonic failed positivity")
    return h


def finite_horizon_survival(op: RadialOperator, T):
    """Z_T(r) = E^r[exp(-int_0^T V)] on the grid, as h + e^{-TH}(1 - h).

    u = Z_T - h solves the heat equation du/dT = -H u with u(0) = 1 - h, so
    the survival weight relaxes from 1 to the survival harmonic h.
    """
    h = survival_harmonic(op)
    return h + apply_semigroup(op, T, 1.0 - h)


def q_marginal_law(op: RadialOperator, t, T):
    """The radial law of X_t under the path measure from o tilted by
    exp(-int_0^T V), and its T -> infinity limit, the Doob transform by the
    survival harmonic h: their CDFs (F_T, F_inf) at the cell faces k dr,
    k = 0..m, linear in between.

    The law of X_t has density [e^{-tH} delta_o](r) Z_{T-t}(r) sinh^{d-1}(r),
    with delta_o the first cell holding mass 1 and Z_{T-t} the finite-horizon
    survival; its mass is Z_T(o) by Chapman-Kolmogorov.  The limit puts h in
    place of Z_{T-t}.  Needs 0 < t < T."""
    source = np.zeros(op.m)
    source[0] = 1.0 / (op.weights[0] * op.dr)
    density = apply_semigroup(op, t, source) * op.weights
    cdfs = []
    for tail in (finite_horizon_survival(op, T - t), survival_harmonic(op)):
        mass = np.concatenate([[0.0], np.cumsum(density * tail)])
        cdfs.append(mass / mass[-1])
    return tuple(cdfs)
