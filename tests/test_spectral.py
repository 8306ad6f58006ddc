"""Radial Schroedinger oracle: eigensolver, Born series, contour projector."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import log_derivative_interpolant
from hyptrap import spectral
from hyptrap.ppp import PotentialSpec
from hyptrap.spectral import (
    BornDivergenceError,
    born_resolvent_apply,
    build_radial_operator,
    contour_projector,
    solve_ground_state,
    survival_harmonic,
)


def zero_potential(r):
    return np.zeros_like(r)


def trap_potential(r, v_max=0.1, a=1.0, r0=1.0):
    q = 1.0 - (np.asarray(r) / r0) ** 2
    return np.minimum(v_max, a * np.where(np.asarray(r) < r0, q * q, 0.0))


def banded_resolvent(op, z, w):
    """(H - z)^{-1} w by scipy.linalg.solve_banded on the symmetric form
    s H s^{-1}, s = sqrt(weights): the reference direct solve."""
    from scipy.linalg import solve_banded

    s = np.sqrt(op.weights)
    ab = np.zeros((3, op.m), dtype=np.result_type(z, float))
    ab[0, 1:] = ab[2, :-1] = op.offdiag
    ab[1] = op.diag - z
    return solve_banded((1, 1), ab, s * w) / s


def every_node_projector(op, center, radius, vec, n_quad=spectral.N_QUAD):
    """The Riesz projector applied to `vec` by the trapezoid rule on all n_quad
    nodes of the circle, as the rule states it: minus the mean of
    e (H - center - e)^{-1} vec over the nodes center + e."""
    acc = np.zeros(op.m, dtype=complex)
    for t in 2.0 * np.pi * np.arange(n_quad) / n_quad:
        e = radius * np.exp(1j * t)
        acc += e * spectral._resolvent(op, center + e)(vec)
    return -np.real(acc) / n_quad


class TestBuildRadialOperator:
    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            build_radial_operator(2, 30.0, 10, zero_potential)
        for r_max in (2.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                build_radial_operator(2, r_max, 100, zero_potential)

    def test_nan_potential_rejected(self):
        with pytest.raises(ValueError):
            build_radial_operator(2, 30.0, 100, lambda r: np.full_like(r, np.nan))

    def test_free_bottom_d2(self):
        # Dirichlet wall at R_max=30 sits the eigenvalue pi^2/(2 R^2) above
        # the continuum bottom 1/8; the frozen reference is the converged
        # discrete value at M=3000
        op = build_radial_operator(2, 30.0, 3000, zero_potential)
        rho = solve_ground_state(op).rho
        assert abs(rho - 0.13001722267021026) < 1e-10
        assert rho > 0.125

    def test_free_bottom_d3(self):
        op = build_radial_operator(3, 30.0, 3000, zero_potential)
        rho = solve_ground_state(op).rho
        assert abs(rho - 0.5054872908575201) < 1e-10
        assert rho > 0.5

    def test_free_bottom_continuum_limit(self):
        # at R_max=100 the truncation penalty pi^2/(2 R^2) ~ 5e-4 brings the
        # eigenvalue within 1% of the continuum bottoms 1/8 and 1/2
        for d, bottom in ((2, 0.125), (3, 0.5)):
            op = build_radial_operator(d, 100.0, 10_000, zero_potential)
            rho = solve_ground_state(op).rho
            assert bottom < rho < 1.01 * bottom

    def test_truncation_gap_scaling(self):
        # rho(R) - 1/8 scales like pi^2/(2 R^2) for the free operator
        gaps = []
        for R in (30.0, 60.0):
            op = build_radial_operator(2, R, int(100 * R), zero_potential)
            gaps.append(solve_ground_state(op).rho - 0.125)
        assert 3.5 < gaps[0] / gaps[1] < 4.5
        assert abs(gaps[0] - np.pi**2 / (2 * 30.0**2)) < 0.1 * gaps[0]

    def test_constant_shift(self):
        s1 = solve_ground_state(build_radial_operator(2, 30.0, 500, trap_potential))
        s2 = solve_ground_state(
            build_radial_operator(2, 30.0, 500, lambda r: trap_potential(r) + 0.7))
        assert abs(s2.rho - s1.rho - 0.7) < 1e-12
        assert abs(s2.gap - s1.gap) < 1e-12

    def test_symmetry(self):
        # tridiagonal storage is symmetric by construction; check the matvec
        # against its transpose in the weighted inner product
        rng = np.random.default_rng(0)
        op = build_radial_operator(2, 30.0, 300, trap_potential)
        f = rng.standard_normal(op.m)
        g = rng.standard_normal(op.m)
        a = op.weighted_dot(f, op.apply(g))
        b = op.weighted_dot(op.apply(f), g)
        # the sinh^{d-1} weights reach ~5e12 at r=30, so compare relatively
        assert abs(a - b) < 1e-12 * max(abs(a), abs(b))

    def test_positive_for_nonnegative_potential(self):
        op = build_radial_operator(2, 30.0, 1000, trap_potential)
        s = solve_ground_state(op)
        assert s.rho > -1e-9

    def test_far_wall_couplings_d5(self):
        # sinh^4 at neighbouring centres multiplies past the largest double
        # beyond r ~ 89; no coupling may vanish there, or the outer cells
        # decouple and the survival harmonic loses positivity
        op = build_radial_operator(5, 100.0, 10_000, trap_potential)
        assert np.all(op.offdiag < 0) and np.all(np.isfinite(op.offdiag))
        assert np.all(survival_harmonic(op) > 0)

    def test_mesh_richardson_ratio(self):
        # smooth potential so the leading discretization error is a clean
        # O(1/M^2) term (the capped trap has a corner where the cap binds)
        def smooth(r):
            return 0.05 * np.exp(-np.asarray(r) ** 2)

        rhos = []
        for m in (500, 1000, 2000):
            op = build_radial_operator(2, 30.0, m, smooth)
            rhos.append(solve_ground_state(op).rho)
        ratio = (rhos[0] - rhos[1]) / (rhos[1] - rhos[2])
        assert 3.6 < ratio < 4.4


class TestSolveGroundState:
    def test_positivity_and_normalization(self):
        op = build_radial_operator(2, 30.0, 2000, trap_potential)
        s = solve_ground_state(op)
        assert np.all(s.phi > 0)
        assert abs(op.weighted_norm(s.phi) - 1.0) < 1e-10

    def test_residual(self):
        op = build_radial_operator(2, 30.0, 3000, trap_potential)
        s = solve_ground_state(op)
        res = op.apply(s.phi) - s.rho * s.phi
        assert op.weighted_norm(res) < 1e-9

    def test_trap_ground_energy_bounds(self):
        # adding 0 <= V <= v_max moves the eigenvalue up by at most v_max
        free = solve_ground_state(build_radial_operator(2, 30.0, 2000, zero_potential))
        trap = solve_ground_state(build_radial_operator(2, 30.0, 2000, trap_potential))
        assert free.rho <= trap.rho <= free.rho + 0.1 + 1e-12

    def test_dirichlet_monotone_in_domain(self):
        r20 = solve_ground_state(build_radial_operator(2, 20.0, 2000, trap_potential)).rho
        r40 = solve_ground_state(build_radial_operator(2, 40.0, 4000, trap_potential)).rho
        assert r20 >= r40

    def test_hellmann_feynman(self):
        # d rho / d a = <phi, (dV/da) phi> for the trap amplitude a
        def op_for(a):
            return build_radial_operator(
                2, 30.0, 2000, lambda r: trap_potential(r, v_max=10.0, a=a))

        a0, eps = 0.05, 1e-4
        s = solve_ground_state(op_for(a0))
        dv = trap_potential(s.operator.grid, v_max=np.inf, a=1.0)
        hf = s.operator.weighted_dot(s.phi, dv * s.phi)
        fd = (solve_ground_state(op_for(a0 + eps)).rho
              - solve_ground_state(op_for(a0 - eps)).rho) / (2 * eps)
        assert abs(fd - hf) / abs(hf) < 1e-4


class TestBornSeries:
    def setup_method(self):
        self.op = build_radial_operator(2, 30.0, 3000, trap_potential)
        self.spec = solve_ground_state(self.op)
        self.z = self.spec.rho + 0.15j
        self.w = np.ones(self.op.m)

    def test_free_potential_single_term(self):
        free = build_radial_operator(2, 30.0, 3000, zero_potential)
        born, _ = born_resolvent_apply(free, self.z, self.w, 10)
        direct = banded_resolvent(free, self.z, self.w)
        assert np.allclose(born, direct, atol=1e-14)

    def test_matches_direct_solve(self):
        born, tail = born_resolvent_apply(self.op, self.z, self.w, 60)
        direct = banded_resolvent(self.op, self.z, self.w)
        diff = born - direct
        rel = np.sqrt(self.op.weighted_dot(diff, diff)
                      / self.op.weighted_dot(direct, direct))
        assert rel < 1e-8
        assert np.isfinite(tail)

    def test_series_ending_on_a_zero_term_has_no_tail(self):
        # a weak narrow trap in H^5: the terms reach exactly 0 before order 60,
        # and the series is then complete, so its tail is 0, not inf
        op = build_radial_operator(5, 30.0, 3000,
                                   lambda r: trap_potential(r, v_max=0.02, r0=0.5))
        z = solve_ground_state(op).rho + 0.15j
        born, tail = born_resolvent_apply(op, z, np.ones(op.m))
        direct = banded_resolvent(op, z, np.ones(op.m))
        assert tail == 0.0
        assert op.weighted_norm(born - direct) / op.weighted_norm(direct) < 1e-12

    def test_amplified_potential_diverges(self):
        big = build_radial_operator(2, 30.0, 3000,
                                    lambda r: 100.0 * trap_potential(r))
        with pytest.raises(BornDivergenceError):
            born_resolvent_apply(big, self.z, self.w, 60)


class TestContourProjector:
    def setup_method(self):
        self.op = build_radial_operator(2, 30.0, 3000, trap_potential)
        self.spec = solve_ground_state(self.op)

    def test_matches_eigensolver(self):
        vec, rayleigh = contour_projector(self.spec)
        diff = vec - self.spec.phi
        assert np.sqrt(self.op.weighted_dot(diff, diff)) < 1e-8
        assert abs(rayleigh - self.spec.rho) < 1e-10

    def test_idempotent(self):
        # the projector's vector lies in its range: projecting it again keeps it
        vec, _ = contour_projector(self.spec)
        again = every_node_projector(self.op, self.spec.rho, self.spec.gap / 2.0, vec)
        assert np.max(np.abs(again - vec)) < 1e-10 * np.max(np.abs(vec))

    @pytest.mark.parametrize("n_quad", [spectral.N_QUAD])
    def test_conjugate_nodes_match_every_node(self, n_quad):
        # the sum over all n_quad nodes of the circle, as the trapezoid rule
        # states it, normalized, against the projector's sum on half of them
        want = every_node_projector(self.op, self.spec.rho, self.spec.gap / 2.0,
                                    np.ones(self.op.m), n_quad)
        got, _ = contour_projector(self.spec)
        assert self.op.weighted_norm(got - want / self.op.weighted_norm(want)) <= 1e-12

    def test_free_projector_recovers_eigenvector(self):
        op = build_radial_operator(2, 30.0, 1000, zero_potential)
        spec = solve_ground_state(op)
        vec, rayleigh = contour_projector(spec)
        diff = vec - spec.phi
        assert np.sqrt(op.weighted_dot(diff, diff)) < 1e-8


# the grids of the LAPACK reference tests: the CLI default, a far wall on a
# fine grid, and the smallest grid `check_grid` allows
LAPACK_GRIDS = [(d, r_max, m) for d in (2, 3, 5)
                for r_max, m in ((30.0, 3000), (100.0, 10_000), (5.0, 50))]


class TestAgainstLapack:
    """The numpy ground pair and tridiagonal solves against scipy.linalg."""

    @pytest.mark.parametrize("d,r_max,m", LAPACK_GRIDS)
    def test_ground_pair(self, d, r_max, m):
        from scipy.linalg import eigh_tridiagonal

        op = build_radial_operator(d, r_max, m, trap_potential)
        spec = solve_ground_state(op)
        vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 1))
        assert abs(spec.rho - vals[0]) <= 1e-10
        assert abs(spec.gap - (vals[1] - vals[0])) <= 1e-10
        # the norm bound the oracle gates' rounding allowances scale with
        top = eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True,
                               select="i", select_range=(m - 1, m - 1))
        assert -spec.norm_bound <= vals[0] and top[0] <= spec.norm_bound
        phi = vecs[:, 0] / np.sqrt(op.weights)
        phi *= np.sign(np.sum(phi)) / op.weighted_norm(phi)
        assert op.weighted_norm(spec.phi - phi) <= 1e-9

    @pytest.mark.parametrize("d,r_max,m", LAPACK_GRIDS)
    def test_solves(self, d, r_max, m):
        op = build_radial_operator(d, r_max, m, trap_potential)
        w = np.random.default_rng(0).standard_normal(m)
        # real: H itself, positive definite for V >= 0, as survival_harmonic solves it
        got = spectral._resolvent(op, 0.0)(w)
        want = banded_resolvent(op, 0.0, w)
        assert got.dtype == float
        assert op.weighted_norm(got - want) <= 1e-12 * op.weighted_norm(want)
        # complex: the resolvent at the Born check's z, inside H's spectrum
        z = solve_ground_state(op).rho + 0.15j
        got = spectral._resolvent(op, z)(w)
        want = banded_resolvent(op, z, w)
        assert op.weighted_norm(got - want) <= 1e-12 * op.weighted_norm(want)


class TestSurvivalHarmonic:
    def test_free_case_constant(self):
        op = build_radial_operator(2, 30.0, 2000, zero_potential)
        h = survival_harmonic(op)
        assert np.max(np.abs(h - 1.0)) < 1e-9

    def test_trap_case_dips_near_trap(self):
        op = build_radial_operator(2, 30.0, 3000, trap_potential)
        h = survival_harmonic(op)
        assert np.all(h > 0)
        assert np.all(h <= 1.0 + 1e-12)
        assert h[0] < h[-1]  # survival lowest at the trap
        # residual of H h = 0 away from the boundary cell
        res = op.apply(h)
        assert np.max(np.abs(res[:-1])) < 1e-8

    @pytest.mark.parametrize("d,r_max,m,T", [(5, 30.0, 3000, 1.25), (2, 100.0, 10_000, 4.0)])
    def test_finite_horizon_semigroup(self, d, r_max, m, T):
        # Z_T - h = e^{-TH}(1 - h) = e^{-(T/2)H} e^{-(T/2)H}(1 - h); a full
        # eigensolve in the similarity form breaks it by about 2e-6 and 3e-7 here
        op = build_radial_operator(d, r_max, m, trap_potential)
        h = survival_harmonic(op)
        half = spectral.apply_semigroup(op, T / 2, 1.0 - h)
        twice = spectral.apply_semigroup(op, T / 2, half)
        assert np.max(np.abs(spectral.finite_horizon_survival(op, T) - h - twice)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_finite_horizon_matches_full_eigensolve(self, d):
        # scipy.linalg as the reference: e^{-TH} from every eigenpair of the
        # symmetric form, s^{-1} U e^{-T Lambda} U^t s with s = sqrt(weights)
        from scipy.linalg import eigh_tridiagonal

        op = build_radial_operator(d, 30.0, 3000, trap_potential)
        h = survival_harmonic(op)
        vals, vecs = eigh_tridiagonal(op.diag, op.offdiag)
        s = np.sqrt(op.weights)
        coeffs = vecs.T @ (s * (1.0 - h))
        for T in (1.25, 5.0, 20.0):
            want = h + (vecs @ (np.exp(-T * vals) * coeffs)) / s
            assert np.max(np.abs(spectral.finite_horizon_survival(op, T) - want)) <= 1e-12

    def test_finite_horizon_independent_of_blas_threads(self):
        # full-pipeline's oracle at the CLI defaults, in fresh interpreters with
        # 1 and 2 BLAS threads: its bytes must not depend on the thread count
        code = ("import hashlib; from hyptrap import cli, spectral;"
                "cfg = cli.resolve_config({});"
                "op = spectral.build_radial_operator(cfg['d'], cfg['r_max'], cfg['m_cells'],"
                " cli.trap_radial_potential(cfg));"
                "z = [spectral.finite_horizon_survival(op, T) for T in (5.0, 20.0)];"
                "print(hashlib.sha256(b''.join(x.tobytes() for x in z)).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1


def free_h3_radial_cdf(t, r):
    """P(d(o, B_t) <= r) for Brownian motion on H^3 with generator Lap / 2,
    whose radial density is 4 pi r sinh r (2 pi t)^{-3/2} e^{-t/2 - r^2/(2t)}:
    r sinh r e^{-r^2/(2t)} is (r/2)(e^{r} - e^{-r}) e^{-r^2/(2t)}, and each
    half is a shifted Gaussian moment, in closed form with erf."""
    from scipy.special import erf

    def primitive(s, sign):
        # e^{-t/2} int (s + sign t) e^{-s^2/(2t)} ds, s = r - sign t
        return -t * np.exp(-s * s / (2 * t)) + sign * t * np.sqrt(np.pi * t / 2) * erf(
            s / np.sqrt(2 * t))

    plus = primitive(r - t, 1.0) - primitive(-t, 1.0)
    minus = primitive(r + t, -1.0) - primitive(t, -1.0)
    return 2 * np.pi * (2 * np.pi * t) ** -1.5 * (plus - minus)


class TestQMarginalLaw:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_free_h3_closed_form(self, t):
        # with V = 0, h = 1 = Z_{T-t}: the law is the heat kernel's radial law,
        # whatever T, and equals its Doob limit.  Halving dr bounds the error:
        # if it falls at least linearly in dr, err(dr) <= 2 sup|F_dr - F_{dr/2}|
        # (Richardson); it falls about 3.5-fold per halving here
        laws, errors = [], []
        for m in (3000, 6000):
            op = build_radial_operator(3, 30.0, m, zero_potential)
            law, limit = spectral.q_marginal_law(op, t, t + 2.0)
            assert np.max(np.abs(law - limit)) <= 1e-12
            faces = op.dr * np.arange(m + 1)
            errors.append(np.max(np.abs(law - free_h3_radial_cdf(t, faces))))
            laws.append(law)
        assert errors[0] <= 2.0 * np.max(np.abs(laws[0] - laws[1][::2]))
        assert errors[1] < errors[0] / 2.0
        assert laws[0][0] == 0.0 and laws[0][-1] == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_mass_is_the_survival_and_the_limit_is_doob(self, d):
        # Chapman-Kolmogorov: the tilted law's mass, sum_r [e^{-tH} delta_o]
        # Z_{T-t} sinh^{d-1} dr, is Z_T(o); the normalized CDF is q_marginal_law's,
        # and it nears its Doob limit as T grows
        op = build_radial_operator(d, 30.0, 3000, trap_potential)
        t, T = 1.0, 5.0
        source = np.zeros(op.m)
        source[0] = 1.0 / (op.weights[0] * op.dr)
        density = (spectral.apply_semigroup(op, t, source)
                   * spectral.finite_horizon_survival(op, T - t) * op.weights * op.dr)
        assert abs(density.sum() - spectral.finite_horizon_survival(op, T)[0]) <= 1e-11
        law, limit = spectral.q_marginal_law(op, t, T)
        np.testing.assert_allclose(law[1:], np.cumsum(density) / density.sum(),
                                   rtol=0, atol=1e-14)
        far, far_limit = spectral.q_marginal_law(op, t, 20.0)
        assert np.max(np.abs(far_limit - limit)) <= 1e-14
        assert np.max(np.abs(far - far_limit)) < np.max(np.abs(law - limit)) / 10


class TestLogDerivativeInterpolant:
    def test_constant_phi_zero_drift(self):
        grid = np.linspace(0.1, 10.0, 50)
        drift = log_derivative_interpolant(grid, np.ones(50))
        assert np.allclose(drift(np.linspace(0.2, 9.0, 7)), 0.0, atol=1e-12)

    def test_exponential_phi(self):
        grid = np.linspace(0.1, 10.0, 400)
        drift = log_derivative_interpolant(grid, np.exp(-0.5 * grid))
        assert np.allclose(drift(np.array([1.0, 5.0])), -0.5, atol=1e-6)

    def test_out_of_range_raises(self):
        grid = np.linspace(0.1, 10.0, 50)
        drift = log_derivative_interpolant(grid, np.ones(50))
        with pytest.raises(ValueError):
            drift(np.array([11.0]))

    def test_nonpositive_phi_rejected(self):
        grid = np.linspace(0.1, 10.0, 50)
        with pytest.raises(ValueError):
            log_derivative_interpolant(grid, np.zeros(50))

