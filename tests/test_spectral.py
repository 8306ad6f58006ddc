"""Radial Schroedinger oracle: eigensolver, Born series, contour projector."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyptrap import spectral
from hyptrap.ppp import PotentialSpec
from hyptrap.spectral import (
    BornDivergenceError,
    ContourError,
    born_resolvent_apply,
    build_radial_operator,
    contour_projector,
    direct_resolvent_solve,
    eigenpair_to_csv,
    log_derivative_interpolant,
    solve_ground_state,
    survival_harmonic,
)


def zero_potential(r):
    return np.zeros_like(r)


def trap_potential(r, v_max=0.1, a=1.0, r0=1.0):
    q = 1.0 - (np.asarray(r) / r0) ** 2
    return np.minimum(v_max, a * np.where(np.asarray(r) < r0, q * q, 0.0))


class TestBuildRadialOperator:
    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            build_radial_operator(2, 30.0, 10, zero_potential)
        with pytest.raises(ValueError):
            build_radial_operator(2, 2.0, 100, zero_potential)

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

        a0, eps = 0.05, 1e-5
        s = solve_ground_state(op_for(a0))
        dv = trap_potential(s.grid, v_max=np.inf, a=1.0)
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
        direct = direct_resolvent_solve(free, self.z, self.w)
        assert np.allclose(born, direct, atol=1e-14)

    def test_matches_direct_solve(self):
        born, tail = born_resolvent_apply(self.op, self.z, self.w, 60)
        direct = direct_resolvent_solve(self.op, self.z, self.w)
        diff = born - direct
        rel = np.sqrt(self.op.weighted_dot(diff, diff)
                      / self.op.weighted_dot(direct, direct))
        assert rel < 1e-8
        assert np.isfinite(tail)

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
        vec, rayleigh = contour_projector(
            self.op, self.spec.rho, self.spec.gap / 2.0, n_quad=64)
        diff = vec - self.spec.phi
        assert np.sqrt(self.op.weighted_dot(diff, diff)) < 1e-8
        assert abs(rayleigh - self.spec.rho) < 1e-10

    def test_idempotent(self):
        center, radius = self.spec.rho, self.spec.gap / 2.0
        once = spectral.apply_projector(self.op, center, radius, np.ones(self.op.m))
        twice = spectral.apply_projector(self.op, center, radius, once)
        scale = np.max(np.abs(once))
        assert np.max(np.abs(twice - once)) < 1e-10 * scale

    def test_bad_contour_rejected(self):
        with pytest.raises(ContourError):
            contour_projector(self.op, self.spec.rho, 10.0 * self.spec.gap)
        with pytest.raises(ContourError):
            contour_projector(self.op, self.spec.rho + 5.0, self.spec.gap / 2.0)

    def test_free_projector_recovers_eigenvector(self):
        op = build_radial_operator(2, 30.0, 1000, zero_potential)
        spec = solve_ground_state(op)
        vec, rayleigh = contour_projector(op, spec.rho, spec.gap / 2.0)
        diff = vec - spec.phi
        assert np.sqrt(op.weighted_dot(diff, diff)) < 1e-8


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


class TestEigenpairCsv:
    def test_roundtrip(self, tmp_path):
        op = build_radial_operator(2, 30.0, 500, trap_potential)
        s = solve_ground_state(op)
        path = tmp_path / "eigenpair.csv"
        eigenpair_to_csv(s, path)
        header, columns, *rows = path.read_text().splitlines()
        meta = dict(kv.split("=") for kv in header.lstrip("# ").split())
        assert meta == {"rho": repr(s.rho), "gap": repr(s.gap), "R_max": "30.0",
                        "M": "500", "d": "2"}
        assert columns == "r,phi"
        grid, phi = np.loadtxt(rows, delimiter=",").T
        assert np.array_equal(grid, s.grid)
        assert np.array_equal(phi, s.phi)
