"""Geodesic random walk on H^d and the 1-D radial cross-check oracle."""

import numpy as np
import pytest
from scipy import stats

from conftest import radial_drift, radial_oracle_final, step_polar_reference
from hyptrap.diffusion import (
    ambient_from_polar,
    ensemble_walk,
    polar_from_ambient,
    step_polar,
)
from hyptrap import geometry
from hyptrap.cli import main
from hyptrap.geometry import origin
from hyptrap.ppp import FactorPotential, PotentialSpec, sample_configuration


def origin_state(n, d):
    r = np.zeros(n)
    u = np.zeros((n, d))
    u[:, 0] = 1.0
    return r, u


def mean_increment_speed(d, seed):
    """Mean and standard error of (r_T - r_T1) / (T - T1) from the origin.

    r_T / T -> (d-1)/2 almost surely, but r_T carries a constant offset
    (coth(r) > 1 along the early path, worth about +1.5) that biases r_T / T
    by O(1/T) at any h; the increment after T1 = 10 cancels it.
    """
    rng = np.random.default_rng(seed)
    T, T1, h, n = 50.0, 10.0, 1e-2, 1000
    k1 = int(round(T1 / h))
    r, u = origin_state(n, d)
    res = ensemble_walk(r, u, int(round(T / h)), h, rng, snapshot_steps=[k1])
    speed = (res.r - res.snapshots[k1][0]) / (T - T1)
    return speed.mean(), speed.std(ddof=1) / np.sqrt(n)


class TestPolarConversion:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0, 10, 40)
        u = rng.standard_normal((40, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r2, u2 = polar_from_ambient(ambient_from_polar(r, u))
        assert np.allclose(r2, r, atol=1e-9)
        assert np.allclose(u2, u, atol=1e-9)

    def test_origin(self):
        r, u = polar_from_ambient(origin(2).z[None, :])
        assert r[0] == 0.0
        assert np.allclose(u[0], [1.0, 0.0])


class TestBmStep:
    def test_step_cap(self):
        rng = np.random.default_rng(1)
        r, u = origin_state(1, 2)
        with pytest.raises(ValueError):
            ensemble_walk(r, u, 1, 0.5, rng)

    def test_small_time_displacement(self):
        # E[d(o, X_h)^2] = 2h + O(h^2) in d=2
        rng = np.random.default_rng(3)
        h, n = 0.01, 100_000
        r, u = origin_state(n, 2)
        r, u = step_polar(r, u, h, rng)
        sq = r**2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 2 * h) < 3 * se + 5 * h**2


class ZeroDraws:
    """A generator stub whose Gaussian draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def kernel_inputs(d, blocks, seed):
    """States at radii up to 30, with rows at the origin, and the seeds of
    two generators walked beside a stream of zero draws."""
    rng = np.random.default_rng(seed)
    N = 12 * blocks
    r = rng.uniform(0.0, 30.0, N)
    r[::6] = 0.0
    u = rng.standard_normal((N, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return r, u, (seed + 1, seed + 2)


def kernel_streams(seeds):
    g1, g2 = (np.random.default_rng(s) for s in seeds)
    return [(g1, 5), (ZeroDraws(), 3), (g2, 4)]


class TestStepKernel:
    """`step_polar` against the step written with numpy's row reductions."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("blocks", [1, 5])
    @pytest.mark.parametrize("drift", [None, lambda rr: 0.5 - rr])
    def test_matches_reference_bitwise(self, d, blocks, drift):
        r0, u0, seeds = kernel_inputs(d, blocks, 30 + d)
        got = want = (r0, u0)
        streams, ref_streams = kernel_streams(seeds), kernel_streams(seeds)
        for _ in range(3):
            got = step_polar(*got, 0.01, streams, drift_fn=drift, blocks=blocks)
            want = step_polar_reference(*want, 0.01, ref_streams, drift_fn=drift, blocks=blocks)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        if drift is None:
            # the zero draws leave the origin rows where they were
            still = np.isin(np.arange(len(r0)) % 12, [5, 6, 7]) & (r0 == 0.0)
            assert still.any() and np.all(got[0][still] == 0.0)

    @pytest.mark.parametrize("blocks", [1, 5])
    def test_eight_columns_within_ulp(self, blocks):
        # from 8 columns numpy sums a row pairwise, not left to right; a
        # direction's components are measured in ulps of its unit length,
        # since those near zero come out of a cancellation
        r0, u0, seeds = kernel_inputs(8, blocks, 40)
        got = step_polar(r0, u0, 0.01, kernel_streams(seeds), blocks=blocks)
        want = step_polar_reference(r0, u0, 0.01, kernel_streams(seeds), blocks=blocks)
        np.testing.assert_array_max_ulp(got[0], want[0], maxulp=4)
        assert np.max(np.abs(got[1] - want[1])) <= 4 * np.finfo(float).eps


class TestSimulatePath:
    def test_sheet_along_path(self):
        # the quadratic form itself rounds like eps * cosh(r)^2, so the
        # defect bound has to scale with the largest coordinate reached
        rng = np.random.default_rng(5)
        r0, u0 = polar_from_ambient(origin(2).z[None, :])
        m = 2000
        snaps = ensemble_walk(r0, u0, m, 0.01, rng, snapshot_steps=range(m + 1)).snapshots
        points = np.vstack([ambient_from_polar(*snaps[k][:2]) for k in range(m + 1)])
        scale = float(np.max(points[:, 0])) ** 2
        defect = np.max(np.abs(geometry.minkowski_dot(points, points) + 1.0))
        assert defect < 1e-12 * scale

    def test_radial_speed_d2(self):
        mean, se = mean_increment_speed(2, 6)
        assert abs(mean - 0.5) < 3 * se

    def test_radial_speed_d3(self):
        mean, se = mean_increment_speed(3, 7)
        assert abs(mean - 1.0) < 3 * se

    def test_direction_uniform(self):
        # hemisphere counts of the terminal direction are binomial(n, 1/2)
        rng = np.random.default_rng(8)
        n = 4000
        r, u = origin_state(n, 2)
        res = ensemble_walk(r, u, 500, 0.01, rng)
        for axis in range(2):
            k = np.sum(res.u[:, axis] > 0)
            assert abs(k - n / 2) < 3 * np.sqrt(n) / 2

    def test_step_halving_consistency(self):
        rng = np.random.default_rng(9)
        T, n = 10.0, 2000
        means = []
        errs = []
        for h in (0.02, 0.01):
            r, u = origin_state(n, 2)
            res = ensemble_walk(r, u, int(round(T / h)), h, rng)
            means.append(res.r.mean())
            errs.append(res.r.std(ddof=1) / np.sqrt(n))
        pooled = np.hypot(errs[0], errs[1])
        assert abs(means[0] - means[1]) < 3 * pooled

    def test_large_radius_stability(self):
        # polar state stays finite and accurate far beyond the ambient
        # cancellation radius (~18)
        rng = np.random.default_rng(10)
        r = np.full(100, 40.0)
        u = np.zeros((100, 2))
        u[:, 0] = 1.0
        res = ensemble_walk(r, u, 1000, 0.01, rng)
        assert np.all(np.isfinite(res.r))
        drift = (res.r.mean() - 40.0) / 10.0
        se = res.r.std(ddof=1) / np.sqrt(100) / 10.0
        assert abs(drift - 0.5) < 3 * se

    def test_drift_fn_applied(self):
        # strong inward drift confines the paths
        rng = np.random.default_rng(11)
        r, u = origin_state(500, 2)
        res = ensemble_walk(r, u, 2000, 0.01, rng,
                            drift_fn=lambda rr: 0.5 - 2.0 * rr)
        assert res.r.mean() < 2.0


def reference_potential(spec, config):
    """The capped profile sum over the traps with r_y < max(r) + r0, on 2-D arrays."""
    ry, uy = polar_from_ambient(config.points)
    order = np.argsort(ry, kind="stable")
    ry, uy = ry[order], uy[order]

    def V(r, u):
        keep = ry < np.max(r) + spec.support_radius
        half_chord = 0.5 * np.sum((u[:, None, :] - uy[keep][None, :, :]) ** 2, axis=-1)
        coshd = (np.cosh(r[:, None] - ry[keep][None, :])
                 + np.sinh(r[:, None]) * np.sinh(ry[keep][None, :]) * half_chord)
        dist = np.arccosh(np.maximum(1.0, coshd))
        return np.minimum(spec.v_max, spec.profile(dist).sum(axis=1))

    return V


class TestPathSample:
    def test_csv_columns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 2\nT = 1\nh = 0.01\nn_paths = 2\nseed = 14\ndump_paths = 1\n")
        assert main(["simulate-bm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "path_000.csv"
        header = out.read_text().splitlines()[0]
        assert header == "t,z_0,z_1,z_2,r"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (101, 5)


class TestEnsembleWalk:
    def test_single_block_is_reference_walk(self):
        # one block: the plain step-and-trapezoid loop, bit for bit
        spec = PotentialSpec(1.0, 1.0, 10.0)  # uncapped: every near trap counts
        config = sample_configuration(2, 8.0, 0.3, np.random.default_rng(20))
        h, n_steps = 0.01, 60
        r0 = np.random.default_rng(21).uniform(0.0, 3.0, 50)
        u0 = np.tile([0.6, 0.8], (50, 1))
        res = ensemble_walk(r0, u0, n_steps, h, np.random.default_rng(22),
                            potential=FactorPotential(spec, config), snapshot_steps=[0, 30])
        V = reference_potential(spec, config)
        rng = np.random.default_rng(22)
        r, u = r0, u0
        integrals = np.zeros(50)
        v_prev = V(r, u)
        for k in range(1, n_steps + 1):
            r, u = step_polar_reference(r, u, h, rng)
            v_cur = V(r, u)
            integrals += 0.5 * h * (v_prev + v_cur)
            v_prev = v_cur
            if k == 30:
                snap = (r, u, integrals.copy())
        assert np.array_equal(res.r, r) and np.array_equal(res.u, u)
        assert np.array_equal(res.integrals, integrals)
        assert all(np.array_equal(a, b) for a, b in zip(res.snapshots[30], snap))
        assert all(np.array_equal(a, b) for a, b in zip(res.snapshots[0], (r0, u0, 0 * r0)))
        # with a drift and no potential
        drift = lambda rr: 0.5 - rr  # noqa: E731
        res = ensemble_walk(r0, u0, 20, h, np.random.default_rng(23), drift_fn=drift)
        rng = np.random.default_rng(23)
        r, u = r0, u0
        for _ in range(20):
            r, u = step_polar_reference(r, u, h, rng, drift_fn=drift)
        assert np.array_equal(res.r, r) and np.array_equal(res.u, u)
        assert np.array_equal(res.integrals, np.zeros(50))


class TestRadialOracle:
    def test_drift_asymptote(self):
        assert abs(radial_drift(2, 10.0) - 0.5) < 1e-6
        assert abs(radial_drift(3, 10.0) - 1.0) < 1e-6

    def test_short_time_stays_near_start(self):
        rng = np.random.default_rng(12)
        r = radial_oracle_final(2, 5.0, 0.1, 1e-3, 100, rng)
        assert np.all(np.abs(r - 5.0) < 2.0)

    def test_matches_full_sampler(self):
        # two-sample KS between the 1-D SDE radii and the walk's d(o, X_T);
        # started at r0=1 because the oracle's reflection at r=h hands every
        # origin-started path a drift kick h*coth(h)/2 ~ 1/2 on step one,
        # visibly biasing the transient at any h
        rng = np.random.default_rng(13)
        T, h, n = 5.0, 1e-3, 10_000
        r0 = np.full(n, 1.0)
        u0 = np.zeros((n, 2))
        u0[:, 0] = 1.0
        res = ensemble_walk(r0, u0, int(T / h), h, rng)
        oracle = radial_oracle_final(2, 1.0, T, h, n, rng)
        _, p = stats.ks_2samp(res.r, oracle)
        assert p > 0.01

