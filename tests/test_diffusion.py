"""Geodesic random walk on H^d and the 1-D radial cross-check oracle."""

import numpy as np
import pytest
from scipy import stats

from conftest import minkowski_dot, radial_drift, radial_oracle_final, step_polar_reference
from hyptrap import diffusion
from hyptrap.diffusion import (
    DRAW_BUFFER,
    ambient_from_polar,
    ensemble_walk,
    on_axis,
    polar_from_ambient,
    step_polar,
)
from hyptrap.cli import main
from hyptrap.ppp import Configuration, FactorPotential, PotentialSpec, sample_configuration


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
        r, u = polar_from_ambient(np.array([[1.0, 0.0, 0.0]]))
        assert r[0] == 0.0
        assert np.allclose(u[0], [1.0, 0.0])

    def test_on_axis_is_exact(self):
        # o, and a point at |p| on e_1 or, for p < 0, on -e_1: no rounding
        r, u = on_axis(3, [0.0, 0.5, 1.0, -1.0, -0.0])
        assert np.array_equal(r, [0.0, 0.5, 1.0, 1.0, 0.0])
        assert np.array_equal(u, [[1, 0, 0], [1, 0, 0], [1, 0, 0], [-1, 0, 0], [1, 0, 0]])
        r, u = on_axis(2, [])
        assert r.shape == (0,) and u.shape == (0, 2)


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
        r = ensemble_walk(r, u, 1, h, rng).r
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


def column_draw(streams, d, h):
    """One step's scaled (d, n) draw for `step_polar`, read from the streams
    as `step_polar_reference` reads them."""
    xi = np.concatenate([g.standard_normal((n, d)) for g, n in streams]) * np.sqrt(h)
    return np.ascontiguousarray(xi.T)


def drifted_draw(xi, r, U, h, drift):
    """The per-path (d, N) draw of a step with a radial drift: the shared
    (d, n) draw of every block plus h drift(r) u, as `step_polar_reference`
    forms it for the tests' Doob walk."""
    return np.tile(xi, U.shape[1] // xi.shape[1]) + (h * drift(r)) * U


class TestStepKernel:
    """`step_polar` against the step written with numpy's row reductions,
    both fed the same draws.  With a drift, every path has its own draw, and
    the reference's drift step, which the tests' Doob walk takes, is bitwise
    the kernel's step on that draw."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("blocks", [1, 5])
    @pytest.mark.parametrize("drift", [None, lambda rr: 0.5 - rr])
    def test_matches_reference_bitwise(self, d, blocks, drift):
        r0, u0, seeds = kernel_inputs(d, blocks, 30 + d)
        r, U = r0, np.ascontiguousarray(u0.T)
        want = (r0, u0)
        streams, ref_streams = kernel_streams(seeds), kernel_streams(seeds)
        for _ in range(3):
            xi = column_draw(streams, d, 0.01)
            if drift is not None:
                xi = drifted_draw(xi, r, U, 0.01, drift)
            r, U = step_polar(r, U, 0.01, xi)
            want = step_polar_reference(*want, 0.01, ref_streams, drift_fn=drift, blocks=blocks)
            assert np.array_equal(r, want[0]) and np.array_equal(U.T, want[1])
        if drift is None:
            # the zero draws leave the origin rows where they were
            still = np.isin(np.arange(len(r0)) % 12, [5, 6, 7]) & (r0 == 0.0)
            assert still.any() and np.all(r[still] == 0.0)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("blocks", [1, 5])
    @pytest.mark.parametrize("drift", [None, lambda rr: 0.5 - rr])
    def test_chunk_geometry_and_held_rows_are_bitwise(self, d, blocks, drift):
        # three steps on one chunk's draws and geometry, each written into its
        # row of held (3, N) and (d, 3, N) buffers as the walk does, equal the
        # plain calls bit for bit; the zero draws hit both 1e-300 guards.  A
        # drifted draw differs per path, so the step computes its geometry
        r0, u0, seeds = kernel_inputs(d, blocks, 50 + d)
        xi, sinc, cosh_n = diffusion._column_draws(kernel_streams(seeds), 3, d, 0.01)
        r_held, U_held = np.empty((3, len(r0))), np.empty((d, 3, len(r0)))
        r, U = r0, np.ascontiguousarray(u0.T)
        want = r, U
        for j in range(3):
            out = (r_held[j], U_held[:, j])
            draw, geometry = xi[j], (sinc[j], cosh_n[j])
            if drift is not None:
                draw, geometry = drifted_draw(draw, r, U, 0.01, drift), None
            r, U = step_polar(r, U, 0.01, draw, geometry=geometry, out=out)
            assert r is out[0] and U is out[1]
            want = step_polar(*want, 0.01, draw)
            assert np.array_equal(r, want[0]) and np.array_equal(U, want[1])

    @pytest.mark.parametrize("blocks", [1, 5])
    def test_eight_columns_within_ulp(self, blocks):
        # from 8 columns numpy sums a row pairwise, not left to right; a
        # direction's components are measured in ulps of its unit length,
        # since those near zero come out of a cancellation
        r0, u0, seeds = kernel_inputs(8, blocks, 40)
        r, U = step_polar(r0, np.ascontiguousarray(u0.T), 0.01,
                          column_draw(kernel_streams(seeds), 8, 0.01))
        want = step_polar_reference(r0, u0, 0.01, kernel_streams(seeds), blocks=blocks)
        np.testing.assert_array_max_ulp(r, want[0], maxulp=4)
        assert np.max(np.abs(U.T - want[1])) <= 4 * np.finfo(float).eps


class TestDrawAccounting:
    """`ensemble_walk` draws several steps per generator call; the walk and
    the generators' next draws are those of per-step draws."""

    @pytest.mark.parametrize("streams", [1, 16])
    def test_generators_end_where_per_step_draws_leave_them(self, streams):
        d, blocks = 2, (1 if streams == 1 else 3)
        n = 100 if streams == 1 else 40
        sizes = [n // streams + (i < n % streams) for i in range(streams)]
        m = DRAW_BUFFER // (n * d)
        assert m > 1
        r0, u0 = on_axis(d, np.repeat(np.linspace(0.0, 3.0, blocks), n))
        for n_steps in (0, 1, m - 1, m, m + 1, 2 * m + 3):
            walked = [np.random.default_rng(60 + i) for i in range(streams)]
            stepped = [np.random.default_rng(60 + i) for i in range(streams)]
            rng = walked[0] if streams == 1 else list(zip(walked, sizes))
            res = ensemble_walk(r0, u0, n_steps, 0.01, rng, blocks=blocks)
            r, u = r0, u0
            for _ in range(n_steps):
                r, u = step_polar_reference(r, u, 0.01, list(zip(stepped, sizes)),
                                            blocks=blocks)
            assert np.array_equal(res.r, r) and np.array_equal(res.u, u)
            assert res.u.flags.c_contiguous
            assert [g.standard_normal() for g in walked] == [g.standard_normal() for g in stepped]


class TestSimulatePath:
    def test_sheet_along_path(self):
        # the quadratic form itself rounds like eps * cosh(r)^2, so the
        # defect bound has to scale with the largest coordinate reached
        rng = np.random.default_rng(5)
        m = 2000
        snaps = ensemble_walk(*on_axis(2, [0.0]), m, 0.01, rng, snapshot_steps=range(m + 1)).snapshots
        points = np.vstack([ambient_from_polar(*snaps[k][:2]) for k in range(m + 1)])
        scale = float(np.max(points[:, 0])) ** 2
        defect = np.max(np.abs(minkowski_dot(points, points) + 1.0))
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


def reference_potential(spec, config):
    """The capped profile sum over the traps with r_y < max(r) + r0, on 2-D arrays."""
    ry, uy = config.radii, config.directions
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

    def test_held_steps_per_potential_call_are_bitwise(self, monkeypatch):
        # one potential call per step (DRAW_BUFFER 1), for all 150 steps (the
        # default holds 273), per 136 steps and per 4 steps, neither of which
        # divides the 150 steps, give the same walk, integrals and snapshots
        # bit for bit: at step 0, at chunk edges (4, 136) and inside chunks
        # (50); three streams, two blocks, a sampled scene and a trap planted
        # at o
        d, n_steps, h = 2, 150, 0.01
        scene = sample_configuration(d, 7.0, 0.1, np.random.default_rng(24))
        planted_r, planted_u = on_axis(d, [0.0])
        config = Configuration(np.concatenate([scene.radii, planted_r]),
                               np.vstack([scene.directions, planted_u]), 7.0, 0.1)
        pot = FactorPotential(PotentialSpec(1.0, 1.0, 10.0), config)
        r0, u0 = on_axis(d, np.repeat([0.0, 1.5], 30))
        snaps = [0, 4, 50, 136, n_steps]

        def walks(buffer):
            monkeypatch.setattr(diffusion, "DRAW_BUFFER", buffer)
            calls = []

            def counting(r, u):
                calls.append(len(r))
                return FactorPotential.evaluate_polar(pot, r, u)

            monkeypatch.setattr(pot, "evaluate_polar", counting)
            streams = lambda seed: [(np.random.default_rng(seed + i), 10)  # noqa: E731
                                    for i in range(3)]
            held = ensemble_walk(r0, u0, n_steps, h, streams(25), potential=pot,
                                 snapshot_steps=snaps, blocks=2)
            return len(calls), held

        # the depth is DRAW_BUFFER // N held steps of the N = 60 paths
        assert DRAW_BUFFER // 60 == 273
        runs = [walks(1), walks(DRAW_BUFFER), walks(136 * 60), walks(4 * 60)]
        assert [calls for calls, _ in runs] == [1 + n_steps, 1 + 1, 1 + 2, 1 + 38]
        _, want = runs[0]
        assert np.any(want.integrals > 0.0)
        for _, got in runs[1:]:
            assert np.array_equal(got.r, want.r) and np.array_equal(got.u, want.u)
            assert np.array_equal(got.integrals, want.integrals)
            assert sorted(got.snapshots) == snaps
            for k in snaps:
                assert all(np.array_equal(x, y)
                           for x, y in zip(got.snapshots[k], want.snapshots[k]))


    @pytest.mark.parametrize("blocks", [1, 2])
    def test_depth_one_keeps_the_rows_it_reads(self, monkeypatch, blocks):
        # at depth 1 (DRAW_BUFFER 1) the held row is the one each step reads;
        # zero draws leave the paths at o at r = 0 with their own directions,
        # which a step written over the row it reads would lose to 0 / 0
        monkeypatch.setattr(diffusion, "DRAW_BUFFER", 1)
        r0, u0, seeds = kernel_inputs(3, blocks, 70)
        res = ensemble_walk(r0, u0, 4, 0.01, kernel_streams(seeds), snapshot_steps=[2],
                            blocks=blocks)
        r, u, streams = r0, u0, kernel_streams(seeds)
        for k in range(1, 5):
            r, u = step_polar_reference(r, u, 0.01, streams, blocks=blocks)
            if k == 2:
                assert np.array_equal(res.snapshots[2][0], r)
                assert np.array_equal(res.snapshots[2][1], u)
        assert np.array_equal(res.r, r) and np.array_equal(res.u, u)
        still = np.isin(np.arange(len(r0)) % 12, [5, 6, 7]) & (r0 == 0.0)
        assert still.any() and np.all(res.r[still] == 0.0)
        # each step renormalises the direction, which may move its last bit
        assert np.max(np.abs(res.u[still] - u0[still])) <= 4 * np.finfo(float).eps


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

