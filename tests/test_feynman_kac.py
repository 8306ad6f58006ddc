"""Tilted-measure estimators: Z_T, decay rate, ratios, Q-marginals, Doob."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import ConstantPotential, distance
from hyptrap import diffusion, feynman_kac, stats
from hyptrap.feynman_kac import (
    canonical_axis_point,
    doob_final_radii,
    estimate_Z,
    estimate_phi_ratio,
    estimate_rho,
    q_marginal,
    simulate_tilted_ensemble,
)
from hyptrap.geometry import HPoint, origin
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialField,
    PotentialSpec,
    sample_configuration,
)

SPEC = PotentialSpec(1.0, 1.0, 0.1)


def planted_trap(d=2, window=60.0):
    pts = origin(d).z[None, :]
    return FactorPotential(SPEC, Configuration(pts, window, 0.0, d))


class TestEstimateZ:
    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            estimate_Z(origin(2), ConstantPotential(0.0), 1.0, 0.01, 1, 0)

    def test_zero_potential_unit_z(self):
        est = estimate_Z(origin(2), ConstantPotential(0.0), 1.0, 0.01, 64, 0)
        assert est.z_hat == 1.0
        assert est.stderr == 0.0

    def test_constant_potential_exact(self):
        c, T = 0.25, 2.0
        est = estimate_Z(origin(2), ConstantPotential(c), T, 0.01, 64, 0)
        assert abs(est.z_hat - np.exp(-c * T)) < 1e-12
        assert est.stderr < 1e-14

    def test_weight_bounds(self):
        pot = planted_trap()
        est = estimate_Z(origin(2), pot, 5.0, 0.01, 500, 1)
        lw = est.ensemble.log_weights
        assert np.all(lw <= 1e-12)
        assert np.all(lw >= -5.0 * SPEC.v_max - 1e-12)
        # Kantorovich: weights within a factor k of each other keep the ESS at
        # least 4k/(1+k)^2 of the paths
        k = np.exp(5.0 * SPEC.v_max)
        assert 500 * 4 * k / (1 + k) ** 2 <= est.ensemble.ess <= 500.0

    def test_monotone_in_amplitude(self):
        # common random numbers: raising the amplitude decreases every weight
        d = 2
        config = Configuration(origin(d).z[None, :], 60.0, 0.0, d)
        small = FactorPotential(PotentialSpec(0.5, 1.0, 10.0), config)
        large = FactorPotential(PotentialSpec(1.0, 1.0, 10.0), config)
        e1 = estimate_Z(origin(d), small, 5.0, 0.01, 300, 2)
        e2 = estimate_Z(origin(d), large, 5.0, 0.01, 300, 2)
        assert np.all(e2.ensemble.log_weights <= e1.ensemble.log_weights + 1e-12)
        assert e2.z_hat <= e1.z_hat

    def test_worker_count_irrelevant(self):
        pot = planted_trap()
        e1 = estimate_Z(origin(2), pot, 2.0, 0.01, 256, 3, workers=1)
        e2 = estimate_Z(origin(2), pot, 2.0, 0.01, 256, 3, workers=4)
        assert np.array_equal(e1.ensemble.log_weights, e2.ensemble.log_weights)
        assert e1.z_hat == e2.z_hat


def walk_o(potential, T_grid, N, seed, extra_snapshots=()):
    """The ensemble from o to max(T_grid), h = 0.01, with snapshots at
    T_grid and extra_snapshots."""
    return simulate_tilted_ensemble(origin(2), potential, max(T_grid), 0.01, N, seed,
                                    snapshot_times=list(T_grid) + list(extra_snapshots))


class TestEstimateRho:
    def test_needs_three_horizons(self):
        ens = walk_o(ConstantPotential(0.1), [1.0, 2.0], 64, 0)
        with pytest.raises(ValueError):
            estimate_rho(ens, [1.0, 2.0])

    def test_constant_potential(self):
        c = 0.2
        est = estimate_rho(walk_o(ConstantPotential(c), [2.0, 4.0, 8.0], 64, 0),
                           [2.0, 4.0, 8.0])
        assert abs(est.rho_hat - c) < 1e-12
        assert not est.diagnostics["flagged"]

    def test_free_motion_zero_rate(self):
        est = estimate_rho(walk_o(ConstantPotential(0.0), [2.0, 4.0, 8.0], 64, 0),
                           [2.0, 4.0, 8.0])
        assert abs(est.rho_hat) < 1e-14

    def test_midrange_shift_exact(self):
        # V and V - c with common random numbers: slopes differ by exactly c
        class ShiftedPotential(PotentialField):
            def __init__(self, base, c):
                self.base, self.c, self.v_max = base, c, base.v_max

            def evaluate_polar(self, r, u):
                return self.base.evaluate_polar(r, u) - self.c

        pot = planted_trap()
        c = 0.05
        e1 = estimate_rho(walk_o(pot, [2.0, 4.0, 8.0], 400, 6), [2.0, 4.0, 8.0])
        e2 = estimate_rho(walk_o(ShiftedPotential(pot, c), [2.0, 4.0, 8.0], 400, 6),
                          [2.0, 4.0, 8.0])
        assert abs(e1.rho_hat - e2.rho_hat - c) < 1e-10

    def test_diagnostics_recorded(self):
        pot = planted_trap()
        est = estimate_rho(walk_o(pot, [2.0, 4.0, 8.0], 400, 7), [2.0, 4.0, 8.0])
        assert len(est.diagnostics["window_slopes"]) == 2
        assert est.rho_stderr >= 0.0
        # the recorded per-horizon sigmas are the weights of the slope fit
        diag = est.diagnostics
        refit = feynman_kac._wls_slope(np.asarray(diag["T_grid"]),
                                       -np.asarray(diag["log_z"]),
                                       np.asarray(diag["sigmas"]))
        assert refit == est.rho_hat


def walk_probes(probes, potential, T, h, N, seed):
    """The ensemble from o and the (distance, ensemble) pair of each probe,
    walked as one fused ensemble; a probe at o reads the ensemble from o."""
    o = origin(probes[0].d)
    radii = [distance(o, probe) for probe in probes]
    base, *moved = simulate_tilted_ensemble(
        [o] + [probe for probe, r in zip(probes, radii) if r > 0.0], potential, T, h, N, seed)
    moved = iter(moved)
    return base, [(r, next(moved) if r > 0.0 else base) for r in radii]


def separate_walks_table(probes, potential, T, h, N, seed):
    """Reference: the table read from one estimate_Z walk from o and one from
    each probe."""
    o = origin(probes[0].d)
    base = estimate_Z(o, potential, T, h, N, seed).ensemble
    return estimate_phi_ratio(base, [(distance(o, probe),
                                      estimate_Z(probe, potential, T, h, N, seed).ensemble)
                                     for probe in probes])


class TestEstimatePhiRatio:
    def test_fused_walk_equals_separate_walks(self):
        d = 2
        probes = [canonical_axis_point(d, r) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        fused = estimate_phi_ratio(*walk_probes(probes, planted_trap(d), 1.0, 0.01, 64, 10))
        assert fused == separate_walks_table(probes, planted_trap(d), 1.0, 0.01, 64, 10)
        assert fused[0] == (0.0, 1.0, 0.0)
        # a sampled kappa 0.05 scene, probes off the e_1 axis; the uncapped
        # profile makes every trap near a path count in the sums
        scene = sample_configuration(d, 10.0, 0.05, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        off_axis = []
        for r in (0.7, 1.5, 0.0, 3.0):
            rot = np.eye(d + 1)
            rot[1:, 1:], _ = np.linalg.qr(rng.standard_normal((d, d)))
            off_axis.append(HPoint(rot @ canonical_axis_point(d, r).z))
        for spec in (SPEC, PotentialSpec(1.0, 1.0, 10.0)):
            pot = FactorPotential(spec, scene)
            fused = estimate_phi_ratio(*walk_probes(off_axis, pot, 1.0, 0.01, 100, 3))
            assert fused == separate_walks_table(off_axis, pot, 1.0, 0.01, 100, 3)

    def test_constant_potential_unit_ratios(self):
        d = 2
        config = Configuration(np.empty((0, d + 1)), 60.0, 0.0, d)
        spec = PotentialSpec(1.0, 1.0, 0.0)  # capped at zero: V = 0
        probes = [canonical_axis_point(d, r) for r in (0.5, 1.0)]
        table = estimate_phi_ratio(*walk_probes(probes, FactorPotential(spec, config),
                                                2.0, 0.01, 64, 0))
        for _, ratio, _ in table:
            assert abs(ratio - 1.0) < 1e-12

    def test_positive_ratios(self):
        d = 2
        probes = [canonical_axis_point(d, r) for r in (0.5, 1.0, 2.0)]
        table = estimate_phi_ratio(*walk_probes(probes, planted_trap(d), 5.0, 0.01, 300, 10))
        for _, ratio, _ in table:
            assert ratio > 0


class TestQMarginal:
    def test_marginal_time_must_precede_horizons(self):
        ens = walk_o(ConstantPotential(0.1), [2.0, 4.0], 64, 0)
        with pytest.raises(ValueError):
            q_marginal(ens, 5.0, [2.0, 4.0])

    def test_constant_weights_match_free_bm(self):
        # constant V: weights cancel, the marginal is the free BM marginal
        c, t = 0.3, 1.0
        qm = q_marginal(walk_o(ConstantPotential(c), [4.0, 8.0], 4000, 11, [t]),
                        t, [4.0, 8.0])
        rng = np.random.default_rng(99)
        r0 = np.zeros(4000)
        u0 = np.tile([1.0, 0.0], (4000, 1))
        free = diffusion.ensemble_walk(r0, u0, 100, 0.01, rng)
        _, p = stats.weighted_ks_2samp(qm.radii, qm.weights_by_T[8.0],
                                       free.r, np.ones(4000))
        assert p > 0.01
        # and the per-horizon weights are exactly uniform
        assert np.allclose(qm.weights_by_T[4.0], 1.0 / 4000, atol=1e-15)

    def test_mass_shifts_away_from_trap(self):
        pot = planted_trap()
        t = 1.0
        qm = q_marginal(walk_o(pot, [10.0, 20.0], 4000, 12, [t]), t, [10.0, 20.0])
        w = qm.weights_by_T[20.0]
        tilted_mean = float(np.sum(w * qm.radii))
        free_mean = float(np.mean(qm.radii))
        # weighting by survival pushes mass outward; crude 3-sigma floor
        se = float(np.std(qm.radii) / np.sqrt(stats.effective_sample_size(w)))
        assert tilted_mean > free_mean - 3 * se
        assert tilted_mean > free_mean * 0.99

    def test_stabilization_diagnostic(self):
        pot = planted_trap()
        qm = q_marginal(walk_o(pot, [10.0, 20.0, 40.0], 2000, 13, [1.0]),
                        1.0, [10.0, 20.0, 40.0])
        assert len(qm.sup_distances) == 2
        assert qm.sup_distances[-1] < 4.0 / np.sqrt(2000)

    def test_weights_normalized(self):
        pot = planted_trap()
        qm = q_marginal(walk_o(pot, [4.0, 8.0], 500, 14, [0.5]), 0.5, [4.0, 8.0])
        for w in qm.weights_by_T.values():
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(np.isfinite(w))


class TestLogSpaceWeights:
    """exp(-T V) underflows once T V passes about 745; the readers work with
    max-shifted log-weights and stay finite."""

    def test_rho_of_a_deep_constant_potential(self):
        est = estimate_rho(walk_o(ConstantPotential(400.0), [1.0, 2.0, 3.0], 64, 0),
                           [1.0, 2.0, 3.0])
        assert abs(est.rho_hat - 400.0) < 1e-9
        assert np.all(np.isfinite(est.diagnostics["log_z"]))
        assert est.diagnostics["log_z"][-1] == pytest.approx(-1200.0, rel=1e-12)

    def test_unit_ratios_of_a_deep_constant_potential(self):
        probes = [canonical_axis_point(2, r) for r in (0.0, 0.5, 1.0)]
        table = estimate_phi_ratio(*walk_probes(probes, ConstantPotential(800.0),
                                                1.0, 0.01, 64, 0))
        for _, ratio, _ in table:
            assert abs(ratio - 1.0) < 1e-12

    def test_q_marginal_weights_of_a_deep_constant_potential(self):
        qm = q_marginal(walk_o(ConstantPotential(400.0), [2.0, 4.0], 64, 0, [1.0]),
                        1.0, [2.0, 4.0])
        for w in qm.weights_by_T.values():
            assert np.all(np.isfinite(w))
            assert abs(w.sum() - 1.0) < 1e-12
        assert qm.sup_distances == [0.0]

    def test_ess_of_underflowed_weights(self):
        est = estimate_Z(origin(2), ConstantPotential(800.0), 1.0, 0.01, 64, 0)
        assert est.z_hat == 0.0  # exp(-800) itself underflows
        assert est.ensemble.ess == pytest.approx(64.0, rel=1e-12)

    def test_agrees_with_linear_weights_where_none_underflow(self):
        # the planted trap keeps T V <= 0.8: the shifted readers move only
        # the last bits of the plain exp(-int V) formulas
        pot = planted_trap()
        T_grid = [2.0, 4.0, 8.0]
        ens = walk_o(pot, T_grid, 400, 7, [1.0])
        est = estimate_rho(ens, T_grid)
        for t, lz, sig in zip(T_grid, est.diagnostics["log_z"], est.diagnostics["sigmas"]):
            w = np.exp(-ens.snapshot(t)[2])
            assert lz == pytest.approx(np.log(np.mean(w)), rel=1e-12)
            assert sig == pytest.approx(np.std(w, ddof=1) / np.sqrt(len(w)) / np.mean(w),
                                        rel=1e-12)
        qm = q_marginal(ens, 1.0, T_grid)
        for t in T_grid:
            w = np.exp(-ens.snapshot(t)[2])
            np.testing.assert_allclose(qm.weights_by_T[t], w / w.sum(), rtol=1e-12)
        assert ens.ess == pytest.approx(stats.effective_sample_size(ens.weights), rel=1e-12)
        probes = [canonical_axis_point(2, r) for r in (0.5, 2.0)]
        base, moved = walk_probes(probes, pot, 2.0, 0.01, 400, 7)
        chunks0 = np.array([np.mean(base.weights[s]) for s in base.chunk_slices])
        for (r, ens), (_, ratio, se) in zip(moved, estimate_phi_ratio(base, moved)):
            chunks = np.array([np.mean(ens.weights[s]) for s in ens.chunk_slices])
            n_c = len(chunks)
            jack = np.array([np.mean(np.delete(chunks, c)) / np.mean(np.delete(chunks0, c))
                             for c in range(n_c)])
            assert ratio == pytest.approx(np.mean(ens.weights) / np.mean(base.weights),
                                          rel=1e-12)
            assert se == pytest.approx(
                np.sqrt((n_c - 1) / n_c * np.sum((jack - jack.mean()) ** 2)), rel=1e-12)


class TestDoobSimulate:
    def test_trivial_eigenfunction_is_free_bm(self):
        grid = np.linspace(0.005, 50.0, 2000)
        phi = np.ones_like(grid)
        radii = doob_final_radii(origin(2), grid, phi, 2.0, 0.01, 400, 15)
        rng2 = np.random.default_rng(16)
        r0 = np.zeros(4000)
        u0 = np.tile([1.0, 0.0], (4000, 1))
        free = diffusion.ensemble_walk(r0, u0, 200, 0.01, rng2)
        _, p = ks_2samp(radii, free.r)
        assert p > 0.01

    def test_decaying_eigenfunction_confines(self):
        # phi = e^{-r}: inward drift -1 versus outward 1/2, radii stay small
        grid = np.linspace(0.005, 50.0, 2000)
        phi = np.exp(-grid)
        radii = doob_final_radii(origin(2), grid, phi, 20.0, 0.01, 500, 17)
        assert radii.mean() < 3.0

    def test_final_radii_deterministic(self):
        grid = np.linspace(0.005, 50.0, 500)
        phi = np.ones_like(grid)
        r1 = doob_final_radii(origin(2), grid, phi, 1.0, 0.01, 100, 18, workers=1)
        r2 = doob_final_radii(origin(2), grid, phi, 1.0, 0.01, 100, 18, workers=3)
        assert np.array_equal(r1, r2)


class TestEnsembleInfrastructure:
    def test_snapshot_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_tilted_ensemble(origin(2), ConstantPotential(0.0), 1.0, 0.01,
                                     64, 0, snapshot_times=[0.5015])

    def test_horizon_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_tilted_ensemble(origin(2), ConstantPotential(0.0), 1.005,
                                     0.01, 64, 0)

    def test_chunk_slices_cover(self):
        ens = simulate_tilted_ensemble(origin(2), ConstantPotential(0.0), 0.5,
                                       0.01, 100, 0)
        total = sum(s.stop - s.start for s in ens.chunk_slices)
        assert total == 100 == ens.n_paths


class TestLockstepStreams:
    def test_lockstep_walk_is_bitwise_per_stream_walks(self):
        # an uncapped scene with no trap inside radius 2.5 and three blocks
        # from off-axis starts at radii 0, 2 and 4.5: the paths cut the sorted
        # traps at 0 (near o), at about a hundred and at about two thousand
        # traps, so they fall in different power-of-two buckets
        d, h, n_steps, N, seed = 2, 0.01, 20, 48, 31
        scene = sample_configuration(d, 8.0, 1.0, np.random.default_rng(30))
        ry, _ = diffusion.polar_from_ambient(scene.points)
        config = Configuration(scene.points[ry > 2.5], 8.0, 1.0, d)
        pot = FactorPotential(PotentialSpec(1.0, 1.0, 100.0), config)
        rng = np.random.default_rng(32)
        starts = []
        for r in (0.0, 2.0, 4.5):
            rot = np.eye(d + 1)
            rot[1:, 1:], _ = np.linalg.qr(rng.standard_normal((d, d)))
            starts.append(HPoint(rot @ canonical_axis_point(d, r).z))
        snaps = [0.1, 0.2]
        ens = simulate_tilted_ensemble(starts, pot, n_steps * h, h, N, seed,
                                       snapshot_times=snaps)
        slices = ens[0].chunk_slices
        assert len(slices) == feynman_kac.NUM_STREAMS
        # the paths' cuts at the final step
        cuts = set(np.searchsorted(np.sort(ry[ry > 2.5]),
                                   np.concatenate([e.final_radii for e in ens]) + 1.0).tolist())
        assert min(cuts) == 0 and len(cuts) > 3
        assert len({c.bit_length() for c in cuts if c > 0}) >= 2
        r_start, u_start = diffusion.polar_from_ambient(np.array([x.z for x in starts]))
        steps = [int(round(t / h)) for t in snaps]
        for s, stream_rng in zip(slices, feynman_kac._chunk_rngs(seed, len(slices))):
            n = s.stop - s.start
            alone = diffusion.ensemble_walk(np.repeat(r_start, n), np.repeat(u_start, n, axis=0),
                                            n_steps, h, stream_rng, potential=pot,
                                            snapshot_steps=steps, blocks=len(starts))
            for b, e in enumerate(ens):
                block = slice(b * n, (b + 1) * n)
                assert np.array_equal(e.log_weights[s], -alone.integrals[block])
                assert np.array_equal(e.final_radii[s], alone.r[block])
                for k in steps:
                    for got, want in zip(e.snapshots[k], alone.snapshots[k]):
                        assert np.array_equal(got[s], want[block])
        # contiguous groups of streams on three threads walk the same paths
        threaded = simulate_tilted_ensemble(starts, pot, n_steps * h, h, N, seed,
                                            snapshot_times=snaps, workers=3)
        for e, t in zip(ens, threaded):
            assert np.array_equal(e.log_weights, t.log_weights)
            assert all(np.array_equal(a, b)
                       for k in steps for a, b in zip(e.snapshots[k], t.snapshots[k]))

    def test_one_kernel_call_per_step(self, monkeypatch):
        # the 16 streams advance together: one step_polar and one potential
        # evaluation per step, not one per stream
        counts = {"step": 0, "potential": 0}
        step, evaluate = diffusion.step_polar, FactorPotential.evaluate_polar

        def counting_step(*args, **kwargs):
            counts["step"] += 1
            return step(*args, **kwargs)

        def counting_evaluate(*args, **kwargs):
            counts["potential"] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(diffusion, "step_polar", counting_step)
        monkeypatch.setattr(FactorPotential, "evaluate_polar", counting_evaluate)
        estimate_Z(origin(2), planted_trap(), 0.1, 0.01, 40, 0, workers=1)
        assert counts == {"step": 10, "potential": 11}
