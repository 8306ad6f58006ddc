"""End-to-end checks of the conditioned-path mechanism for a planted trap.

On the whole of H^d a single compactly supported trap does not bind: paths
escape at radial speed (d-1)/2, the survival constant Z_T converges to a
positive limit, and the decay rate is zero.  The correct limiting object is
the survival harmonic h solving (-1/2 Laplacian + V) h = 0 with h -> 1 at
infinity: h(r) is the limiting survival weight from r, the eigenfunction
ratios converge to h(r)/h(0), and the Doob transform by h generates the
T -> infinity limit of the tilted path measure.  These tests verify that
chain quantitatively, the last link both against a second simulation (the
Doob walk of tests/conftest.py) and against the exact law of the marginal at
the walk's own horizon (`spectral.q_marginal_law`); the finite-box eigensolver with a Dirichlet wall at
R_max measures a different (truncated) problem whose ground energy stays
near the free bottom (d-1)^2/8 + pi^2/(2 R_max^2) no matter how weak the
trap is.
"""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from conftest import doob_final_radii, origin, weighted_ks_2samp
from hyptrap import cli, feynman_kac, spectral, stats
from hyptrap.diffusion import on_axis
from hyptrap.ppp import Configuration, FactorPotential, PotentialSpec

D = 2
SPEC = PotentialSpec(1.0, 1.0, 0.1)
T_GRID = [10.0, 20.0, 40.0]
H = 0.01


def planted_trap():
    config = Configuration(*origin(D), 60.0, 0.0)
    return FactorPotential(SPEC, config)


def trap_radial(r):
    return np.minimum(SPEC.v_max, SPEC.profile(r))


@pytest.fixture(scope="module")
def origin_walk():
    """The rate, the ratios and the time-1 marginal read one walk, as
    full-pipeline does: from o and the probes 0.5, 1, 2, 4, 4000 paths on
    seed 7 to T = 40, with snapshots at t = 1 and at T_GRID."""
    cfg = {"d": D, "h": H, "n_paths": 4000, "seed": 7, "workers": 1}
    return cli.walk_origin(cfg, planted_trap(), 40.0, (0.5, 1.0, 2.0, 4.0),
                           snapshot_times=[1.0] + T_GRID)


def survival_oracle():
    op = spectral.build_radial_operator(D, 30.0, 3000, trap_radial)
    h = spectral.survival_harmonic(op)
    return op, h


class TestEscapeMakesRateZero:
    def test_decay_rate_near_zero(self, origin_walk):
        # the MC slope of -log Z_T settles at the tiny residual decay left
        # after escape, far below any bound-state scale
        est = feynman_kac.estimate_rho(origin_walk[0], T_GRID)
        assert abs(est.rho_hat) < 2e-3
        assert 0.0 <= est.rho_hat <= SPEC.v_max

    def test_z_T_converges_to_positive_limit(self):
        pot = planted_trap()
        z_small = feynman_kac.estimate_Z(origin(D), pot, 10.0, H, 4000, 8)
        z_large = feynman_kac.estimate_Z(origin(D), pot, 40.0, H, 4000, 8)
        assert z_large.z_hat > 0.8
        pooled = np.hypot(z_small.stderr, z_large.stderr)
        assert abs(z_large.z_hat - z_small.z_hat) < 6 * pooled + 0.01


class TestSurvivalHarmonic:
    def test_limit_of_z_from_probe_points(self):
        # h(r) = lim_T Z_T^r: compare the direct MC estimate at T=40
        op, h = survival_oracle()
        h_interp = PchipInterpolator(op.grid, h)
        for r in (0.0, 1.0, 3.0):
            est = feynman_kac.estimate_Z(on_axis(D, [r]),
                                         planted_trap(), 40.0, H, 4000,
                                         20 + int(10 * r))
            target = float(h_interp(max(r, 1e-9)))
            assert abs(est.z_hat - target) < 4 * est.stderr + 2e-3, (r, est.z_hat, target)

    def test_eigenfunction_ratios_match(self, origin_walk):
        op, h = survival_oracle()
        h_interp = PchipInterpolator(op.grid, h)
        h0 = float(h_interp(1e-9))
        table = feynman_kac.estimate_phi_ratio(*origin_walk)
        for r, ratio, se in table:
            target = float(h_interp(r)) / h0
            assert abs(ratio - target) < 4 * se + 1e-3, (r, ratio, target)


class TestQProcessIsDoobOfSurvivalHarmonic:
    def test_time_one_marginal(self, origin_walk):
        op, h = survival_oracle()
        qm = feynman_kac.q_marginal(origin_walk[0], 1.0, T_GRID)
        doob_r = doob_final_radii(origin(D), op.grid, h, 1.0, H, 4000, 8)
        _, p = weighted_ks_2samp(qm.radii, qm.weights_by_T[40.0], doob_r, np.ones(len(doob_r)))
        assert p > 0.01

    def test_time_one_marginal_matches_exact_law(self, origin_walk):
        op, _ = survival_oracle()
        qm = feynman_kac.q_marginal(origin_walk[0], 1.0, T_GRID)
        law, _ = spectral.q_marginal_law(op, 1.0, 40.0)
        faces = op.dr * np.arange(op.m + 1)
        _, _, p = stats.weighted_ks_1samp(qm.radii, qm.weights_by_T[40.0],
                                          lambda r: np.interp(r, faces, law))
        assert p > cli.KS_THRESHOLD

    def test_exact_law_has_power(self):
        # planted-pipeline's walk on seed 0 (1000 paths, T = 5): its weighted
        # marginal at t = 1 passes the gate against the law at t = 1, and the
        # marginals a tenth of a time unit early or a quarter late fail it
        cfg = {"d": D, "h": H, "n_paths": 1000, "seed": 0, "workers": 1}
        base, _ = cli.walk_origin(cfg, planted_trap(), 5.0, snapshot_times=[0.9, 1.0, 1.25, 5.0])
        op, _ = survival_oracle()
        law, _ = spectral.q_marginal_law(op, 1.0, 5.0)
        faces = op.dr * np.arange(op.m + 1)
        weights = np.exp(-base.snapshot(5.0)[2])
        p = {t: stats.weighted_ks_1samp(base.snapshot(t)[0], weights,
                                        lambda r: np.interp(r, faces, law))[2]
             for t in (0.9, 1.0, 1.25)}
        assert p[1.0] > cli.KS_THRESHOLD
        assert p[0.9] < 1e-4 and p[1.25] < 1e-4

    def test_marginal_stabilizes_in_horizon(self):
        ens, = feynman_kac.simulate_tilted_ensemble(origin(D), planted_trap(), 40.0, H,
                                                    4000, 9, snapshot_times=[1.0] + T_GRID)
        qm = feynman_kac.q_marginal(ens, 1.0, T_GRID)
        assert qm.sup_distances[-1] < 4.0 / np.sqrt(4000)


class TestDirichletBoxMeasuresTruncation:
    def test_box_ground_energy_insensitive_to_trap(self):
        # the finite-box ground energy is dominated by the wall, not the trap:
        # removing the trap barely moves it, so it cannot equal the (zero)
        # whole-space decay rate
        free = spectral.solve_ground_state(
            spectral.build_radial_operator(D, 30.0, 3000, lambda r: np.zeros_like(r)))
        trap = spectral.solve_ground_state(
            spectral.build_radial_operator(D, 30.0, 3000, trap_radial))
        assert trap.rho - free.rho < 0.005
        assert free.rho > 0.125  # pinned above the continuum bottom
