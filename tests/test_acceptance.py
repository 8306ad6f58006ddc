"""Acceptance suite: ten quantitative criteria, one verdict line each.

Each test prints "criterion N (name): PASS/FAIL" directly to the terminal
and asserts the stated tolerance.  The Monte Carlo simulates all of H^d,
where the single planted trap of criteria 3-5 does not bind: paths escape
at radial speed (d-1)/2, Z_T tends to a positive constant and the decay
rate is zero.  There is no L^2 ground state; the limit object is the
survival harmonic h, (-1/2 Laplacian + V) h = 0 with h -> 1 at infinity.
The Dirichlet-box eigenpair at R_max=30 is set by the wall (rho = 0.13012
with the trap, 0.13002 without), so criteria 1-5 compare against
whole-space objects instead:

1. The free box eigenvalue must land within 1% of the continuum bottom
   (d-1)^2/8.  The wall adds pi^2/(2 R_max^2), which at R_max=30 (5.5e-3)
   exceeds both allowances, so the bands are checked at R_max=100 with the
   same cell width (penalty 4.9e-4).  R_max=30 is kept through the exact
   d=3 identity rho = 1/2 + pi^2/(2 R_max^2).  See also
   tests/test_spectral.py::TestBuildRadialOperator::test_free_bottom_continuum_limit.
2. The radial speed is the mean increment (r_T - r_T1)/(T - T1) with
   T1=10, not r_T/T: r_T carries a constant offset E[r_T] - (d-1)T/2 of
   about 1.5 from the early stretch where coth(r) > 1, which puts r_T/T
   3 to 7 standard errors high at T=50 for any h.  The increment cancels it.
3. The whole-space rate is zero, but the estimator fits the finite-T
   relaxation of -log Z_T over T in {10, 20, 40}.  The oracle is therefore
   finite-horizon: Z_T(o) = h(o) + (e^{-TH}(1 - h))(o) on the same radial
   operator (`spectral.finite_horizon_survival`), fitted by the estimator's
   own weighted least squares with its per-horizon weights (`sigmas`).
   The bound 0 <= rho_hat <= V_max stays.
4. Eigenfunction ratios Z_T^r / Z_T^o at T=40 are compared with h(r)/h(0),
   which rises with r as escape from the trap gets easier; the box phi
   falls towards the wall instead.
5. The weighted time-1 marginal at T=40 is compared with the Doob
   transform by h, the T -> infinity limit of the tilted path measure, as a
   second simulation: the Doob walk of tests/conftest.py, the geodesic walk
   with the drift (log h)' added Euler-style, on seed 8.  full-pipeline
   gates the same marginal against its exact law instead
   (`spectral.q_marginal_law`).

Criterion 7 keeps the box eigenpair: it checks that operator's own Born
series and contour projector.  tests/test_mechanism.py checks the same
estimators against h at smaller path counts.
"""

import sys

import conftest
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from hyptrap import cli, diffusion, feynman_kac, fock, spectral
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialSpec,
    ball_volume,
    sample_configuration,
)

SPEC = PotentialSpec(1.0, 1.0, 0.1)


def verdict(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    conftest.record_verdict(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def trap_radial(r):
    return np.minimum(SPEC.v_max, SPEC.profile(r))


def planted_trap(d=2):
    config = Configuration(*conftest.origin(d), 60.0, 0.0)
    return FactorPotential(SPEC, config)


@pytest.fixture(scope="module")
def oracle():
    """Radial operator of the planted trap, its box eigenpair and survival harmonic."""
    op = spectral.build_radial_operator(2, 30.0, 3000, trap_radial)
    return op, spectral.solve_ground_state(op), spectral.survival_harmonic(op)


@pytest.fixture(scope="module")
def origin_walk():
    """Criteria 3-5 read one walk, as full-pipeline does: from o and the
    probes of criterion 4, 10^4 paths on seed 7 to T = 40, with snapshots
    at the marginal time 1 and at the horizons of criterion 3."""
    cfg = {"d": 2, "h": 0.01, "n_paths": 10_000, "seed": 7, "workers": 1}
    return cli.walk_origin(cfg, planted_trap(), 40.0, (0.5, 1.0, 2.0, 4.0),
                           snapshot_times=[1.0, 10.0, 20.0, 40.0])


def test_criterion_1_free_spectral_bottom():
    details = []
    ok = True
    for d, lo, hi in ((2, 0.125, 0.12625), (3, 0.5, 0.505)):
        op = spectral.build_radial_operator(d, 100.0, 10_000, lambda r: np.zeros_like(r))
        rho = spectral.solve_ground_state(op).rho
        details.append(f"d={d}, R_max=100: rho={rho:.6f}, required [{lo}, {hi}]")
        ok = ok and lo <= rho <= hi
    op = spectral.build_radial_operator(3, 30.0, 3000, lambda r: np.zeros_like(r))
    err = abs(spectral.solve_ground_state(op).rho - (0.5 + np.pi**2 / (2 * 30.0**2)))
    details.append(f"d=3, R_max=30: |rho - 1/2 - pi^2/(2R^2)|={err:.2e} (need < 1e-5)")
    ok = ok and err < 1e-5
    verdict(1, "free spectral bottom", ok, "; ".join(details))


def test_criterion_2_radial_drift():
    details = []
    ok = True
    T, T1, h, n = 50.0, 10.0, 1e-3, 1000
    k1 = int(round(T1 / h))
    for d, target in ((2, 0.5), (3, 1.0)):
        rng = np.random.default_rng(100 + d)
        r0 = np.zeros(n)
        u0 = np.zeros((n, d))
        u0[:, 0] = 1.0
        res = diffusion.ensemble_walk(r0, u0, int(T / h), h, rng, snapshot_steps=[k1])
        speed = (res.r - res.snapshots[k1][0]) / (T - T1)
        se = speed.std(ddof=1) / np.sqrt(n)
        dev = abs(speed.mean() - target)
        details.append(f"d={d}: mean (r_T-r_T1)/(T-T1)={speed.mean():.4f} "
                       f"target {target} (3se={3*se:.4f})")
        ok = ok and dev < 3 * se
    verdict(2, "radial drift", ok, "; ".join(details))


def test_criterion_3_quenched_survival_vs_oracle(oracle, origin_walk):
    op, _, _ = oracle
    T_grid = [10.0, 20.0, 40.0]
    est = feynman_kac.estimate_rho(origin_walk[0], T_grid)
    z_oracle = np.array([
        float(PchipInterpolator(op.grid, spectral.finite_horizon_survival(op, T))(1e-9))
        for T in T_grid])
    rho_oracle = feynman_kac._wls_slope(np.asarray(T_grid), -np.log(z_oracle),
                                        np.asarray(est.diagnostics["sigmas"]))
    within = abs(est.rho_hat - rho_oracle) < 3 * est.rho_stderr
    bounded = 0.0 <= est.rho_hat <= SPEC.v_max
    ok = within and bounded
    verdict(3, "quenched survival vs oracle", ok,
            f"rho_hat={est.rho_hat:.4e} +- {est.rho_stderr:.2e}, "
            f"finite-T oracle slope={rho_oracle:.4e}, bound check={bounded}")


def test_criterion_4_eigenfunction_ratio(oracle, origin_walk):
    op, _, h_surv = oracle
    interp = PchipInterpolator(op.grid, h_surv)
    h0 = float(interp(1e-9))
    table = feynman_kac.estimate_phi_ratio(*origin_walk)
    ok = True
    details = []
    for r, ratio, se in table:
        target = float(interp(r)) / h0
        details.append(f"r={r:g}: mc={ratio:.4f} h ratio={target:.4f} (3se={3*se:.4f})")
        ok = ok and abs(ratio - target) < 3 * se
    verdict(4, "eigenfunction ratio", ok, "; ".join(details))


def test_criterion_5_q_process_mechanism(oracle, origin_walk):
    op, _, h_surv = oracle
    qm = feynman_kac.q_marginal(origin_walk[0], 1.0, [10.0, 20.0, 40.0])
    doob_r = conftest.doob_final_radii(conftest.origin(2), op.grid, h_surv,
                                       1.0, 0.01, 10_000, 8)
    _, p = conftest.weighted_ks_2samp(qm.radii, qm.weights_by_T[40.0],
                                      doob_r, np.ones(len(doob_r)))
    ok = p > 0.01
    verdict(5, "Q-process mechanism", ok, f"KS p={p:.4g} vs Doob of h (need > 0.01)")


def test_criterion_6_constant_potential_identities():
    c, T = 0.2, 4.0
    pot = conftest.ConstantPotential(c)
    z = feynman_kac.estimate_Z(conftest.origin(2), pot, T, 0.01, 1000, 0)
    z_exact = abs(z.z_hat - np.exp(-c * T)) < 1e-12 and z.stderr < 1e-14
    ens, = feynman_kac.simulate_tilted_ensemble(conftest.origin(2), pot, 8.0, 0.01,
                                                1000, 0, snapshot_times=[2.0, 4.0, 8.0])
    est = feynman_kac.estimate_rho(ens, [2.0, 4.0, 8.0])
    rho_exact = abs(est.rho_hat - c) < 1e-12
    ens, = feynman_kac.simulate_tilted_ensemble(conftest.origin(2), pot, 8.0, 0.01,
                                                10_000, 1, snapshot_times=[1.0, 4.0, 8.0])
    qm = feynman_kac.q_marginal(ens, 1.0, [4.0, 8.0])
    rng = np.random.default_rng(2)
    r0 = np.zeros(10_000)
    u0 = np.tile([1.0, 0.0], (10_000, 1))
    free = diffusion.ensemble_walk(r0, u0, 100, 0.01, rng)
    _, p = conftest.weighted_ks_2samp(qm.radii, qm.weights_by_T[8.0],
                                      free.r, np.ones(10_000))
    ok = z_exact and rho_exact and p > 0.01
    verdict(6, "constant-potential identities", ok,
            f"Z exact={z_exact}, rho exact={rho_exact}, free-marginal KS p={p:.4g}")


def test_criterion_7_born_and_contour(oracle):
    op, spec_out, _ = oracle
    z = spec_out.rho + 0.15j
    w = np.ones(op.m)
    born, _ = spectral.born_resolvent_apply(op, z, w, 60)
    direct = spectral.direct_resolvent_solve(op, z, w)
    diff = born - direct
    born_rel = np.sqrt(op.weighted_dot(diff, diff) / op.weighted_dot(direct, direct))
    vec, rayleigh = spectral.contour_projector(spec_out, spec_out.rho, spec_out.gap / 2.0)
    vec_err = op.weighted_norm(vec - spec_out.phi)
    ray_err = abs(rayleigh - spec_out.rho)
    big = spectral.build_radial_operator(2, 30.0, 3000,
                                         lambda r: 100.0 * trap_radial(r))
    try:
        spectral.born_resolvent_apply(big, z, w, 60)
        diverged = False
    except spectral.BornDivergenceError:
        diverged = True
    ok = born_rel < 1e-8 and vec_err < 1e-8 and ray_err < 1e-10 and diverged
    verdict(7, "Born series and contour projector", ok,
            f"born rel={born_rel:.2e}, vec err={vec_err:.2e}, "
            f"rayleigh err={ray_err:.2e}, 100x diverges={diverged}")


def test_criterion_8_fock_isometry():
    ok = True
    details = []
    for v in (0.5, 1.0, 2.0):
        for name in ("count", "void"):
            rep = fock.isometry_check(name, 2, v, mc_samples=100_000, seed=0)
            details.append(f"{name}@v={v:g}: rel={rep['rel_error']:.4f}")
            ok = ok and rep["rel_error"] < 0.02
    verdict(8, "Fock isometry", ok, "; ".join(details))


def test_criterion_9_ppp_law():
    rng = np.random.default_rng(9)
    n = 10_000
    mean = ball_volume(2, 2.0)
    counts = np.empty(n, dtype=int)
    inner = np.empty(n)
    outer = np.empty(n)
    for i in range(n):
        config = sample_configuration(2, 2.0, 1.0, rng)
        counts[i] = len(config)
        r = config.radii
        inner[i] = np.sum(r < 1.0)
        outer[i] = np.sum(r >= 1.0)
    _, p = conftest.chisquare_poisson(counts, mean)
    corr = np.corrcoef(inner, outer)[0, 1]
    ok = p > 0.01 and abs(corr) < 3.0 / np.sqrt(n)
    verdict(9, "PPP law", ok,
            f"chi-square p={p:.4g}, annuli corr={corr:.4f} (3/sqrt(n)={3/np.sqrt(n):.4f})")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_paths = 200\nt_grid = 2,4,8\nT = 8\nmarginal_time = 0.5\n"
                   "m_cells = 600\nh = 0.01\n")
    outs = []
    for name, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / name
        code = cli.main(["full-pipeline", "--config", str(cfg), "--seed", "3",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        outs.append(out)
    diffs = []
    for f in sorted(outs[0].iterdir()):
        if f.name == "timing.txt":
            continue
        if f.read_bytes() != (outs[1] / f.name).read_bytes():
            diffs.append(f.name)
    ok = not diffs
    verdict(10, "determinism", ok,
            "all artifacts byte-identical across worker counts" if ok
            else f"differing artifacts: {diffs}")
