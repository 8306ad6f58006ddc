"""Tests of the benchmark's own checks, oracles and layer accounting.

    python3 -m pytest bench

Every check must pass a right output and reject a corrupted one.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
from oracles import SurvivalHarmonic, finite_horizon_z

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def harmonic():
    return SurvivalHarmonic(2, 1.0, 1.0, 0.1)


def test_survival_check_rejects_perturbed_column(harmonic):
    r = np.linspace(0.005, 29.995, 3000)
    h = harmonic(r)
    assert checks.check_survival(r, h, harmonic) == []
    h[150] += 1e-3
    assert checks.check_survival(r, h, harmonic)


def test_survival_harmonic_without_trap_is_one():
    assert np.allclose(SurvivalHarmonic(2, 0.0, 1.0, 0.1)([0.0, 0.5, 3.0]), 1.0)


def test_phi_ratio_check_rejects_a_wrong_ratio():
    z = finite_horizon_z(2, 5.0, 1.0, 1.0, 0.1)
    rows = [(r, float(z(r) / z(0.0)), 0.003) for r in (0.5, 1.0, 2.0, 4.0)]
    rows.insert(0, (0.0, 1.0, 0.0))
    assert checks.check_phi_ratios(rows, z) == []
    rows[2] = (1.0, rows[2][1] - 0.022, 0.003)
    assert checks.check_phi_ratios(rows, z)


def test_q_weights_check():
    rows = [[0.5, 0.25, 0.5], [1.0, 0.75, 0.5]]
    assert checks.check_q_weights(rows, 2) == []
    assert checks.check_q_weights(rows, 3)
    assert checks.check_q_weights([[0.5, 0.25, 0.5], [1.0, 0.76, 0.5]], 2)
    assert checks.check_q_weights([[0.5, -0.25, 0.5], [1.0, 1.25, 0.5]], 2)


@pytest.mark.parametrize("rho, ok", [(0.0, True), (0.05, True), (0.1, True),
                                     (-1e-4, False), (0.11, False)])
def test_rho_check(rho, ok):
    assert (checks.check_rho(rho, 0.1) == []) == ok


def test_neg_log_z_check_rejects_decrease_and_fast_growth():
    ts = [1.0, 1.5, 2.0]
    assert checks.check_neg_log_z(ts, [0.02, 0.05, 0.07], 0.1) == []
    assert checks.check_neg_log_z(ts, [0.02, 0.05, 0.049], 0.1)
    assert checks.check_neg_log_z(ts, [0.02, 0.0701, 0.08], 0.1)


def _ambient(r, dirs):
    return np.column_stack([np.cosh(r), np.sinh(r)[:, None] * dirs])


def test_direct_trap_sum_on_known_distances():
    trap = _ambient(np.array([0.0]), np.array([[1.0, 0.0]]))
    point = _ambient(np.array([0.5]), np.array([[0.0, 1.0]]))
    assert math.isclose(checks.direct_trap_sum(trap, point, 1.0, 1.0, 1.0)[0][0], 0.75**2)
    assert checks.direct_trap_sum(trap, point, 1.0, 1.0, 0.1)[0][0] == 0.1
    far = _ambient(np.array([1.5]), np.array([[1.0, 0.0]]))
    assert checks.direct_trap_sum(trap, far, 1.0, 1.0, 1.0)[0][0] == 0.0


def test_potential_check_rejects_wrong_value():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, (2, 300))
    traps = _ambient(rng.uniform(0, 3, 40), np.column_stack([np.cos(angles[0, :40]),
                                                              np.sin(angles[0, :40])]))
    points = _ambient(rng.uniform(0, 3, 300), np.column_stack([np.cos(angles[1]),
                                                                np.sin(angles[1])]))
    values, _ = checks.direct_trap_sum(traps, points, 1.0, 1.0, 0.5)
    assert 0 < np.count_nonzero((values > 0) & (values < 0.5)) < len(values)
    assert checks.check_potential(values, traps, points, 1.0, 1.0, 0.5) == []
    wrong = values.copy()
    wrong[np.argmax((values > 0) & (values < 0.5))] *= 1 + 1e-6
    assert checks.check_potential(wrong, traps, points, 1.0, 1.0, 0.5)


def test_trap_count_check():
    mean = checks.ppp_mean_count(2, 0.05, 9.0)
    assert math.isclose(mean, 0.05 * 2 * math.pi * (math.cosh(9.0) - 1.0))
    assert checks.check_trap_count(1273, mean) == []
    assert checks.check_trap_count(1500, mean)


def test_z_check_rejects_out_of_bound_and_off_oracle():
    oracle = 0.954755
    assert checks.check_z(0.9546, 1.7e-4, 31966.8, 32000, 4.0, 0.1, oracle) == []
    assert checks.check_z(1.0000001, 1.7e-4, 31966.8, 32000, 4.0, 0.1, 1.0)
    assert checks.check_z(0.9546, 1.7e-4, 32001.0, 32000, 4.0, 0.1, oracle)
    assert checks.check_z(0.9530, 1.7e-4, 31966.8, 32000, 4.0, 0.1, oracle)


def test_finite_horizon_oracle():
    assert math.isclose(finite_horizon_z(2, 4.0, 0.0, 1.0, 0.1)(0.0), 1.0, abs_tol=1e-12)
    z = finite_horizon_z(3, 4.0, 1.0, 1.0, 0.1)
    # d = 3 reduces exactly to w_t = w''/2 - w/2 - V w for w = sinh(r) u; that
    # solved on a grid twice as fine gives 0.9547549
    assert math.isclose(z(0.0), 0.9547549, abs_tol=2e-6)
    assert z(0.0) < z(1.0) < z(3.0) < 1.0
    # the relaxation e^{-TH}(1 - h) dies out: Z_T tends to the survival harmonic
    long_run = finite_horizon_z(3, 40.0, 1.0, 1.0, 0.1, n_steps=2000)
    h = SurvivalHarmonic(3, 1.0, 1.0, 0.1)
    assert np.allclose(long_run([0.0, 0.5, 2.0]), h([0.0, 0.5, 2.0]), atol=5e-6)


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.PER_LAYER + ["trace.overhead_s"]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["planted-pipeline", "poisson-rho"]
    assert set(run.WORKLOADS) == {"planted-pipeline", "poisson-rho", "wide-walk"}


def test_tracer_counts_kernel_work():
    """A traced estimate_Z with 40 paths, 10 steps and one trap."""
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hyptrap import cli, feynman_kac, geometry
import layers
tracer = layers.Tracer()
tracer.install()
cfg = cli.resolve_config({"T": 0.1, "t_grid": [0.1], "probes": []})
spec, config, potential = cli.build_scene(cfg)
feynman_kac.estimate_Z(geometry.origin(2), potential, 0.1, 0.01, 40, 0)
print(json.dumps(tracer.metrics()))
"""
    out = subprocess.run([sys.executable, "-c", code, str(BENCH.parent / "src")],
                         cwd=BENCH, capture_output=True, text=True, check=True)
    m = json.loads(out.stdout)
    assert m["diffusion.step_polar.calls"] == 16 * 10
    assert m["diffusion.step_polar.path_steps"] == 40 * 10
    assert m["ppp.evaluate_polar.calls"] == 16 * 11
    assert m["ppp.evaluate_polar.dense_pairs"] == 40 * 11
    assert m["feynman_kac.simulate_tilted_ensemble.calls"] == 1
    assert m["cli.build_scene.s"] > 0
    assert m["feynman_kac.estimate_Z.s"] >= m["feynman_kac.simulate_tilted_ensemble.self_s"]


def _write(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(repr(float(x)) for x in r) + "\n" for r in rows))


def test_planted_checker_reads_artifacts(tmp_path, harmonic):
    cfg = {"d": 2, "a": 1.0, "r0": 1.0, "vmax": 0.1, "t_grid": [5.0, 10.0, 20.0],
           "T": 20.0, "n_paths": 2, "planted": [0.0], "kappa": 0.0}
    checker = checks.PlantedChecker(cfg, 0)
    for command in ("radial-oracle", "estimate-rho", "phi-profile", "q-marginal"):
        (tmp_path / command).mkdir()
    r = [0.005 + 0.01 * i for i in range(3000)]
    _write(tmp_path / "radial-oracle" / "survival.csv", "r,h", zip(r, harmonic(r)))
    _write(tmp_path / "estimate-rho" / "rho.csv", "rho_hat,rho_stderr,flagged",
           [(8e-4, 1e-4, 0)])
    _write(tmp_path / "estimate-rho" / "logz.csv", "T,neg_log_z",
           [(5.0, 0.1), (10.0, 0.104), (20.0, 0.112)])
    _write(tmp_path / "phi-profile" / "phi_ratio.csv", "r,ratio,stderr",
           [(x, checker.z(x) / checker.z(0.0), 0.004) for x in (0.0, 1.0)])
    _write(tmp_path / "q-marginal" / "q_marginal.csv", "r,w_T5,w_T10,w_T20",
           [(0.5, 0.5, 0.4, 0.3), (1.5, 0.5, 0.6, 0.7)])
    assert checker.check(tmp_path) == []
    _write(tmp_path / "estimate-rho" / "logz.csv", "T,neg_log_z",
           [(5.0, 0.1), (10.0, 0.099), (20.0, 0.112)])
    assert len(checker.check(tmp_path)) == 1


def test_wide_walk_checker_reads_artifacts(tmp_path):
    cfg = {"d": 3, "a": 1.0, "r0": 1.0, "vmax": 0.1, "T": 4.0, "planted": [0.0], "kappa": 0.0}
    checker = checks.WideWalkChecker(cfg, 0)
    (tmp_path / "estimate-z").mkdir()
    z_csv = tmp_path / "estimate-z" / "z.csv"
    _write(z_csv, "T,Z,stderr,ess,n_paths", [(4.0, 0.9546, 1.7e-4, 31966.8, 32000)])
    assert checker.check(tmp_path) == []
    _write(z_csv, "T,Z,stderr,ess,n_paths", [(4.0, 0.9566, 1.7e-4, 31966.8, 32000)])
    assert checker.check(tmp_path)
