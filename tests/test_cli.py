"""Experiment runner: config parsing, artifacts, manifests, determinism."""

import ast
import importlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from conftest import minkowski_dot
from hyptrap import cli, feynman_kac, fock, spectral, stats
from hyptrap.cli import ConfigError, main, parse_config, resolve_config
from hyptrap.diffusion import polar_from_ambient
from hyptrap.ppp import Configuration, sample_configuration

FAST = """
# quick smoke settings
n_paths = 64
T = 2
t_grid = 0.5,1,2
marginal_time = 0.25
h = 0.01
m_cells = 300
"""


# full-pipeline's gates on its own oracle
ORACLE_GATES = ("born_matches_direct", "amplified_born_sound", "contour_matches_ground")

# a weak narrow trap: the Born series for 100 V still converges
WEAK_TRAP = "vmax = 0.02\nr0 = 0.5\n"


def write_config(tmp_path, text=FAST, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_comments_and_lists(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg["n_paths"] == 64
        assert cfg["t_grid"] == [0.5, 1.0, 2.0]

    def test_values_take_the_type_of_their_default(self, tmp_path):
        text = "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
                       for k, v in cli.DEFAULTS.items())
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg == cli.DEFAULTS
        assert all(type(cfg[k]) is type(v) for k, v in cli.DEFAULTS.items())
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, "n_paths = 1.5\n"))

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    @pytest.mark.parametrize("cmd,line", [
        ("full-pipeline", "ks_threshold = 0.001"), ("full-pipeline", "rho_tolerance = 1"),
        ("full-pipeline", "ratio_sigma = 8"), ("full-pipeline", "n_quad = 32"),
        ("full-pipeline", "born_kmax = 40"), ("full-pipeline", "born_z_im = 0.3"),
        ("fock-check", "fock_samples = 5000"), ("fock-check", "n_max = 5")])
    def test_fixed_settings_are_not_keys(self, tmp_path, capsys, cmd, line):
        # the gate thresholds and the oracle truncations hold one value each
        path = write_config(tmp_path, FAST + line + "\n")
        out = tmp_path / "out"
        assert main([cmd, "--config", path, "--out", str(out)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "no equals sign here\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_resolve_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            resolve_config({"h": 0.5})

    @pytest.mark.parametrize("line", ["n_paths = 1", "workers = 0", "T = 2.005",
                                      "t_grid = 0.5,1.005,2", "marginal_time = 0.255",
                                      "kappa = -0.05", "a = -1", "r0 = 0", "vmax = -0.1",
                                      "r_max = 4", "m_cells = 49", "t_grid = -1,1,2",
                                      "marginal_time = -1", "T = -1", "probes = 0,-0.5",
                                      "window_radius = -1", "vmax = nan", "a = nan",
                                      "r0 = nan", "kappa = nan", "planted = nan",
                                      "window_radius = nan", "probes = 0,nan", "T = inf",
                                      "t_grid = 1,2,inf", "probes = 0,inf", "a = inf",
                                      "r_max = nan", "r_max = inf"])
    def test_resolve_rejects_before_simulating(self, tmp_path, capsys, line):
        path = write_config(tmp_path, FAST + line + "\n")
        out = tmp_path / "out"
        assert main(["estimate-rho", "--config", path, "--out", str(out)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_grid", ["2,2,2", "1,1,2"])
    def test_rho_needs_three_distinct_horizons(self, tmp_path, capsys, t_grid):
        # a repeated horizon leaves the decay-rate fit underdetermined
        path = write_config(tmp_path, FAST + f"T = 2\nt_grid = {t_grid}\n")
        for cmd in ("estimate-rho", "full-pipeline"):
            out = tmp_path / cmd
            assert main([cmd, "--config", path, "--out", str(out)]) == 2
            assert "distinct horizons" in capsys.readouterr().err
            assert not list(out.iterdir())

    @pytest.mark.parametrize("cmd", ["q-marginal", "full-pipeline"])
    def test_marginal_time_must_precede_horizons(self, tmp_path, capsys, cmd):
        # the Q-marginal at t = 1 cannot be read before the horizon 0.5
        path = write_config(tmp_path, FAST + "t_grid = 0.5,1,1.5\nmarginal_time = 1\n")
        out = tmp_path / cmd
        assert main([cmd, "--config", path, "--out", str(out)]) == 2
        assert "marginal_time" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_pipeline_needs_a_positive_marginal_time(self, tmp_path, capsys):
        # at t = 0 every path is at o: the marginal is a point mass, which the
        # one-sample test against a continuous law cannot read
        path = write_config(tmp_path, FAST + "marginal_time = 0\n")
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 2
        assert "marginal_time must be positive" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("probes", ["", "0"])
    def test_pipeline_needs_a_probe_off_o(self, tmp_path, capsys, probes):
        # a probe at o reads the walk from o itself, ratio 1 against the target
        # 1: with no probe off o, phi_matches_survival would test nothing
        path = write_config(tmp_path, FAST + f"probes = {probes}\n")
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 2
        assert "probes must hold a radius > 0" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_cli_overrides(self):
        cfg = resolve_config({}, cli_seed=42, cli_workers=3)
        assert cfg["seed"] == 42
        assert cfg["workers"] == 3


class TestCommands:
    def test_unknown_command_usage(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert "usage" in capsys.readouterr().err

    def test_doob_compare_is_not_a_command(self, capsys):
        # full-pipeline is the one planted-trap report; its Q-vs-Doob table
        # and the oracle's Born and contour tables have no command of their own
        assert len(cli.HANDLERS) == 9
        for command in ("doob-compare", "born-check", "contour-check"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, "bogus = 1\n")
        assert main(["estimate-z", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_estimate_z_empty_config_is_free(self, tmp_path):
        # no planted trap, kappa 0: V = 0 so Z = 1 with stderr 0
        path = write_config(tmp_path, FAST + "planted =\nkappa = 0\n")
        out = tmp_path / "out"
        assert main(["estimate-z", "--config", path, "--out", str(out)]) == 0
        rows = (out / "z.csv").read_text().splitlines()
        _, z, stderr, _, _ = rows[1].split(",")
        assert float(z) == 1.0
        assert float(stderr) == 0.0

    def test_sample_ppp_artifacts(self, tmp_path):
        path = write_config(tmp_path, "kappa = 0.5\nwindow_radius = 3\n")
        out = tmp_path / "out"
        assert main(["sample-ppp", "--config", path, "--out", str(out)]) == 0
        config = json.loads((out / "configuration.json").read_text())
        assert set(config) == {"d", "window_radius", "intensity", "points"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sample-ppp"
        assert manifest["regime"] == "theorem-1"
        assert "workers" not in manifest["parameters"]

    def test_sample_ppp_json_roundtrip(self, tmp_path):
        # the JSON holds the hyperboloid rows exactly; back in polar form they
        # give the traps to rounding
        path = write_config(tmp_path, "kappa = 1\nwindow_radius = 3\nseed = 6\n")
        out = tmp_path / "out"
        assert main(["sample-ppp", "--config", path, "--out", str(out)]) == 0
        config = sample_configuration(2, 3.0, 1.0, np.random.default_rng(6))
        obj = json.loads((out / "configuration.json").read_text())
        points = np.asarray(obj["points"])
        assert len(points) > 0
        assert np.array_equal(points, config.points)
        back = Configuration(*polar_from_ambient(points), obj["window_radius"],
                             obj["intensity"])
        assert back.d == config.d == obj["d"]
        assert back.window_radius == config.window_radius
        assert back.intensity == config.intensity
        assert np.allclose(back.radii, config.radii, rtol=0, atol=1e-12)
        assert np.allclose(back.directions, config.directions, rtol=0, atol=1e-12)

    def test_sample_ppp_json_schema_keys(self, tmp_path):
        path = write_config(tmp_path, "kappa = 0\nwindow_radius = 2\n")
        out = tmp_path / "out"
        assert main(["sample-ppp", "--config", path, "--out", str(out)]) == 0
        obj = json.loads((out / "configuration.json").read_text())
        assert set(obj) == {"d", "window_radius", "intensity", "points"}
        assert obj["d"] == 2 and obj["points"] == []

    def test_simulate_bm_radial_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate-bm", "--config", path, "--out", str(out)]) == 0
        header = (out / "radial.csv").read_text().splitlines()[0]
        assert header == "T,mean_r,stderr_r,mean_r_over_T"

    def test_simulate_bm_needs_a_positive_horizon(self, tmp_path, capsys):
        # r_T / T is undefined at T = 0: exit 2 before anything is written
        path = write_config(tmp_path, FAST + "T = 0\ndump_paths = 1\n")
        out = tmp_path / "out"
        assert main(["simulate-bm", "--config", path, "--out", str(out)]) == 2
        assert "T must be positive" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_radial_oracle_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["radial-oracle", "--config", path, "--out", str(out)]) == 0
        rho = float((out / "spectrum.csv").read_text().splitlines()[1].split(",")[0])
        phi = np.loadtxt(out / "eigenpair.csv", delimiter=",", skiprows=2)[:, 1]
        assert 0.0 < rho < 0.2
        assert np.all(phi > 0)
        assert (out / "survival.csv").exists()

    def test_radial_oracle_eigenpair_roundtrip(self, tmp_path):
        path = write_config(tmp_path, "m_cells = 500\n")
        out = tmp_path / "out"
        assert main(["radial-oracle", "--config", path, "--out", str(out)]) == 0
        cfg = resolve_config(parse_config(path))
        s = spectral.solve_ground_state(spectral.build_radial_operator(
            2, 30.0, 500, cli.trap_radial_potential(cfg)))
        header, columns, *rows = (out / "eigenpair.csv").read_text().splitlines()
        meta = dict(kv.split("=") for kv in header.lstrip("# ").split())
        assert meta == {"rho": repr(s.rho), "gap": repr(s.gap), "R_max": "30.0",
                        "M": "500", "d": "2"}
        assert columns == "r,phi"
        grid, phi = np.loadtxt(rows, delimiter=",").T
        assert np.array_equal(grid, s.operator.grid)
        assert np.array_equal(phi, s.phi)

    def test_estimate_rho_runs(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["estimate-rho", "--config", path, "--out", str(out)]) == 0
        assert (out / "rho.csv").exists()
        assert (out / "logz.csv").exists()

    def test_full_pipeline_writes_the_estimate_rho_table(self, tmp_path):
        path = write_config(tmp_path)
        # full-pipeline writes rho.csv before its statistical gates set the exit code
        for cmd in ("estimate-rho", "full-pipeline"):
            main([cmd, "--config", path, "--out", str(tmp_path / cmd)])
        rho = (tmp_path / "full-pipeline" / "rho.csv").read_text()
        assert rho.splitlines()[0] == "rho_hat,rho_stderr,flagged"
        assert rho == (tmp_path / "estimate-rho" / "rho.csv").read_text()

    @pytest.mark.parametrize("cmd", ["full-pipeline"])
    def test_pipeline_walks_one_ensemble(self, tmp_path, monkeypatch, cmd):
        # one fused walk from o and the probes serves the rate, the ratios and
        # the Q-marginal, which is gated against its exact law, not a second walk
        calls = []
        walk = feynman_kac.simulate_tilted_ensemble

        def counting_walk(*args, **kwargs):
            calls.append(args[0])
            return walk(*args, **kwargs)

        monkeypatch.setattr(feynman_kac, "simulate_tilted_ensemble", counting_walk)
        main([cmd, "--config", write_config(tmp_path), "--out", str(tmp_path / cmd)])
        assert len(calls) == 1

    def test_full_pipeline_ratios_are_the_phi_profile_table(self, tmp_path):
        # FAST has T = max(t_grid), the horizon full-pipeline walks the probes to
        path = write_config(tmp_path)
        for cmd in ("phi-profile", "full-pipeline"):
            main([cmd, "--config", path, "--out", str(tmp_path / cmd)])
        rows = {cmd: [line.split(",")[:3] for line in
                      (tmp_path / cmd / "phi_ratio.csv").read_text().splitlines()]
                for cmd in ("phi-profile", "full-pipeline")}
        assert rows["phi-profile"][0] == ["r", "ratio", "stderr"]
        assert rows["full-pipeline"] == rows["phi-profile"]
        # each row is labelled with its configured probe radius, not a distance
        # recomputed from the probe's coordinates
        assert [float(row[0]) for row in rows["phi-profile"][1:]] == cli.DEFAULTS["probes"]

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_full_pipeline_tables_are_the_single_commands(self, tmp_path, workers):
        # FAST has T = max(t_grid): full-pipeline's one walk writes each single
        # command's tables byte for byte, and phi-profile's in its first three
        # columns
        path = write_config(tmp_path)
        tables = {"radial-oracle": ["eigenpair.csv", "survival.csv", "spectrum.csv"],
                  "estimate-rho": ["rho.csv", "logz.csv"],
                  "q-marginal": ["q_marginal.csv", "q_stabilization.csv"]}
        for cmd in [*tables, "phi-profile", "full-pipeline"]:
            main([cmd, "--config", path, "--workers", workers,
                  "--out", str(tmp_path / cmd)])
        report = tmp_path / "full-pipeline"
        for cmd, names in tables.items():
            for name in names:
                assert (report / name).read_bytes() == (tmp_path / cmd / name).read_bytes(), name
        phi = [line.split(",")[:3] for line in (report / "phi_ratio.csv").read_text().splitlines()]
        assert phi == [line.split(",") for line in
                       (tmp_path / "phi-profile" / "phi_ratio.csv").read_text().splitlines()]

    def test_born_and_contour_checks(self, tmp_path):
        # full-pipeline writes the Born and contour tables from its own ground
        # pair, whatever its walk gates say, and their gates pass
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["full-pipeline", "--config", path, "--out", str(out)])
        cfg = resolve_config(parse_config(path))
        op = spectral.build_radial_operator(2, 30.0, 300, cli.trap_radial_potential(cfg))
        ground = spectral.solve_ground_state(op)
        z, w = ground.rho + 0.15j, np.ones(op.m)
        born, tail = spectral.born_resolvent_apply(op, z, w)
        direct = spectral._resolvent(op, z)(w)
        rel = op.weighted_norm(born - direct) / op.weighted_norm(direct)
        assert (out / "born.csv").read_text() == (
            "z_re,z_im,rel_error,tail_bound,amplified_diverges\n"
            f"{ground.rho!r},0.15,{float(rel)!r},{float(tail)!r},1\n")
        radius = ground.gap / 2
        vec, rayleigh = spectral.contour_projector(ground)
        vec_error = op.weighted_norm(vec - ground.phi)
        assert (out / "contour.csv").read_text() == (
            "center,radius,n_quad,vec_error,rayleigh_error\n"
            f"{ground.rho!r},{radius!r},64,{float(vec_error)!r},{abs(rayleigh - ground.rho)!r}\n")
        checks = json.loads((out / "checks.json").read_text())
        assert all(checks[gate]["pass"] for gate in ORACLE_GATES)

    def test_q_marginal_gate_reads_the_exact_law(self, tmp_path):
        # doob_compare.csv holds the weighted KS test of q_marginal.csv's
        # marginal at T against its exact law, the Kish ESS and the law's sup
        # distance from its Doob limit; the gate's record keeps the p-value
        # beside the threshold it must exceed (FAST's horizons stretched to
        # 1.25-5, on which every gate passes)
        out = tmp_path / "out"
        path = write_config(tmp_path, FAST + "T = 5\nt_grid = 1.25,2.5,5\nmarginal_time = 1\n")
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 0
        marginal = np.loadtxt(out / "q_marginal.csv", delimiter=",", skiprows=1)
        op = spectral.build_radial_operator(2, 30.0, 300, cli.trap_radial_potential(
            resolve_config({"m_cells": 300})))
        law, limit = spectral.q_marginal_law(op, 1.0, 5.0)
        faces = op.dr * np.arange(op.m + 1)
        d, ess, p = stats.weighted_ks_1samp(marginal[:, 0], marginal[:, -1],
                                            lambda r: np.interp(r, faces, law))
        assert (out / "doob_compare.csv").read_text() == (
            "t,T,ks_statistic,p_value,ess,doob_distance\n"
            f"1.0,5.0,{d!r},{p!r},{ess!r},{float(np.max(np.abs(law - limit)))!r}\n")
        assert json.loads((out / "checks.json").read_text())["q_matches_doob"] == {
            "value": p, "bound": cli.KS_THRESHOLD, "pass": p > cli.KS_THRESHOLD}

    @pytest.mark.parametrize("name,gate", [("born_resolvent_apply", "born_matches_direct"),
                                           ("contour_projector", "contour_matches_ground"),
                                           ("born_resolvent_apply", "amplified_born_sound")])
    def test_oracle_gates_have_power(self, tmp_path, monkeypatch, name, gate):
        # an oracle vector off by 1e-9 relative passes criterion 7's 1e-8 but
        # lies 100 times past its gate's bound here (about 1e-11): full-pipeline
        # exits 1 on that gate and still writes every table.  For a weak narrow
        # trap the series for 100 V converges, and a sum of it off by 1e-7 lies
        # 45 times past its bound at m = 3000 (2.2e-9); the unamplified sum
        # stays exact there
        exact = getattr(spectral, name)
        amplified = gate == "amplified_born_sound"
        text, error = (FAST + WEAK_TRAP + "m_cells = 3000\n", 1e-7) if amplified else (FAST, 1e-9)

        def perturbed(*args):
            vec, other = exact(*args)
            if amplified and np.max(args[0].potential) <= 0.02:
                return vec, other
            return vec * (1.0 + error), other

        monkeypatch.setattr(spectral, name, perturbed)
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 1
        checks = json.loads((out / "checks.json").read_text())
        assert {g: checks[g]["pass"] for g in ORACLE_GATES} == {g: g != gate for g in ORACLE_GATES}
        assert (out / "born.csv").exists() and (out / "contour.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_born_gate_has_power_where_the_series_ends(self, tmp_path, monkeypatch):
        # in H^5 with a weak narrow trap the Born terms reach exactly 0: the
        # tail reads 0, so the gate's bound stays finite and a Born vector off
        # by 1e-7 relative fails it; the series for 100 V converges there too, to
        # the direct solve within the same form of bound, and that gate passes
        path = write_config(tmp_path, FAST + "d = 5\n" + WEAK_TRAP + "m_cells = 3000\n")
        main(["full-pipeline", "--config", path, "--out", str(tmp_path / "exact")])
        born = (tmp_path / "exact" / "born.csv").read_text().splitlines()[1].split(",")
        assert float(born[3]) == 0.0 and born[4] == "0"
        checks = json.loads((tmp_path / "exact" / "checks.json").read_text())
        assert checks["born_matches_direct"]["pass"] and checks["amplified_born_sound"]["pass"]
        exact = spectral.born_resolvent_apply

        def perturbed(*args):
            vec, tail = exact(*args)
            return vec * (1.0 + 1e-7), tail

        monkeypatch.setattr(spectral, "born_resolvent_apply", perturbed)
        main(["full-pipeline", "--config", path, "--out", str(tmp_path / "off")])
        off = json.loads((tmp_path / "off" / "checks.json").read_text())
        assert not off["born_matches_direct"]["pass"]

    def test_full_pipeline_solves_the_ground_pair_once(self, tmp_path, monkeypatch):
        calls = []
        solve = spectral.solve_ground_state

        def counting_solve(op):
            calls.append(op)
            return solve(op)

        monkeypatch.setattr(spectral, "solve_ground_state", counting_solve)
        main(["full-pipeline", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")])
        assert len(calls) == 1

    def test_fock_check(self, tmp_path):
        path = write_config(tmp_path, "fock_volumes = 1\n")
        out = tmp_path / "out"
        assert main(["fock-check", "--config", path, "--out", str(out)]) == 0
        reports = json.loads((out / "fock.json").read_text())
        assert all(r["rel_error"] < 0.1 for r in reports)

    def test_fock_check_series_reaches_its_closed_form(self, tmp_path):
        # n_max = 5 used to cut the void series at v = 7 to rel_error 2.4
        path = write_config(tmp_path, "d = 3\nfock_volumes = 0.1,3,7\n")
        out = tmp_path / "out"
        assert main(["fock-check", "--config", path, "--out", str(out)]) == 0
        reports = json.loads((out / "fock.json").read_text())
        assert len(reports) == 6
        for rep in reports:
            v = rep["v"]
            closed = v**2 + v if rep["functional"] == "count" else np.exp(-v)
            assert abs(rep["lhs"] - rep["rhs"]) <= 4.0 * rep["lhs_stderr"], rep
            assert rep["tail_bound"] >= abs(closed - rep["rhs"]), rep
            assert rep["n_max"] > v

    def test_fock_check_gates_its_rows(self, tmp_path, capsys):
        # P(N = 0) = e^-30: no draw of 10^5 lands on the void, so its row reads
        # lhs = lhs_stderr = 0 against rhs = e^-60 and fails the gate
        path = write_config(tmp_path, "fock_volumes = 30\n")
        out = tmp_path / "out"
        assert main(["fock-check", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "void v=30" in err and "count" not in err
        void = json.loads((out / "fock.json").read_text())[1]
        assert void["functional"] == "void" and void["lhs"] == void["lhs_stderr"] == 0.0
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("cmd,text,failing", [
        ("full-pipeline", FAST, ["rho_near_zero"]), ("fock-check", "", []),
        ("fock-check", "fock_volumes = 30\n", ["void v=30"])])
    def test_every_gate_is_one_record(self, tmp_path, capsys, cmd, text, failing):
        # each record's pass is its value's comparison with its bound (or with
        # its lo and hi), and the run exits 1 naming exactly the failed gates:
        # FAST's 64 paths to T = 2 leave rho 0.033 from 0, and no draw lands
        # on the void at v = 30
        out, path = tmp_path / "out", write_config(tmp_path, text)
        code = main([cmd, "--config", path, "--out", str(out)])
        checks = json.loads((out / "checks.json").read_text())
        if cmd == "full-pipeline":
            assert sorted(checks) == sorted(ORACLE_GATES + (
                "rho_near_zero", "rho_in_bound", "phi_matches_survival", "q_matches_doob",
                "q_stabilized"))
            # the statistical margins are read off the run's own tables
            phi = np.loadtxt(out / "phi_ratio.csv", delimiter=",", skiprows=1)
            margins = np.abs(phi[:, 1] - phi[:, 3]) / np.maximum(phi[:, 2], 1e-6)
            assert checks["phi_matches_survival"]["value"] == margins.max()
            assert checks["phi_matches_survival"]["probe"] == phi[margins.argmax(), 0]
            rho = float((out / "rho.csv").read_text().splitlines()[1].split(",")[0])
            assert checks["rho_in_bound"]["value"] == rho
            assert checks["rho_near_zero"]["value"] == abs(rho)
            last = (out / "q_stabilization.csv").read_text().splitlines()[-1].split(",")[1]
            assert checks["q_stabilized"]["value"] == float(last)
        else:
            volumes = resolve_config(parse_config(path))["fock_volumes"]
            assert sorted(checks) == sorted(f"{name} v={v:g}" for v in volumes
                                            for name in fock.FUNCTIONALS)
        for name, rec in checks.items():
            value = rec["value"]
            if name == "rho_in_bound":
                assert set(rec) == {"value", "lo", "hi", "pass"}
                want = rec["lo"] <= value <= rec["hi"]
            elif name == "contour_matches_ground":
                want = all(v <= b for v, b in zip(value, rec["bound"]))
            elif name == "amplified_born_sound" and value is None:
                # the series for 100 V diverged: nothing to bound
                want = rec["bound"] is None and (out / "born.csv").read_text().endswith(",1\n")
            elif name == "q_matches_doob":
                want = value > rec["bound"]
            elif name == "q_stabilized":
                want = value < rec["bound"]
            else:
                want = value <= rec["bound"]
            assert rec["pass"] is want, name
        assert sorted(name for name, rec in checks.items() if not rec["pass"]) == failing
        err = capsys.readouterr().err
        named = ast.literal_eval(err.split("gates failed: ", 1)[1].strip()) if failing else []
        assert code == (1 if failing else 0) and sorted(named) == failing

    @pytest.mark.parametrize("volumes", ["0.5,1000", "1e20", "0", ""])
    def test_fock_volume_too_large_to_sum_exits_2(self, tmp_path, capsys, volumes):
        path = write_config(tmp_path, f"fock_volumes = {volumes}\n")
        out = tmp_path / "out"
        assert main(["fock-check", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        refusal = "a ball volume must lie in" if volumes else "need at least one ball volume"
        assert "fock_volumes = " in err and refusal in err
        assert not out.exists()

    def test_pipeline_refuses_poisson_scene_before_sampling(self, tmp_path, capsys,
                                                            monkeypatch):
        # about 2.8e6 traps in window 16: the oracle rule refuses before a draw
        def no_sampling(*args):
            raise AssertionError("sampled a scene the pipeline refuses")

        monkeypatch.setattr(cli, "sample_configuration", no_sampling)
        path = write_config(tmp_path, FAST + "kappa = 0.05\nwindow_radius = 16\n")
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 2
        assert "one trap at o" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_poisson_scene_too_large_fails_before_artifacts(self, tmp_path, capsys):
        # kappa > 0 with the automatic window asks for ~1e19 traps
        path = write_config(tmp_path, FAST + "kappa = 0.05\n")
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 2
        assert "mean count" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("scene", ["planted = 0.5", "planted = 0,2",
                                       "kappa = 0.05\nwindow_radius = 9"],
                             ids=["trap-off-o", "second-trap", "poisson-scene"])
    def test_pipeline_rejects_scene_its_oracle_does_not_describe(self, tmp_path, capsys,
                                                                 scene):
        # the oracle is trap_radial_potential: one trap at o and nothing else
        path = write_config(tmp_path, FAST + scene + "\n")
        out = tmp_path / "out"
        assert main(["full-pipeline", "--config", path, "--out", str(out)]) == 2
        assert "one trap at o" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("window", [60, 800])
    def test_sample_ppp_refuses_scene_too_large(self, tmp_path, capsys, window):
        # mean count 1.8e25 (window 60) and inf (800): refused before any draw
        path = write_config(tmp_path, f"kappa = 0.05\nwindow_radius = {window}\n")
        out = tmp_path / "out"
        assert main(["sample-ppp", "--config", path, "--out", str(out)]) == 2
        assert "mean count" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_planted_trap_outside_window(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST + "planted = 0,8\nwindow_radius = 5\n")
        out = tmp_path / "out"
        assert main(["estimate-rho", "--config", path, "--out", str(out)]) == 2
        assert "outside window_radius" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_phi_profile_far_probe(self, tmp_path):
        # cosh 2r ~ 2.4e8 at r = 10: the probe's <z,z>_J rounds past 1e-8
        path = write_config(tmp_path, FAST + "probes = 0,10\n")
        out = tmp_path / "out"
        assert main(["phi-profile", "--config", path, "--out", str(out)]) == 0
        rows = (out / "phi_ratio.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0, 10.0]

    def test_window_violation_surfaces(self, tmp_path, capsys):
        # a window too small for the declared horizons must fail loudly
        path = write_config(tmp_path, FAST + "window_radius = 1.5\n")
        out = tmp_path / "out"
        assert main(["estimate-z", "--config", path, "--out", str(out)]) == 2
        assert "window too small" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("seed", ["0", "2", "7"])
    def test_window_too_small_is_a_config_error(self, tmp_path, capsys, seed):
        # with r0 = 1 the walk's first step from o leaves a window of 1.05:
        # the scene cannot answer the config, so it exits 2 and writes nothing
        path = write_config(tmp_path, "kappa = 0.05\nplanted =\nwindow_radius = 1.05\n")
        out = tmp_path / "out"
        assert main(["estimate-rho", "--config", path, "--seed", seed, "--out", str(out)]) == 2
        assert "window too small" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["estimate-rho", "--config", path, "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(out)
        for f in outs[0].iterdir():
            if f.name == "timing.txt":
                continue
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name

    def assert_worker_count_byte_identical(self, tmp_path, command, path,
                                           workers=("1", "4")):
        outs = []
        for w in workers:
            out = tmp_path / f"w{w}"
            assert main([command, "--config", path, "--workers", w,
                         "--out", str(out)]) == 0
            outs.append(out)
        for f in outs[0].iterdir():
            if f.name == "timing.txt":
                continue
            for other in outs[1:]:
                assert f.read_bytes() == (other / f.name).read_bytes(), (other.name, f.name)

    def test_simulate_bm_dump_paths(self, tmp_path):
        # ten whole paths from o on the hyperboloid, one row per step of h
        path = write_config(tmp_path, "dump_paths = 1\nn_paths = 12\nT = 1\n")
        self.assert_worker_count_byte_identical(tmp_path, "simulate-bm", path,
                                                workers=("1", "3"))
        dumps = sorted((tmp_path / "w1").glob("path_*.csv"))
        assert [f.name for f in dumps] == [f"path_{i:03d}.csv" for i in range(10)]
        for f in dumps:
            assert f.read_text().splitlines()[0] == "t,z_0,z_1,z_2,r"
            data = np.loadtxt(f, delimiter=",", skiprows=1)
            assert data.shape == (101, 5)
            t, z, r = data[:, 0], data[:, 1:4], data[:, 4]
            assert np.array_equal(t, np.arange(101) * 0.01)
            # the quadratic form itself rounds like eps * z_0^2
            defect = np.max(np.abs(minkowski_dot(z, z) + 1.0))
            assert defect < 1e-12 * np.max(z[:, 0]) ** 2
            assert np.array_equal(r, np.arccosh(z[:, 0]))

    def test_worker_count_byte_identical(self, tmp_path):
        self.assert_worker_count_byte_identical(tmp_path, "q-marginal",
                                                write_config(tmp_path))

    def test_worker_count_byte_identical_poisson_scene(self, tmp_path):
        # a sampled scene of ~1270 traps; paths stay well inside window - r0
        path = write_config(tmp_path, FAST + "kappa = 0.05\nplanted =\n"
                            "window_radius = 9\nt_grid = 0.25,0.5,0.75\n")
        self.assert_worker_count_byte_identical(tmp_path, "estimate-rho", path)

    def test_worker_count_byte_identical_poisson_phi_profile(self, tmp_path):
        # the base and every probe off o walk as one fused ensemble of blocks;
        # 3 and 20 workers do not divide the 16 streams into equal groups
        path = write_config(tmp_path, FAST + "kappa = 0.05\nplanted =\n"
                            "window_radius = 9\nT = 0.75\nprobes = 0,0.5,1,2\n")
        self.assert_worker_count_byte_identical(tmp_path, "phi-profile", path,
                                                workers=("1", "3", "4", "20"))


class TestBuildScene:
    def test_planted_trap_default(self):
        cfg = resolve_config({})
        spec, config, potential = cli.build_scene(cfg)
        assert len(config) == 1
        assert potential.v_max == cfg["vmax"]

    def test_planted_traps_are_exact(self):
        # a trap at p < 0 sits at radius |p| on -e_1, bitwise
        cfg = resolve_config({"planted": [0.0, -1.0, 0.5], "window_radius": 5.0})
        spec, config, potential = cli.build_scene(cfg)
        assert np.array_equal(config.radii, [0.0, 1.0, 0.5])
        assert np.array_equal(config.directions, [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(config.points[1], [np.cosh(1.0), -np.sinh(1.0), 0.0])

    def test_probes_start_exactly_at_their_radii(self):
        cfg = resolve_config({"probes": [0.0, 0.5, 1.0, 2.0], "n_paths": 16})
        spec, config, potential = cli.build_scene(cfg)
        base, probes = cli.walk_origin(cfg, potential, 0.01, cfg["probes"],
                                       snapshot_times=[0.0])
        assert probes[0][1] is base
        for r, ens in probes:
            radii, dirs, _ = ens.snapshot(0.0)
            assert np.all(radii == r)
            assert np.all(dirs == [1.0, 0.0])

    def test_mean_count_guard(self):
        cfg = resolve_config({"kappa": 1.0, "window_radius": 40.0})
        with pytest.raises(ConfigError, match="mean count"):
            cli.build_scene(cfg)


def test_console_script_is_main():
    # pyproject's [project.scripts] entry point names the CLI's main
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hyptrap"]
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_numpy_only_commands_load_no_scipy_polynomial_or_thread_pool(tmp_path):
    # every command runs on numpy alone: importing the CLI, building a
    # sampled Poisson scene and running every command at workers = 1 load no
    # scipy, no numpy.polynomial and no thread pool.  The first command after
    # the import loads no module at all, so no start-up cost moves into a run.
    # A run on 2 workers loads the thread pool and writes the same bytes.
    # The commands run the planted pipeline, on which full-pipeline passes
    # every gate and so reaches every line.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    workloads = Path(cli.__file__).parents[2] / "bench" / "workloads"
    poisson, planted = workloads / "poisson-rho.cfg", workloads / "planted-pipeline.cfg"
    commands = list(cli.HANDLERS)
    code = f"""
import contextlib, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith(("numpy.polynomial", "concurrent.futures")))
def run(*argv):
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(list(argv))
from hyptrap import cli
print(loaded())
before = set(sys.modules)
rc = run("estimate-rho", "--config", {str(poisson)!r}, "--out", {str(tmp_path / "w1")!r})
print(rc, sorted(set(sys.modules) - before))
_, config, _ = cli.build_scene(cli.resolve_config(cli.parse_config({str(poisson)!r})))
print(len(config) > 0, loaded())
for command in {commands!r}:
    rc = run(command, "--config", {str(planted)!r},
             "--out", {str(tmp_path)!r} + "/" + command)
    print(command, rc, loaded())
rc = run("estimate-rho", "--config", {str(poisson)!r}, "--workers", "2",
         "--out", {str(tmp_path / "w2")!r})
print(rc, "concurrent.futures" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == ("[]\n0 []\nTrue []\n" + "".join(f"{c} 0 []\n" for c in commands)
                   + "0 True\n")
    files = sorted(f.name for f in (tmp_path / "w1").iterdir() if f.name != "timing.txt")
    assert files == ["logz.csv", "manifest.json", "rho.csv"]
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_every_config_key_is_read():
    # a DEFAULTS key that no command reads as cfg["key"] is accepted and ignored
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"
            and isinstance(node.slice, ast.Constant)}
    assert sorted(set(cli.DEFAULTS) - read) == []


def test_every_top_level_name_is_used():
    # a function or class that no other line of the package names is reached
    # only by the tests, and belongs with them
    src = Path(cli.__file__).parent
    trees = {f: ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))
             if f.name != "__init__.py"}

    def names(node, skip):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        for child in ast.iter_child_nodes(node):
            yield from names(child, skip)

    unused = [f"{f.name}:{node.name}" for f, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(node.name in names(other, node) for other in trees.values())]
    assert unused == []
