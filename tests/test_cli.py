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

from hyptrap import cli, feynman_kac, geometry
from hyptrap.cli import ConfigError, main, parse_config, resolve_config

FAST = """
# quick smoke settings
n_paths = 64
T = 2
t_grid = 0.5,1,2
marginal_time = 0.25
h = 0.01
m_cells = 300
fock_samples = 2000
"""


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
                                      "marginal_time = -1", "T = -1", "probes = 0,-0.5"])
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

    @pytest.mark.parametrize("cmd", ["q-marginal", "full-pipeline", "doob-compare"])
    def test_marginal_time_must_precede_horizons(self, tmp_path, capsys, cmd):
        # the Q-marginal at t = 1 cannot be read before the horizon 0.5
        path = write_config(tmp_path, FAST + "t_grid = 0.5,1,1.5\nmarginal_time = 1\n")
        out = tmp_path / cmd
        assert main([cmd, "--config", path, "--out", str(out)]) == 2
        assert "marginal_time" in capsys.readouterr().err
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

    @pytest.mark.parametrize("cmd", ["full-pipeline", "doob-compare"])
    def test_pipeline_walks_two_ensembles(self, tmp_path, monkeypatch, cmd):
        # one fused walk from o and the probes serves the rate, the ratios and
        # the Q-marginal; the Doob walk is the other
        calls = []
        walk = feynman_kac.simulate_tilted_ensemble

        def counting_walk(*args, **kwargs):
            calls.append(args[0])
            return walk(*args, **kwargs)

        monkeypatch.setattr(feynman_kac, "simulate_tilted_ensemble", counting_walk)
        main([cmd, "--config", write_config(tmp_path), "--out", str(tmp_path / cmd)])
        assert len(calls) == 2

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

    def test_born_and_contour_checks(self, tmp_path):
        path = write_config(tmp_path, FAST + "born_kmax = 40\n")
        for cmd, artifact in (("born-check", "born.csv"), ("contour-check", "contour.csv")):
            out = tmp_path / cmd
            assert main([cmd, "--config", path, "--out", str(out)]) == 0
            assert (out / artifact).exists()

    def test_fock_check(self, tmp_path):
        path = write_config(tmp_path, "fock_samples = 5000\nfock_volumes = 1\n")
        out = tmp_path / "out"
        assert main(["fock-check", "--config", path, "--out", str(out)]) == 0
        reports = json.loads((out / "fock.json").read_text())
        assert all(r["rel_error"] < 0.1 for r in reports)

    def test_poisson_scene_too_large_fails_before_artifacts(self, tmp_path, capsys):
        # kappa > 0 with the automatic window asks for ~1e19 traps
        path = write_config(tmp_path, FAST + "kappa = 0.05\n")
        for cmd in ("full-pipeline", "doob-compare"):
            out = tmp_path / cmd
            assert main([cmd, "--config", path, "--out", str(out)]) == 2
            assert "mean count" in capsys.readouterr().err
            assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("scene", ["planted = 0.5", "planted = 0,2",
                                       "kappa = 0.05\nwindow_radius = 9"],
                             ids=["trap-off-o", "second-trap", "poisson-scene"])
    def test_pipeline_rejects_scene_its_oracle_does_not_describe(self, tmp_path, capsys,
                                                                 scene):
        # the oracle is trap_radial_potential: one trap at o and nothing else
        path = write_config(tmp_path, FAST + scene + "\n")
        for cmd in ("full-pipeline", "doob-compare"):
            out = tmp_path / cmd
            assert main([cmd, "--config", path, "--out", str(out)]) == 2
            assert "one trap at o" in capsys.readouterr().err
            assert not list(out.glob("*.csv"))

    def test_window_violation_surfaces(self, tmp_path, capsys):
        # a window too small for the declared horizons must fail loudly
        path = write_config(tmp_path, FAST + "window_radius = 1.5\n")
        out = tmp_path / "out"
        assert main(["estimate-z", "--config", path, "--out", str(out)]) == 1
        assert "window too small" in capsys.readouterr().err


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
            defect = np.max(np.abs(geometry.minkowski_dot(z, z) + 1.0))
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # every command starts on numpy and scipy.linalg alone: importing the CLI
    # and building a sampled Poisson scene load no other scipy subpackage
    # (scipy.special and scipy.interpolate load inside the two functions that
    # full-pipeline and doob-compare reach)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    cfg = Path(cli.__file__).parents[2] / "bench" / "workloads" / "poisson-rho.cfg"
    code = f"""
import sys
heavy = ("scipy.integrate", "scipy.interpolate", "scipy.special",
         "scipy.optimize", "scipy.stats")
from hyptrap import cli
print(sorted(m for m in heavy if m in sys.modules))
cfg = cli.resolve_config(cli.parse_config({str(cfg)!r}))
_, config, _ = cli.build_scene(cfg)
print(len(config) > 0, sorted(m for m in heavy if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\nTrue []\n"


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
