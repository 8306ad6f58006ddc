"""Experiment runner: flat-file configs in, CSV/JSON artifacts out.

Every run writes a manifest.json holding the resolved parameters, the seed
and library versions; reruns with the same config and seed are byte-identical
in every artifact (wall time is stored separately in timing.txt so it never
breaks determinism).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hyptrap
from hyptrap import diffusion, feynman_kac, fock, geometry, spectral, stats
from hyptrap.feynman_kac import canonical_axis_point
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialSpec,
    ball_volume,
    check_intensity,
    sample_configuration,
    theorem_regime_bound,
)

DEFAULTS = {
    "d": 2,
    "kappa": 0.0,
    "a": 1.0,
    "r0": 1.0,
    "vmax": 0.1,
    "planted": [0.0],
    "window_radius": 0.0,   # 0 -> auto from the path budget
    "h": 1e-2,
    "n_paths": 1000,
    "T": 10.0,
    "t_grid": [5.0, 10.0, 20.0],
    "marginal_time": 1.0,
    "probes": [0.0, 0.5, 1.0, 2.0, 4.0],
    "r_max": 30.0,
    "m_cells": 3000,
    "n_quad": 64,
    "born_kmax": 60,
    "born_z_im": 0.15,
    "fock_volumes": [0.5, 1.0, 2.0],
    "fock_samples": 100_000,
    "n_max": 12,
    "seed": 0,
    "workers": 1,
    "dump_paths": 0,
    "ks_threshold": 0.01,
    "rho_tolerance": 0.02,
    "ratio_sigma": 4.0,
}


class ConfigError(ValueError):
    pass


def parse_config(path):
    """Flat key=value file; '#' starts a comment; lists are comma separated.
    Each value takes the type of its key's default."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if isinstance(DEFAULTS[key], list):
            out[key] = [float(v) for v in value.split(",") if v.strip()]
        else:
            out[key] = type(DEFAULTS[key])(value)
    return out


def resolve_config(overrides, cli_seed=None, cli_workers=None):
    cfg = dict(DEFAULTS)
    cfg.update(overrides)
    if cli_seed is not None:
        cfg["seed"] = cli_seed
    if cli_workers is not None:
        cfg["workers"] = cli_workers
    if cfg["h"] <= 0 or cfg["h"] > diffusion.MAX_STEP:
        raise ConfigError(f"h must lie in (0, {diffusion.MAX_STEP}]")
    if cfg["d"] < 2:
        raise ConfigError("d must be >= 2")
    if cfg["n_paths"] < 2:
        raise ConfigError("n_paths must be >= 2")
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    if min(cfg["probes"], default=0.0) < 0:
        raise ConfigError(f"probes are radii and must be >= 0, got {cfg['probes']}")
    for key in ("T", "t_grid", "marginal_time"):
        for t in cfg[key] if isinstance(DEFAULTS[key], list) else [cfg[key]]:
            if not diffusion.on_step_grid(t, cfg["h"]):
                raise ConfigError(f"{key} value {t:g} is not a whole number (>= 0) of "
                                  f"steps of h = {cfg['h']:g}")
    # the scene's and the oracle's own bounds
    for keys, check in ((("a", "r0", "vmax"), PotentialSpec),
                        (("kappa",), check_intensity),
                        (("r_max", "m_cells"), spectral.check_grid)):
        try:
            check(*(cfg[k] for k in keys))
        except ValueError as exc:
            raise ConfigError(", ".join(f"{k} = {cfg[k]:g}" for k in keys) + f": {exc}")
    return cfg


def path_budget(cfg, horizon):
    """Geodesic radius the paths can plausibly reach by the horizon."""
    start = max(cfg["probes"]) if cfg["probes"] else 0.0
    return start + 0.5 * (cfg["d"] - 1) * horizon + 6.0 * np.sqrt(horizon) + 5.0


def build_scene(cfg, rng=None):
    """Planted + optionally sampled configuration, and its factor potential."""
    d = cfg["d"]
    horizon = max([cfg["T"]] + list(cfg["t_grid"]))
    window = cfg["window_radius"]
    if window <= 0:
        window = path_budget(cfg, horizon) + cfg["r0"]
    planted = [canonical_axis_point(d, r).z for r in cfg["planted"]]
    pts = np.asarray(planted).reshape(-1, d + 1)
    if cfg["kappa"] > 0:
        mean = cfg["kappa"] * ball_volume(d, window)
        if mean > 1e7:
            raise ConfigError(
                f"sampled PPP in this window has mean count {mean:.3g}; "
                "shrink window_radius, kappa or the horizon"
            )
        sampled = sample_configuration(d, window, cfg["kappa"],
                                       rng or np.random.default_rng(cfg["seed"]))
        if len(sampled):
            pts = np.vstack([pts, sampled.points]) if len(pts) else sampled.points
    config = Configuration(pts, window, cfg["kappa"], d)
    spec = PotentialSpec(cfg["a"], cfg["r0"], cfg["vmax"])
    return spec, config, FactorPotential(spec, config)


def trap_radial_potential(cfg):
    """The radial profile of the planted-trap potential (single trap at o)."""
    spec = PotentialSpec(cfg["a"], cfg["r0"], cfg["vmax"])

    def V(r):
        return np.minimum(spec.v_max, spec.profile(r))

    return V


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                for x in row) + "\n")


def write_manifest(out_dir, command, cfg, extra=None):
    # worker count is an execution detail like wall time: it never affects the
    # numbers, so it stays out of the manifest to keep reruns byte-identical
    params = {k: v for k, v in cfg.items() if k != "workers"}
    manifest = {
        "command": command,
        "parameters": params,
        "seed": cfg["seed"],
        "regime": "theorem-1" if cfg["vmax"] < theorem_regime_bound(cfg["d"]) else "above-threshold",
        "versions": {
            "hyptrap": hyptrap.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        manifest.update(extra)
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_sample_ppp(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    window = cfg["window_radius"] or 5.0
    config = sample_configuration(cfg["d"], window, cfg["kappa"], rng)
    (out / "configuration.json").write_text(config.to_json() + "\n")
    write_csv(out / "summary.csv", "n_points,window_radius,kappa,mean_count",
              [(len(config), float(window), cfg["kappa"],
                cfg["kappa"] * ball_volume(cfg["d"], window))])
    return {}


def cmd_simulate_bm(cfg, out):
    d, T, h, N = cfg["d"], cfg["T"], cfg["h"], cfg["n_paths"]
    if T <= 0:
        raise ConfigError(f"T must be positive to read a radial speed r_T / T, got {T:g}")
    ens = feynman_kac.simulate_tilted_ensemble(
        geometry.origin(d), None, T, h, N, cfg["seed"], workers=cfg["workers"])
    radii = ens.final_radii
    write_csv(out / "radial.csv", "T,mean_r,stderr_r,mean_r_over_T",
              [(T, float(radii.mean()), float(radii.std(ddof=1) / np.sqrt(N)),
                float(radii.mean() / T))])
    if cfg["dump_paths"]:
        # up to 10 whole paths from o, walked one after another on one generator
        m = int(round(T / h))
        rng = np.random.default_rng(cfg["seed"])
        r0, u0 = diffusion.polar_from_ambient(geometry.origin(d).z[None, :])
        header = "t," + ",".join(f"z_{i}" for i in range(d + 1)) + ",r"
        for i in range(min(N, 10)):
            snaps = diffusion.ensemble_walk(r0, u0, m, h, rng,
                                            snapshot_steps=range(m + 1)).snapshots
            pts = np.vstack([diffusion.ambient_from_polar(*snaps[k][:2]) for k in range(m + 1)])
            np.savetxt(out / f"path_{i:03d}.csv",
                       np.column_stack([np.arange(m + 1) * h, pts, geometry.radius_batch(pts)]),
                       delimiter=",", header=header, comments="")
    return {}


def cmd_estimate_z(cfg, out):
    spec, config, potential = build_scene(cfg)
    est = feynman_kac.estimate_Z(geometry.origin(cfg["d"]), potential, cfg["T"],
                                 cfg["h"], cfg["n_paths"], cfg["seed"],
                                 workers=cfg["workers"])
    write_csv(out / "z.csv", "T,Z,stderr,ess,n_paths",
              [(cfg["T"], est.z_hat, est.stderr, float(est.ensemble.ess), cfg["n_paths"])])
    return {}


def _write_rho(out, est):
    write_csv(out / "rho.csv", "rho_hat,rho_stderr,flagged",
              [(est.rho_hat, est.rho_stderr, int(est.diagnostics["flagged"]))])


def _check_rho_horizons(cfg):
    """The decay-rate fit needs three distinct horizons; fail before simulating."""
    if len(set(cfg["t_grid"])) < 3:
        raise ConfigError(f"t_grid needs at least three distinct horizons to fit a "
                          f"decay rate, got {cfg['t_grid']}")


def _check_marginal_time(cfg):
    """The Q-marginal is read before every horizon; fail before simulating."""
    if cfg["marginal_time"] >= min(cfg["t_grid"], default=0.0):
        raise ConfigError(f"marginal_time {cfg['marginal_time']:g} must precede every "
                          f"horizon in t_grid, got {cfg['t_grid']}")


def walk_origin(cfg, potential, T, probes=(), snapshot_times=()):
    """Walk o and every probe off o (probes are radii on the e_1 axis) as one
    fused ensemble to T on the config's seed.  Returns the ensemble from o and
    the (radius, ensemble) pair of each probe; a probe at o reads the ensemble
    from o itself."""
    o = geometry.origin(cfg["d"])
    ensembles = feynman_kac.simulate_tilted_ensemble(
        [o] + [canonical_axis_point(cfg["d"], r) for r in probes if r > 0.0], potential, T,
        cfg["h"], cfg["n_paths"], cfg["seed"], snapshot_times=snapshot_times,
        workers=cfg["workers"])
    moved = iter(ensembles[1:])
    return ensembles[0], [(r, next(moved) if r > 0.0 else ensembles[0]) for r in probes]


def cmd_estimate_rho(cfg, out):
    _check_rho_horizons(cfg)
    spec, config, potential = build_scene(cfg)
    base, _ = walk_origin(cfg, potential, max(cfg["t_grid"]), snapshot_times=cfg["t_grid"])
    est = feynman_kac.estimate_rho(base, cfg["t_grid"])
    _write_rho(out, est)
    write_csv(out / "logz.csv", "T,neg_log_z",
              list(zip(est.diagnostics["T_grid"],
                       [-lz for lz in est.diagnostics["log_z"]])))
    return {"rho_hat": est.rho_hat}


def cmd_phi_profile(cfg, out):
    spec, config, potential = build_scene(cfg)
    table = feynman_kac.estimate_phi_ratio(*walk_origin(cfg, potential, cfg["T"],
                                                        cfg["probes"]))
    write_csv(out / "phi_ratio.csv", "r,ratio,stderr", table)
    return {}


def cmd_q_marginal(cfg, out):
    _check_marginal_time(cfg)
    spec, config, potential = build_scene(cfg)
    t = cfg["marginal_time"]
    base, _ = walk_origin(cfg, potential, max(cfg["t_grid"]),
                          snapshot_times=[t, *cfg["t_grid"]])
    qm = feynman_kac.q_marginal(base, t, cfg["t_grid"])
    rows = []
    for i, r in enumerate(qm.radii):
        rows.append([float(r)] + [float(qm.weights_by_T[T][i]) for T in sorted(qm.weights_by_T)])
    ts = sorted(qm.weights_by_T)
    write_csv(out / "q_marginal.csv", "r," + ",".join(f"w_T{T:g}" for T in ts), rows)
    write_csv(out / "q_stabilization.csv", "T_pair,sup_distance",
              [(f"{a:g}->{b:g}", dist) for (a, b, dist) in
               zip(ts[:-1], ts[1:], qm.sup_distances)])
    return {"sup_distances": qm.sup_distances}


def _oracle(cfg):
    op = spectral.build_radial_operator(cfg["d"], cfg["r_max"], cfg["m_cells"],
                                        trap_radial_potential(cfg))
    return op, spectral.solve_ground_state(op)


def cmd_radial_oracle(cfg, out):
    op, spec_out = _oracle(cfg)
    spectral.eigenpair_to_csv(spec_out, out / "eigenpair.csv")
    h_fn = spectral.survival_harmonic(op)
    write_csv(out / "survival.csv", "r,h",
              list(zip(op.grid.tolist(), h_fn.tolist())))
    write_csv(out / "spectrum.csv", "rho,gap,r_max,m,d",
              [(spec_out.rho, spec_out.gap, cfg["r_max"], cfg["m_cells"], cfg["d"])])
    return {"rho": spec_out.rho, "gap": spec_out.gap}


def cmd_born_check(cfg, out):
    op, spec_out = _oracle(cfg)
    z = spec_out.rho + 1j * cfg["born_z_im"]
    w = np.ones(op.m)
    born, tail = spectral.born_resolvent_apply(op, z, w, cfg["born_kmax"])
    direct = spectral.direct_resolvent_solve(op, z, w)
    rel = float(np.sqrt(op.weighted_dot(born - direct, born - direct))
                / np.sqrt(op.weighted_dot(direct, direct)))
    amplified = spectral.build_radial_operator(
        cfg["d"], cfg["r_max"], cfg["m_cells"],
        lambda r: 100.0 * trap_radial_potential(cfg)(r))
    try:
        spectral.born_resolvent_apply(amplified, z, w, cfg["born_kmax"])
        diverged = 0
    except spectral.BornDivergenceError:
        diverged = 1
    write_csv(out / "born.csv", "z_re,z_im,rel_error,tail_bound,amplified_diverges",
              [(float(np.real(z)), float(np.imag(z)), rel, float(tail), diverged)])
    return {"rel_error": rel, "amplified_diverges": diverged}


def cmd_contour_check(cfg, out):
    op, spec_out = _oracle(cfg)
    center = spec_out.rho
    radius = spec_out.gap / 2.0
    vec, rayleigh = spectral.contour_projector(op, center, radius, cfg["n_quad"])
    diff = vec - spec_out.phi
    err_vec = float(np.sqrt(op.weighted_dot(diff, diff)))
    err_val = abs(rayleigh - spec_out.rho)
    write_csv(out / "contour.csv", "center,radius,n_quad,vec_error,rayleigh_error",
              [(center, radius, cfg["n_quad"], err_vec, err_val)])
    return {"vec_error": err_vec, "rayleigh_error": err_val}


def cmd_fock_check(cfg, out):
    reports = []
    for v in cfg["fock_volumes"]:
        radius = fock.radius_for_volume(cfg["d"], v)
        region = fock.BallRegion(geometry.origin(cfg["d"]), radius)
        for name in ("count", "void"):
            rep = fock.isometry_check(name, region, cfg["d"], n_max=cfg["n_max"],
                                      mc_samples=cfg["fock_samples"], seed=cfg["seed"])
            reports.append(rep)
    with open(out / "fock.json", "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"max_rel_error": max(r["rel_error"] for r in reports)}


def cmd_doob_compare(cfg, out):
    return _pipeline_core(cfg, out, include_rho=False)


def cmd_full_pipeline(cfg, out):
    return _pipeline_core(cfg, out, include_rho=True)


def _pipeline_core(cfg, out, include_rho):
    """Planted-trap end-to-end: oracle -> MC rate -> phi ratios -> Q vs Doob.

    The quantitative targets are the transient-case ground-state pair: decay
    rate zero and the survival harmonic h (the positive solution of
    (-1/2 Lap + V) h = 0), whose Doob transform generates the limiting
    Q-process for a compactly supported trap.  The ratios walk to the finite
    horizon T = max(t_grid), so they are gated against Z_T(r)/Z_T(0) with
    Z_T = h + e^{-TH}(1 - h) (`spectral.finite_horizon_survival`), which
    tends to h(r)/h(0) as T grows.
    """
    checks = {}
    # the config first: one that cannot be answered fails before any artifact
    if include_rho:
        _check_rho_horizons(cfg)
    _check_marginal_time(cfg)
    spec, config, potential = build_scene(cfg)
    if cfg["planted"] != [0.0] or cfg["kappa"] != 0:
        raise ConfigError("the oracle is one trap at o, so this command needs "
                          "planted = 0 and kappa = 0")
    op, spec_out = _oracle(cfg)
    spectral.eigenpair_to_csv(spec_out, out / "eigenpair.csv")
    h_surv = spectral.survival_harmonic(op)
    write_csv(out / "survival.csv", "r,h", list(zip(op.grid.tolist(), h_surv.tolist())))

    # one walk from o and the probes serves the rate, the ratios and the
    # Q-marginal
    T = max(cfg["t_grid"])
    base, probes = walk_origin(cfg, potential, T, cfg["probes"],
                               snapshot_times=[*cfg["t_grid"], cfg["marginal_time"]])
    if include_rho:
        est = feynman_kac.estimate_rho(base, cfg["t_grid"])
        _write_rho(out, est)
        checks["rho_near_zero"] = bool(abs(est.rho_hat) <= cfg["rho_tolerance"])
        checks["rho_in_bound"] = bool(
            -3.0 * est.rho_stderr - 1e-9 <= est.rho_hat
            <= potential.v_max + 3.0 * est.rho_stderr)

    # eigenfunction ratios against the finite-horizon survival Z_T at the
    # walk's own horizon; Z_T(r)/Z_T(0) tends to h(r)/h(0) as T grows
    table = feynman_kac.estimate_phi_ratio(base, probes)
    from scipy.interpolate import PchipInterpolator

    z_interp = PchipInterpolator(op.grid, spectral.finite_horizon_survival(op, T))
    z0 = float(z_interp(1e-9))
    rows = []
    ok = True
    for r, ratio, se in table:
        target = float(z_interp(r)) / z0
        rows.append((r, ratio, se, target))
        if abs(ratio - target) > cfg["ratio_sigma"] * max(se, 1e-6):
            ok = False
    write_csv(out / "phi_ratio.csv", "r,ratio,stderr,survival_ratio", rows)
    checks["phi_matches_survival"] = bool(ok)

    # Q-process marginal vs Doob transform of the survival harmonic
    qm = feynman_kac.q_marginal(base, cfg["marginal_time"], cfg["t_grid"])
    doob_r = feynman_kac.doob_final_radii(
        geometry.origin(cfg["d"]), op.grid, h_surv, cfg["marginal_time"], cfg["h"],
        cfg["n_paths"], cfg["seed"] + 1, workers=cfg["workers"])
    dstat, pval = stats.weighted_ks_2samp(qm.radii, qm.weights_by_T[T],
                                          doob_r, np.ones(len(doob_r)))
    write_csv(out / "doob_compare.csv", "t,T,ks_statistic,p_value",
              [(cfg["marginal_time"], T, dstat, pval)])
    checks["q_matches_doob"] = bool(pval > cfg["ks_threshold"])
    checks["q_stabilized"] = bool(
        not qm.sup_distances or qm.sup_distances[-1] < 4.0 / np.sqrt(cfg["n_paths"]))

    with open(out / "checks.json", "w") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise RuntimeError(f"pipeline cross-checks failed: {failed}")
    return {"checks": checks}


HANDLERS = {
    "sample-ppp": cmd_sample_ppp,
    "simulate-bm": cmd_simulate_bm,
    "estimate-z": cmd_estimate_z,
    "estimate-rho": cmd_estimate_rho,
    "phi-profile": cmd_phi_profile,
    "q-marginal": cmd_q_marginal,
    "doob-compare": cmd_doob_compare,
    "radial-oracle": cmd_radial_oracle,
    "born-check": cmd_born_check,
    "contour-check": cmd_contour_check,
    "fock-check": cmd_fock_check,
    "full-pipeline": cmd_full_pipeline,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hyptrap",
        description="Brownian motion among Poissonian soft traps on H^d",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", type=str, default=None, help="flat key=value file")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=str, default="out")
    args = parser.parse_args(argv)

    try:
        overrides = parse_config(args.config) if args.config else {}
        cfg = resolve_config(overrides, cli_seed=args.seed, cli_workers=args.workers)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    try:
        extra = HANDLERS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0
    write_manifest(out, args.command, cfg, extra={"results": _jsonable(extra)})
    (out / "timing.txt").write_text(f"wall_time_seconds={wall:.3f}\n")
    print(f"{args.command}: artifacts in {out} ({wall:.1f}s)")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


if __name__ == "__main__":
    sys.exit(main())
