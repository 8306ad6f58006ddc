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

import hyptrap
from hyptrap import diffusion, feynman_kac, fock, spectral, stats
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialSpec,
    WindowError,
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
    "fock_volumes": [0.5, 1.0, 2.0],
    "seed": 0,
    "workers": 1,
    "dump_paths": 0,
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
                        (("r_max", "m_cells"), spectral.check_grid),
                        (("fock_volumes",), fock.check_volumes)):
        try:
            check(*(cfg[k] for k in keys))
        except ValueError as exc:
            given = (f"{k} = " + ",".join(f"{x:g}" for x in np.atleast_1d(cfg[k])) for k in keys)
            raise ConfigError(", ".join(given) + f": {exc}")
    return cfg


def _check(rule, *args):
    """A command's own rule on the config, checked before simulating: exit 2."""
    try:
        rule(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def mean_count(cfg, window):
    """The mean trap count of the PPP in the window; refuse a scene too large
    to sample before drawing any of it."""
    mean = cfg["kappa"] * ball_volume(cfg["d"], window)
    if mean > 1e7:
        raise ConfigError(
            f"sampled PPP in this window has mean count {mean:.3g}; "
            "shrink window_radius, kappa or the horizon"
        )
    return mean


def scene_window(cfg):
    """The window radius (if 0, r0 past where the paths plausibly reach by the
    horizon); refuses a planted trap outside it and a scene too large to draw."""
    window = cfg["window_radius"]
    if window <= 0:
        horizon = max([cfg["T"]] + list(cfg["t_grid"]))
        window = (max(cfg["probes"], default=0.0) + 0.5 * (cfg["d"] - 1) * horizon
                  + 6.0 * np.sqrt(horizon) + 5.0 + cfg["r0"])
    farthest = max(map(abs, cfg["planted"]), default=0.0)
    if farthest > window:
        raise ConfigError(f"planted trap at radius {farthest:g} lies outside "
                          f"window_radius {window:g}")
    if cfg["kappa"] > 0:
        mean_count(cfg, window)
    return window


def build_scene(cfg):
    """Planted + optionally sampled configuration, and its factor potential."""
    d = cfg["d"]
    window = scene_window(cfg)
    radii, dirs = diffusion.on_axis(d, cfg["planted"])
    if cfg["kappa"] > 0:
        sampled = sample_configuration(d, window, cfg["kappa"], np.random.default_rng(cfg["seed"]))
        radii = np.concatenate([radii, sampled.radii])
        dirs = np.concatenate([dirs, sampled.directions])
    config = Configuration(radii, dirs, window, cfg["kappa"])
    spec = PotentialSpec(cfg["a"], cfg["r0"], cfg["vmax"])
    return spec, config, FactorPotential(spec, config)


def trap_radial_potential(cfg):
    """The radial profile of the planted-trap potential (single trap at o)."""
    spec = PotentialSpec(cfg["a"], cfg["r0"], cfg["vmax"])

    def V(r):
        return np.minimum(spec.v_max, spec.profile(r))

    return V


def write_csv(path, header, rows):
    # floats as their shortest round-trip repr, a numpy scalar through float
    # (numpy 2 reprs it as np.float64(...)); Python floats, the common case,
    # are tested first
    lines = [header, *(",".join([repr(x) if type(x) is float
                                 else repr(float(x)) if isinstance(x, np.floating)
                                 else str(x) for x in row]) for row in rows)]
    with open(path, "w") as fh:
        fh.write("".join([line + "\n" for line in lines]))


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command, cfg, results):
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
        },
        "results": results,
    }
    write_json(Path(out_dir) / "manifest.json", manifest)


def gate(value, passed, **fields):
    """One gate's record: its value, its bound (or lo and hi), any detail, and its verdict."""
    return {"value": value, **fields, "pass": bool(passed)}


def write_gates(out, gates):
    """Write every gate's record to checks.json; fail (exit 1) naming each failed gate."""
    write_json(out / "checks.json", gates)
    failed = [name for name, record in gates.items() if not record["pass"]]
    if failed:
        raise RuntimeError(f"gates failed: {failed}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_sample_ppp(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    window = cfg["window_radius"] or 5.0
    mean = mean_count(cfg, window)
    config = sample_configuration(cfg["d"], window, cfg["kappa"], rng)
    (out / "configuration.json").write_text(json.dumps(
        {"d": config.d, "window_radius": config.window_radius,
         "intensity": config.intensity, "points": config.points.tolist()}) + "\n")
    write_csv(out / "summary.csv", "n_points,window_radius,kappa,mean_count",
              [(len(config), float(window), cfg["kappa"], mean)])
    return {}


def cmd_simulate_bm(cfg, out):
    d, T, h, N = cfg["d"], cfg["T"], cfg["h"], cfg["n_paths"]
    if T <= 0:
        raise ConfigError(f"T must be positive to read a radial speed r_T / T, got {T:g}")
    o = diffusion.on_axis(d, [0.0])
    ens, = feynman_kac.simulate_tilted_ensemble(o, None, T, h, N, cfg["seed"],
                                                workers=cfg["workers"])
    radii = ens.final_radii
    write_csv(out / "radial.csv", "T,mean_r,stderr_r,mean_r_over_T",
              [(T, float(radii.mean()), float(radii.std(ddof=1) / np.sqrt(N)),
                float(radii.mean() / T))])
    if cfg["dump_paths"]:
        # up to 10 whole paths from o, walked one after another on one generator
        m = int(round(T / h))
        rng = np.random.default_rng(cfg["seed"])
        header = "t," + ",".join(f"z_{i}" for i in range(d + 1)) + ",r"
        for i in range(min(N, 10)):
            snaps = diffusion.ensemble_walk(*o, m, h, rng,
                                            snapshot_steps=range(m + 1)).snapshots
            pts = np.vstack([diffusion.ambient_from_polar(*snaps[k][:2]) for k in range(m + 1)])
            np.savetxt(out / f"path_{i:03d}.csv",
                       np.column_stack([np.arange(m + 1) * h, pts,
                                        diffusion.polar_from_ambient(pts)[0]]),
                       delimiter=",", header=header, comments="")
    return {}


def cmd_estimate_z(cfg, out):
    spec, config, potential = build_scene(cfg)
    est = feynman_kac.estimate_Z(diffusion.on_axis(cfg["d"], [0.0]), potential, cfg["T"],
                                 cfg["h"], cfg["n_paths"], cfg["seed"],
                                 workers=cfg["workers"])
    write_csv(out / "z.csv", "T,Z,stderr,ess,n_paths",
              [(cfg["T"], est.z_hat, est.stderr, float(est.ensemble.ess), cfg["n_paths"])])
    return {}


def _write_rho(out, est):
    write_csv(out / "rho.csv", "rho_hat,rho_stderr,flagged",
              [(est.rho_hat, est.rho_stderr, int(est.diagnostics["flagged"]))])
    write_csv(out / "logz.csv", "T,neg_log_z",
              list(zip(est.diagnostics["T_grid"],
                       [-lz for lz in est.diagnostics["log_z"]])))


def _write_q(out, qm):
    ts = sorted(qm.weights_by_T)
    write_csv(out / "q_marginal.csv", "r," + ",".join(f"w_T{T:g}" for T in ts),
              [[float(r)] + [float(qm.weights_by_T[T][i]) for T in ts]
               for i, r in enumerate(qm.radii)])
    write_csv(out / "q_stabilization.csv", "T_pair,sup_distance",
              [(f"{a:g}->{b:g}", dist) for (a, b, dist) in
               zip(ts[:-1], ts[1:], qm.sup_distances)])


def walk_origin(cfg, potential, T, probes=(), snapshot_times=()):
    """Walk o and every probe off o (probes are radii on the e_1 axis) as one
    fused ensemble to T on the config's seed.  Returns the ensemble from o and
    the (radius, ensemble) pair of each probe; a probe at o reads the ensemble
    from o itself."""
    starts = diffusion.on_axis(cfg["d"], [0.0] + [r for r in probes if r > 0.0])
    ensembles = feynman_kac.simulate_tilted_ensemble(
        starts, potential, T, cfg["h"], cfg["n_paths"], cfg["seed"],
        snapshot_times=snapshot_times, workers=cfg["workers"])
    moved = iter(ensembles[1:])
    return ensembles[0], [(r, next(moved) if r > 0.0 else ensembles[0]) for r in probes]


def cmd_estimate_rho(cfg, out):
    _check(feynman_kac.check_horizons, cfg["t_grid"])
    spec, config, potential = build_scene(cfg)
    base, _ = walk_origin(cfg, potential, max(cfg["t_grid"]), snapshot_times=cfg["t_grid"])
    est = feynman_kac.estimate_rho(base, cfg["t_grid"])
    _write_rho(out, est)
    return {"rho_hat": est.rho_hat}


def cmd_phi_profile(cfg, out):
    spec, config, potential = build_scene(cfg)
    table = feynman_kac.estimate_phi_ratio(*walk_origin(cfg, potential, cfg["T"],
                                                        cfg["probes"]))
    write_csv(out / "phi_ratio.csv", "r,ratio,stderr", table)
    return {}


def cmd_q_marginal(cfg, out):
    _check(feynman_kac.check_marginal_time, cfg["marginal_time"], cfg["t_grid"])
    spec, config, potential = build_scene(cfg)
    t = cfg["marginal_time"]
    base, _ = walk_origin(cfg, potential, max(cfg["t_grid"]),
                          snapshot_times=[t, *cfg["t_grid"]])
    qm = feynman_kac.q_marginal(base, t, cfg["t_grid"])
    _write_q(out, qm)
    return {"sup_distances": qm.sup_distances}


def _write_oracle(cfg, out):
    """eigenpair.csv, survival.csv and spectrum.csv; returns the operator, its
    ground pair and the survival harmonic h on the grid."""
    op = spectral.build_radial_operator(cfg["d"], cfg["r_max"], cfg["m_cells"],
                                        trap_radial_potential(cfg))
    spec_out = spectral.solve_ground_state(op)
    write_csv(out / "eigenpair.csv",
              f"# rho={float(spec_out.rho)!r} gap={float(spec_out.gap)!r} "
              f"R_max={float(op.r_max)!r} M={op.m} d={op.d}\nr,phi",
              list(zip(spec_out.grid.tolist(), spec_out.phi.tolist())))
    h_surv = spectral.survival_harmonic(op)
    write_csv(out / "survival.csv", "r,h", list(zip(op.grid.tolist(), h_surv.tolist())))
    write_csv(out / "spectrum.csv", "rho,gap,r_max,m,d",
              [(spec_out.rho, spec_out.gap, cfg["r_max"], cfg["m_cells"], cfg["d"])])
    return op, spec_out, h_surv


def cmd_radial_oracle(cfg, out):
    _, spec_out, _ = _write_oracle(cfg, out)
    return {"rho": spec_out.rho, "gap": spec_out.gap}


# the gates of fock-check and full-pipeline, fixed so that no config can
# loosen them
FOCK_SIGMA = 5.0
RHO_TOLERANCE = 0.02
RATIO_SIGMA = 4.0
KS_THRESHOLD = 0.01


def cmd_fock_check(cfg, out):
    """Each row passes when its Monte Carlo norm is within FOCK_SIGMA standard
    errors plus the series' tail bound of the Fock norm; a row whose draws
    never resolve the functional (stderr 0, lhs off) fails."""
    reports = [fock.isometry_check(name, cfg["d"], v, seed=cfg["seed"])
               for v in cfg["fock_volumes"] for name in fock.FUNCTIONALS]
    write_json(out / "fock.json", reports)
    gates = {}
    for r in reports:
        off, bound = abs(r["lhs"] - r["rhs"]), FOCK_SIGMA * r["lhs_stderr"] + r["tail_bound"]
        gates[f"{r['functional']} v={r['v']:g}"] = gate(off, off <= bound, bound=bound)
    write_gates(out, gates)
    return {"max_rel_error": max(r["rel_error"] for r in reports)}


def cmd_full_pipeline(cfg, out):
    """Planted-trap end-to-end: oracle -> MC rate -> phi ratios -> Q-marginal law.

    It writes radial-oracle's, estimate-rho's and q-marginal's tables with their
    writers, phi-profile's with a fourth column, all from one walk, and the
    oracle's born.csv and contour.csv, before its gates set the exit code.

    The quantitative targets are the transient-case ground-state pair: decay
    rate zero and the survival harmonic h (the positive solution of
    (-1/2 Lap + V) h = 0), whose Doob transform generates the limiting
    Q-process for a compactly supported trap.  The ratios walk to the finite
    horizon T = max(t_grid), so they are gated against Z_T(r)/Z_T(0) with
    Z_T = h + e^{-TH}(1 - h) (`spectral.finite_horizon_survival`), which
    tends to h(r)/h(0) as T grows, and the Q-marginal at t is gated against
    its exact law at the same t and T (`spectral.q_marginal_law`), whose T ->
    infinity limit is the Doob transform by h.
    """
    # the config first: one that cannot be answered fails before any artifact
    _check(feynman_kac.check_horizons, cfg["t_grid"])
    _check(feynman_kac.check_marginal_time, cfg["marginal_time"], cfg["t_grid"])
    scene_window(cfg)
    if cfg["planted"] != [0.0] or cfg["kappa"] != 0:
        raise ConfigError("the oracle is one trap at o, so this command needs "
                          "planted = 0 and kappa = 0")
    if cfg["marginal_time"] <= 0:
        raise ConfigError("the Q-marginal at marginal_time 0 is the point mass at o, "
                          "which its law has no test for: marginal_time must be positive")
    spec, config, potential = build_scene(cfg)
    op, ground, _ = _write_oracle(cfg, out)

    # the oracle's self-checks: each error is gated by its method's own error plus
    # rounding (u the unit roundoff, ||H|| the Gershgorin bound ground.norm_bound);
    # a backward stable tridiagonal solve at z is off by u ||H|| / dist(z, spectrum)
    u = 2.0**-53
    z = ground.rho + 0.15j  # the ground energy, 0.15 off the real axis
    w = np.ones(op.m)

    def born_error(op, norm_bound):
        """The Born sum's error relative to the direct solve, and its bound: the
        tail, plus u ||H|| / |Im z| for each of the N_BORN + 2 solves (the Born
        orders and the direct one), as |Im z| <= dist(z, spectrum) for a self-adjoint H."""
        born, tail = spectral.born_resolvent_apply(op, z, w)
        direct = spectral.direct_resolvent_solve(op, z, w)
        norm = op.weighted_norm(direct)
        return (float(op.weighted_norm(born - direct) / norm), float(tail),
                float(tail / norm) + (spectral.N_BORN + 2) * u * norm_bound / 0.15)

    rel, tail, born_bound = born_error(op, ground.norm_bound)
    # the series for 100 V either diverges or, where 100 V is still small enough,
    # converges to the direct solve within the same bound; ||H + 99 V|| is at
    # most ||H|| + 99 max V
    amplified = spectral.build_radial_operator(cfg["d"], cfg["r_max"], cfg["m_cells"],
                                               lambda r: 100.0 * trap_radial_potential(cfg)(r))
    try:
        amp_rel, _, amp_bound = born_error(
            amplified, ground.norm_bound + 99.0 * float(np.max(op.potential)))
    except spectral.BornDivergenceError:
        amp_rel = amp_bound = None  # a diverged series has no error to bound
    diverged = int(amp_rel is None)
    write_csv(out / "born.csv", "z_re,z_im,rel_error,tail_bound,amplified_diverges",
              [(float(np.real(z)), float(np.imag(z)), rel, float(tail), diverged)])
    radius = ground.gap / 2.0
    vec, rayleigh = spectral.contour_projector(ground, ground.rho, radius)
    vec_error, rayleigh_error = float(op.weighted_norm(vec - ground.phi)), abs(rayleigh - ground.rho)
    write_csv(out / "contour.csv", "center,radius,n_quad,vec_error,rayleigh_error",
              [(ground.rho, radius, spectral.N_QUAD, vec_error, rayleigh_error)])
    # N trapezoid nodes weigh an eigenvalue a from the centre by 1/(1 - (a/radius)^N)
    # inside the circle and by about (radius/a)^N outside (Trefethen and Weideman,
    # SIAM Review 2014): exact for rho at the centre, 2^-N for rho + gap at 2 radius,
    # less further out; every node is radius or more from the spectrum, and phi's
    # inverse iteration is off by about u ||H|| / gap itself
    vec_bound = 2.0**-spectral.N_QUAD + u * ground.norm_bound * (1 / radius + 1 / ground.gap)
    # a unit vector e from phi has its Rayleigh quotient within ||H|| e^2 of rho,
    # and the quotient's m-term sum, added pairwise, rounds by about log2(m) u ||H||
    rayleigh_bound = ground.norm_bound * (vec_bound**2 + op.m.bit_length() * u)
    checks = {"born_matches_direct": gate(rel, rel <= born_bound, bound=born_bound),
              "amplified_born_sound": gate(amp_rel, diverged or amp_rel <= amp_bound,
                                           bound=amp_bound),
              "contour_matches_ground": gate(
                  [vec_error, rayleigh_error],
                  vec_error <= vec_bound and rayleigh_error <= rayleigh_bound,
                  bound=[vec_bound, rayleigh_bound])}

    # one walk from o and the probes serves the rate, the ratios and the
    # Q-marginal
    T = max(cfg["t_grid"])
    base, probes = walk_origin(cfg, potential, T, cfg["probes"],
                               snapshot_times=[*cfg["t_grid"], cfg["marginal_time"]])
    est = feynman_kac.estimate_rho(base, cfg["t_grid"])
    _write_rho(out, est)
    checks["rho_near_zero"] = gate(abs(est.rho_hat), abs(est.rho_hat) <= RHO_TOLERANCE,
                                   bound=RHO_TOLERANCE)
    lo, hi = -3.0 * est.rho_stderr - 1e-9, potential.v_max + 3.0 * est.rho_stderr
    checks["rho_in_bound"] = gate(est.rho_hat, lo <= est.rho_hat <= hi, lo=lo, hi=hi)

    # eigenfunction ratios against the finite-horizon survival Z_T at the
    # walk's own horizon, linear between cell centers with Z_T(0) the first
    # cell's; Z_T(r)/Z_T(0) tends to h(r)/h(0) as T grows
    z_T = spectral.finite_horizon_survival(op, T)
    rows = [(r, ratio, se, float(np.interp(r, op.grid, z_T) / z_T[0]))
            for r, ratio, se in feynman_kac.estimate_phi_ratio(base, probes)]
    write_csv(out / "phi_ratio.csv", "r,ratio,stderr,survival_ratio", rows)
    worst, probe = max(((abs(ratio - target) / max(se, 1e-6), r)
                        for r, ratio, se, target in rows), default=(0.0, None))
    checks["phi_matches_survival"] = gate(
        worst, not any(abs(ratio - target) > RATIO_SIGMA * max(se, 1e-6)
                       for _, ratio, se, target in rows),
        bound=RATIO_SIGMA, probe=probe)

    # the weighted Q-marginal at T against its exact law at the same t and T;
    # the law's distance from its Doob limit is how far T is from the Q-process
    t = cfg["marginal_time"]
    qm = feynman_kac.q_marginal(base, t, cfg["t_grid"])
    _write_q(out, qm)
    law_T, law_doob = spectral.q_marginal_law(op, t, T)
    faces = op.dr * np.arange(op.m + 1)
    dstat, ess, pval = stats.weighted_ks_1samp(qm.radii, qm.weights_by_T[T],
                                               lambda r: np.interp(r, faces, law_T))
    write_csv(out / "doob_compare.csv", "t,T,ks_statistic,p_value,ess,doob_distance",
              [(t, T, dstat, pval, ess, float(np.max(np.abs(law_T - law_doob))))])
    checks["q_matches_doob"] = gate(pval, pval > KS_THRESHOLD, bound=KS_THRESHOLD)
    last, bound = qm.sup_distances[-1], 4.0 / np.sqrt(cfg["n_paths"])
    checks["q_stabilized"] = gate(last, last < bound, bound=bound)

    write_gates(out, checks)
    return {"oracle_gap": ground.gap, "contour_separation": radius, "born_tail_bound": tail}


HANDLERS = {
    "sample-ppp": cmd_sample_ppp,
    "simulate-bm": cmd_simulate_bm,
    "estimate-z": cmd_estimate_z,
    "estimate-rho": cmd_estimate_rho,
    "phi-profile": cmd_phi_profile,
    "q-marginal": cmd_q_marginal,
    "radial-oracle": cmd_radial_oracle,
    "fock-check": cmd_fock_check,
    "full-pipeline": cmd_full_pipeline,
}


# built once, at import: its help strings go through gettext, which loads
# locale, and that belongs to start-up rather than to the first main() call
PARSER = argparse.ArgumentParser(
    prog="hyptrap",
    description="Brownian motion among Poissonian soft traps on H^d",
)
PARSER.add_argument("command", choices=HANDLERS)
PARSER.add_argument("--config", type=str, default=None, help="flat key=value file")
PARSER.add_argument("--seed", type=int, default=None, help="overrides the config seed")
PARSER.add_argument("--workers", type=int, default=None)
PARSER.add_argument("--out", type=str, default="out")


def main(argv=None):
    args = PARSER.parse_args(argv)

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
        results = HANDLERS[args.command](cfg, out)
    except (ConfigError, WindowError) as exc:
        # a window too small for the walk is a config the scene cannot answer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0
    write_manifest(out, args.command, cfg, results)
    (out / "timing.txt").write_text(f"wall_time_seconds={wall:.3f}\n")
    print(f"{args.command}: artifacts in {out} ({wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
