"""Checks of each workload's outputs.

The `check_*` functions are pure: they take numbers and return a list of
problems, empty when the output is right.  Each compares with a value the
benchmark computes itself (`oracles`, a direct trap sum) or with a property
the method must have.  The `*Checker` classes read one run's artifacts and
apply them; the planted and wide-walk references are computed once per
benchmark run, in `__init__`.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate

from oracles import SurvivalHarmonic, finite_horizon_z

# survival.csv against the shot survival harmonic (2.6e-6 measured at
# m_cells=3000, R_max=30: the finite-volume O(dr^2) error)
SURVIVAL_ATOL = 1e-4
# wide-walk: allowance for the O(h) weak error of the walk and trapezoid rule
# at h=0.01; bench/README.md, "Checks", gives the measurement at h and h/2
Z_BIAS_ALLOWANCE = 3e-4
Z_SIGMAS = 4.0
# phi_ratio.csv against Z_T(r)/Z_T(0): see check_phi_ratios
PHI_SIGMAS = 6.0
PHI_ALLOWANCE = 0.003
# trap count within this many Poisson standard deviations of kappa * vol
COUNT_SIGMAS = 5.0


def read_csv(path):
    """The numeric rows below the header."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [[float(x) for x in row] for row in rows[1:]]


def check_survival(r, h, reference):
    err = float(np.max(np.abs(np.asarray(h) - reference(r))))
    if not err <= SURVIVAL_ATOL:
        return [f"survival.csv: max |h - h_ref| = {err:.3g} > {SURVIVAL_ATOL:g}"]
    return []


def check_phi_ratios(rows, z_of_r):
    """rows of (r, ratio, stderr): each ratio near Z_T(r)/Z_T(0).

    The allowance is wide on purpose: the jackknife stderr of the ratios
    understates their scatter over seeds (bench/README.md, "Checks").
    """
    z0 = float(z_of_r(0.0))
    problems = []
    for r, ratio, se in rows:
        target = float(z_of_r(r)) / z0
        tol = PHI_SIGMAS * se + PHI_ALLOWANCE
        if not abs(ratio - target) <= tol:
            problems.append(f"phi_ratio.csv: r={r:g} ratio {ratio:.6g} vs oracle "
                            f"{target:.6g}, more than {PHI_SIGMAS:g} se={se:.3g} "
                            f"+ {PHI_ALLOWANCE:g} off")
    return problems


def check_q_weights(rows, n_paths):
    """q_marginal.csv: radii >= 0, and per horizon weights >= 0 that sum to 1."""
    table = np.asarray(rows)
    problems = []
    if table.shape[0] != n_paths or np.any(table[:, 0] < 0):
        problems.append(f"q_marginal.csv: expected {n_paths} radii >= 0")
    weights = table[:, 1:]
    if np.any(weights < 0) or np.any(np.abs(weights.sum(axis=0) - 1.0) > 1e-9):
        problems.append("q_marginal.csv: weights are not nonnegative summing to 1")
    return problems


def check_rho(rho_hat, v_max):
    """A WLS slope of a nondecreasing -log Z_T with rate at most v_max."""
    if not -1e-12 <= rho_hat <= v_max * (1 + 1e-9):
        return [f"rho_hat {rho_hat!r} outside [0, v_max={v_max:g}]"]
    return []


def check_neg_log_z(ts, neg_log_z, v_max):
    """-log Z_T does not decrease, by at most v_max per unit of T."""
    problems = []
    for (t1, y1), (t2, y2) in zip(zip(ts, neg_log_z), zip(ts[1:], neg_log_z[1:])):
        step = y2 - y1
        if not (t2 > t1 and -1e-12 <= step <= v_max * (t2 - t1) * (1 + 1e-9)):
            problems.append(f"logz.csv: -log Z goes {y1!r} -> {y2!r} from T={t1:g} to "
                            f"T={t2:g}, outside [0, v_max dT]")
    return problems


def direct_trap_sum(traps, points, a, r0, v_max):
    """min(v_max, sum_y eta(d(x, y))) with d = arccosh(-<x, y>), ambient rows.

    Returns the sums and a bound on their rounding error.  -<x, y> cancels
    terms of size x0 y0 + |x| |y| (about 1e6 at radius 8), so its error is
    about 8 eps times that; |d eta / d cosh d| <= 4 a / r0^2 carries it into
    each trap's term.
    """
    minkowski = points[:, :1] * traps[:, 0] - points[:, 1:] @ traps[:, 1:].T
    scale = points[:, :1] * traps[:, 0] + np.abs(points[:, 1:]) @ np.abs(traps[:, 1:]).T
    dist = np.arccosh(np.maximum(1.0, minkowski))
    q = 1.0 - (dist / r0) ** 2
    values = np.minimum(v_max, np.where(dist < r0, a * q * q, 0.0).sum(axis=1))
    near = dist < 1.01 * r0
    bound = 4.0 * a / r0**2 * 8.0 * np.finfo(float).eps * np.where(near, scale, 0.0).sum(axis=1)
    return values, bound + 1e-12


def check_potential(values, traps, points, a, r0, v_max):
    expected, bound = direct_trap_sum(traps, points, a, r0, v_max)
    bad = np.abs(values - expected) > bound
    if bad.any():
        i = int(np.argmax(bad))
        return [f"potential differs from the direct trap sum at {int(bad.sum())} of "
                f"{len(values)} points, e.g. {values[i]!r} vs {expected[i]!r}"]
    return []


def ppp_mean_count(d, kappa, window):
    """kappa * vol of the geodesic ball, vol = |S^{d-1}| int_0^W sinh^{d-1}."""
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    radial, _ = integrate.quad(lambda r: math.sinh(r) ** (d - 1), 0.0, window)
    return kappa * area * radial


def check_trap_count(n, mean):
    if not abs(n - mean) <= COUNT_SIGMAS * math.sqrt(mean):
        return [f"{n} traps is not consistent with Poisson({mean:.1f})"]
    return []


def check_z(z, se, ess, n_paths, T, v_max, oracle):
    problems = []
    if not math.exp(-T * v_max) <= z <= 1.0:
        problems.append(f"Z={z!r} outside [exp(-T v_max), 1]")
    if not 1.0 <= ess <= n_paths:
        problems.append(f"ess={ess!r} outside [1, n_paths={n_paths}]")
    tol = Z_SIGMAS * se + Z_BIAS_ALLOWANCE
    if not abs(z - oracle) <= tol:
        problems.append(f"Z={z:.6f} differs from the radial oracle {oracle:.6f} by more "
                        f"than {Z_SIGMAS:g} se + {Z_BIAS_ALLOWANCE:g} = {tol:.3g}")
    return problems


def require_one_trap_at_origin(cfg):
    if cfg["planted"] != [0.0] or cfg["kappa"] != 0:
        raise ValueError("the radial oracles describe one trap at o and nothing else")


def check_rho_outputs(out, cfg):
    """rho.csv and logz.csv of estimate-rho."""
    rows = read_csv(out / "rho.csv")
    problems = check_rho(rows[0][0], cfg["vmax"])
    ts, neg_log_z = (list(col) for col in zip(*read_csv(out / "logz.csv")))
    if ts != sorted(cfg["t_grid"]):
        problems.append(f"logz.csv: horizons {ts} are not the t_grid")
    return problems + check_neg_log_z(ts, neg_log_z, cfg["vmax"])


class PlantedChecker:
    """radial-oracle, estimate-rho, phi-profile and q-marginal, one trap at o."""

    def __init__(self, cfg, seed):
        require_one_trap_at_origin(cfg)
        self.cfg = cfg
        d, a, r0, v_max = cfg["d"], cfg["a"], cfg["r0"], cfg["vmax"]
        self.h = SurvivalHarmonic(d, a, r0, v_max)
        self.z = finite_horizon_z(d, cfg["T"], a, r0, v_max)

    def check(self, out):
        r, h = np.array(read_csv(out / "radial-oracle" / "survival.csv")).T
        problems = check_survival(r, h, self.h)
        problems += check_rho_outputs(out / "estimate-rho", self.cfg)
        rows = read_csv(out / "phi-profile" / "phi_ratio.csv")
        problems += check_phi_ratios(rows, self.z)
        rows = read_csv(out / "q-marginal" / "q_marginal.csv")
        return problems + check_q_weights(rows, self.cfg["n_paths"])


class PoissonChecker:
    """estimate-rho on a sampled PPP; the scene is rebuilt from the same seed."""

    def __init__(self, cfg, seed):
        from hyptrap import cli
        from hyptrap.diffusion import polar_from_ambient

        self.cfg = cfg
        d, window = cfg["d"], cfg["window_radius"]
        spec, config, potential = cli.build_scene(cfg)
        traps = config.points
        rng = np.random.default_rng(seed)
        # probe points uniform in radius where paths may go (the window less
        # r0), plus trap centres there
        reach = window - cfg["r0"]
        radii = rng.uniform(0.0, reach, 2000)
        dirs = rng.standard_normal((2000, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        points = np.vstack([
            np.column_stack([np.cosh(radii), np.sinh(radii)[:, None] * dirs]),
            traps[traps[:, 0] <= np.cosh(reach)][:200],
        ])
        values = potential.evaluate_polar(*polar_from_ambient(points))
        self.scene_problems = (
            check_potential(values, traps, points, cfg["a"], cfg["r0"], cfg["vmax"])
            + check_trap_count(len(traps), ppp_mean_count(d, cfg["kappa"], window)))

    def check(self, out):
        # the scene is the same for every operation: report it once
        problems, self.scene_problems = self.scene_problems, []
        return problems + check_rho_outputs(out / "estimate-rho", self.cfg)


class WideWalkChecker:
    """estimate-z with one trap at o, against the finite-horizon radial oracle."""

    def __init__(self, cfg, seed):
        require_one_trap_at_origin(cfg)
        self.cfg = cfg
        z = finite_horizon_z(cfg["d"], cfg["T"], cfg["a"], cfg["r0"], cfg["vmax"])
        self.oracle = float(z(0.0))

    def check(self, out):
        rows = read_csv(out / "estimate-z" / "z.csv")
        T, z, se, ess, n_paths = rows[0]
        return check_z(z, se, ess, int(n_paths), T, self.cfg["vmax"], self.oracle)
