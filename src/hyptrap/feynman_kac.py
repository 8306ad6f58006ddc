"""Estimators for the tilted path measure exp(-int_0^T V(X_s) ds).

Survival constants Z_T^x, decay-rate extraction, eigenfunction ratios,
Q-process marginals, a sequential Monte Carlo variant with resampling, and
terminal radii of the Doob-transformed dynamics.

Randomness is organized as a fixed fan-out of NUM_STREAMS child streams per
seed.  An ensemble walks its streams in lockstep: time is the outer loop, and
each step draws every stream's rows from that stream's own generator and
advances all paths with one kernel call.  The worker count only splits the
streams into contiguous groups, each walked in lockstep on its own thread,
so results are byte-identical for any number of workers, and rerunning with
the same seed gives common random numbers for pairwise comparisons.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from hyptrap import diffusion, geometry, spectral
from hyptrap.geometry import HPoint
from hyptrap.ppp import Configuration, FactorPotential, PotentialField, PotentialSpec
from hyptrap.stats import effective_sample_size

NUM_STREAMS = 16


def _chunk_sizes(n, k=NUM_STREAMS):
    k = min(n, k)
    base = n // k
    sizes = [base + (1 if i < n % k else 0) for i in range(k)]
    return sizes


def _chunk_rngs(seed, k):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


def _run_groups(fn, streams, workers=1):
    """fn(group) for min(workers, len(streams)) contiguous groups of the
    streams, one thread per group; the results in stream order."""
    bounds = np.cumsum([0] + _chunk_sizes(len(streams), workers))
    groups = [streams[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if len(groups) == 1:
        return [fn(groups[0])]
    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        return list(pool.map(fn, groups))


@dataclass
class PathEnsemble:
    """Sufficient statistics of N tilted paths from a common start."""

    log_weights: np.ndarray           # -int_0^T V per path, in [-T*v_max, 0]
    final_radii: np.ndarray           # geodesic radius of X_T per path
    snapshots: dict                   # step -> (radii, directions, integrals)
    chunk_slices: list                # slices delimiting the independent streams

    @property
    def n_paths(self):
        return len(self.log_weights)

    @property
    def weights(self):
        return np.exp(self.log_weights)

    @property
    def ess(self):
        return effective_sample_size(self.weights)


@dataclass
class ZEstimate:
    z_hat: float
    stderr: float
    ensemble: PathEnsemble


@dataclass
class GroundStateEstimate:
    """Decay rate from the tail of -log Z_T."""

    rho_hat: float
    rho_stderr: float
    diagnostics: dict = field(default_factory=dict)


def simulate_tilted_ensemble(x0, potential: PotentialField, T, h, N, seed,
                             snapshot_times=(), drift_fn=None, workers=1):
    """N independent walks from x0 with streaming trapezoid potential integrals.

    `x0` may also be a sequence of B starts, walked as one fused ensemble:
    the paths from every start form B stacked blocks that share every
    Gaussian draw, `potential` holds one field per block (FactorPotential
    with `rotations`), and one PathEnsemble per start comes back, bitwise
    the ensemble that start alone would give.  The walk is block-major: each
    block holds the rows of every stream in stream order, so a start's
    ensemble is one contiguous slice of it.
    """
    n_steps = int(round(T / h))
    if not diffusion.on_step_grid(T, h):
        raise ValueError("T must be an integral number of steps")
    snap_steps = sorted({int(round(t / h)) for t in snapshot_times})
    for t in snapshot_times:
        if not diffusion.on_step_grid(t, h):
            raise ValueError(f"snapshot time {t} not on the step grid")
    starts = [x0] if isinstance(x0, HPoint) else list(x0)
    blocks = len(starts)
    sizes = _chunk_sizes(N)
    streams = list(zip(_chunk_rngs(seed, len(sizes)), sizes))

    r_start, u_start = diffusion.polar_from_ambient(np.array([x.z for x in starts]))

    def job(group):
        n = sum(size for _, size in group)
        return diffusion.ensemble_walk(np.repeat(r_start, n), np.repeat(u_start, n, axis=0),
                                       n_steps, h, group, potential=potential,
                                       snapshot_steps=snap_steps, drift_fn=drift_fn,
                                       blocks=blocks)

    results = _run_groups(job, streams, workers=workers)

    def by_block(arrays):
        """The groups' block-major arrays as one (blocks, N, ...) array."""
        return np.concatenate([a.reshape(blocks, -1, *a.shape[1:]) for a in arrays], axis=1)

    log_weights = -by_block([res.integrals for res in results])
    final_radii = by_block([res.r for res in results])
    snapshots = {k: [by_block([res.snapshots[k][j] for res in results]) for j in range(3)]
                 for k in snap_steps}
    bounds = np.cumsum([0] + sizes)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    ensembles = [PathEnsemble(log_weights[b], final_radii[b],
                              {k: tuple(a[b] for a in snap) for k, snap in snapshots.items()},
                              slices)
                 for b in range(blocks)]
    return ensembles[0] if isinstance(x0, HPoint) else ensembles


def path_potential_integral(path: diffusion.PathSample, potential: PotentialField):
    """Trapezoid rule for int_0^T V(X_s) ds along a stored path."""
    v = potential.evaluate(path.points)
    hgrid = np.diff(path.times)
    return float(np.sum(0.5 * hgrid * (v[:-1] + v[1:])))


def _jackknife_stderr(n_streams, statistic):
    """Drop-one-stream jackknife standard error of `statistic(keep)`, where
    `keep` is the boolean mask of the streams retained."""
    jack = np.array([statistic(np.arange(n_streams) != c) for c in range(n_streams)])
    return float(np.sqrt((n_streams - 1) / n_streams * np.sum((jack - np.mean(jack)) ** 2)))


def _mean_stderr(weights):
    n = len(weights)
    m = float(np.mean(weights))
    s = float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return m, s


def estimate_Z(x: HPoint, potential: PotentialField, T, h, N, seed, workers=1) -> ZEstimate:
    """Plain Monte Carlo for Z_T^x = E^x[exp(-int_0^T V(X_s) ds)]."""
    if N < 2:
        raise ValueError("need at least two paths")
    ens = simulate_tilted_ensemble(x, potential, T, h, N, seed, workers=workers)
    z, se = _mean_stderr(ens.weights)
    return ZEstimate(z, se, ens)


# ---------------------------------------------------------------------------
# sequential Monte Carlo variant
# ---------------------------------------------------------------------------


class WeightUnderflowError(ArithmeticError):
    """A particle system's weights are no longer finite with a positive sum."""


@dataclass
class SMCResult:
    z_hat: float
    stderr: float
    ess_traces: list    # one ESS trace per independent particle system
    n_resamples: int


def smc_estimate_Z(x: HPoint, potential: PotentialField, T, h, N, resample_period,
                   seed, workers=1) -> SMCResult:
    """Particle-system estimator of the same functional as estimate_Z.

    N particles split into NUM_STREAMS independent systems; each system
    advances with `diffusion.ensemble_walk` from one checkpoint to the next,
    resamples multinomially whenever its ESS drops below half its size at a
    checkpoint, and contributes the unbiased product-of-mean-weights
    estimator.  The returned value is the mean over systems.
    """
    period_steps = int(round(resample_period / h))
    if period_steps < 1 or abs(period_steps * h - resample_period) > 1e-9:
        raise ValueError("resample_period must be a positive multiple of h")
    n_steps = int(round(T / h))
    sizes = _chunk_sizes(N)
    streams = list(zip(_chunk_rngs(seed, len(sizes)), sizes))

    r_start, u_start = diffusion.polar_from_ambient(x.z[None, :])

    def job(rng, n):
        r = np.full(n, r_start[0])
        u = np.tile(u_start[0], (n, 1))
        integrals = np.zeros(n)
        v = None
        log_factor = 0.0
        trace = []
        resamples = 0
        k = 0
        while k < n_steps:
            steps = min(period_steps, n_steps - k)
            walk = diffusion.ensemble_walk(r, u, steps, h, rng, potential=potential,
                                           integrals=integrals, v0=v)
            r, u, integrals, v = walk.r, walk.u, walk.integrals, walk.v
            k += steps
            w = np.exp(-integrals)
            if not (np.all(np.isfinite(w)) and w.sum() > 0):
                raise WeightUnderflowError(
                    f"particle weights at t = {k * h:g} are not finite with a "
                    "positive sum; shorten resample_period")
            ess = effective_sample_size(w)
            trace.append(ess)
            if ess < n / 2.0 and k < n_steps:
                log_factor += np.log(np.mean(w))
                idx = rng.choice(n, size=n, p=w / w.sum())
                idx.sort()  # fixed ordering for reproducibility
                r = r[idx]
                u = u[idx]
                v = v[idx]
                integrals = np.zeros(n)
                resamples += 1
        return float(np.exp(log_factor) * np.mean(np.exp(-integrals))), trace, resamples

    results = [res for group in _run_groups(lambda g: [job(*s) for s in g], streams, workers)
               for res in group]
    z_per_system = np.array([z for z, _, _ in results])
    traces = [t for _, t, _ in results]
    z = float(np.mean(z_per_system))
    se = float(np.std(z_per_system, ddof=1) / np.sqrt(len(z_per_system)))
    return SMCResult(z, se, traces, sum(n for _, _, n in results))


# ---------------------------------------------------------------------------
# decay rate and eigenfunction ratios
# ---------------------------------------------------------------------------


def _chunk_log_z(ensemble: PathEnsemble, step):
    integrals = ensemble.snapshots[step][2]
    return np.array([np.log(np.mean(np.exp(-integrals[s]))) for s in ensemble.chunk_slices])


def _wls_slope(ts, ys, sigmas):
    sig = np.where(np.asarray(sigmas) > 0, sigmas, np.max(sigmas) if np.max(sigmas) > 0 else 1.0)
    w = 1.0 / sig**2
    W = np.sum(w)
    tbar = np.sum(w * ts) / W
    ybar = np.sum(w * ys) / W
    denom = np.sum(w * (ts - tbar) ** 2)
    return float(np.sum(w * (ts - tbar) * (ys - ybar)) / denom)


def estimate_rho(x: HPoint, potential: PotentialField, T_grid, h, N, seed,
                 workers=1) -> GroundStateEstimate:
    """Decay rate of Z_T by weighted least squares on -log Z_T vs T.

    Slope uncertainty comes from a drop-one-stream jackknife, which respects
    the correlation of the Z_T estimates across horizons (common paths).
    Nested-window slopes are reported as the convergence diagnostic.
    """
    T_grid = sorted(T_grid)
    if len(set(T_grid)) < 3:
        raise ValueError("need at least three distinct horizons")
    ens = simulate_tilted_ensemble(x, potential, max(T_grid), h, N, seed,
                                   snapshot_times=T_grid, workers=workers)
    steps = [int(round(t / h)) for t in T_grid]
    ts = np.asarray(T_grid, dtype=float)
    log_z = np.empty(len(steps))
    sigmas = np.empty(len(steps))
    per_chunk = np.empty((len(ens.chunk_slices), len(steps)))
    for j, k in enumerate(steps):
        integrals = ens.snapshots[k][2]
        w = np.exp(-integrals)
        m, se = _mean_stderr(w)
        log_z[j] = np.log(m)
        sigmas[j] = se / m
        per_chunk[:, j] = _chunk_log_z(ens, k)
    rho_hat = _wls_slope(ts, -log_z, sigmas)
    counts = np.array([s.stop - s.start for s in ens.chunk_slices], dtype=float)

    def slope(keep):
        # recombine the kept chunk means into log Z
        wts = counts[keep] / counts[keep].sum()
        zs = np.sum(np.exp(per_chunk[keep]) * wts[:, None], axis=0)
        return _wls_slope(ts, -np.log(zs), sigmas)

    rho_se = _jackknife_stderr(len(counts), slope)
    # nested tail windows: slope over T_grid[k:] for each admissible k
    window_slopes = [
        _wls_slope(ts[k:], -log_z[k:], sigmas[k:]) for k in range(len(ts) - 1)
    ]
    spread = max(window_slopes) - min(window_slopes)
    flagged = spread > 3.0 * max(rho_se, 1e-15) + 1e-12
    diag = {
        "window_slopes": window_slopes,
        "slope_spread": spread,
        "flagged": bool(flagged),
        "log_z": log_z.tolist(),
        "sigmas": sigmas.tolist(),
        "T_grid": list(ts),
    }
    return GroundStateEstimate(rho_hat, rho_se, diagnostics=diag)


def canonical_axis_point(d, r):
    z = np.zeros(d + 1)
    z[0] = np.cosh(r)
    z[1] = np.sinh(r)
    return HPoint(z)


def estimate_phi_ratio(probes, spec: PotentialSpec, config: Configuration, T, h, N,
                       seed, workers=1):
    """Ratios Z_T^{x_j} / Z_T^o as generalized-eigenfunction ratios.

    Each probe is canonicalized: a K-rotation takes it to the e_1 axis and is
    applied to the configuration instead, so probe sets differing by a common
    rotation give literally identical estimates.  The base o and every probe
    off o are walked as one fused ensemble (`simulate_tilted_ensemble` with
    one start per block and a FactorPotential holding each block's rotated
    configuration): the blocks share every Gaussian draw (common random
    numbers), and each is bitwise the `estimate_Z` walk from its canonical
    start on its rotated configuration.  A probe at o is the base block
    itself: ratio 1, stderr 0.
    """
    if N < 2:
        raise ValueError("need at least two paths")
    o = geometry.origin(config.d)
    radii = [geometry.distance(o, probe) for probe in probes]
    moved = [probe for probe, r in zip(probes, radii) if r > 0.0]
    starts = [o] + [canonical_axis_point(config.d, r) for r in radii if r > 0.0]
    rotations = [geometry.rotation_to_axis(x) for x in [o] + moved]
    ensembles = simulate_tilted_ensemble(starts, FactorPotential(spec, config, rotations),
                                         T, h, N, seed, workers=workers)
    z = [float(np.mean(ens.weights)) for ens in ensembles]
    chunks = [np.array([np.mean(ens.weights[s]) for s in ens.chunk_slices])
              for ens in ensembles]
    moved_blocks = iter(range(1, len(starts)))
    table = []
    for r in radii:
        b = next(moved_blocks) if r > 0.0 else 0
        ratio = z[b] / z[0]
        # paired jackknife over the common streams
        se = _jackknife_stderr(
            len(chunks[b]), lambda keep: np.mean(chunks[b][keep]) / np.mean(chunks[0][keep]))
        if ratio <= 0:
            raise RuntimeError("eigenfunction ratio must be positive")
        table.append((float(r), float(ratio), se))
    return table


# ---------------------------------------------------------------------------
# Q-process marginals and Doob-transformed dynamics
# ---------------------------------------------------------------------------


@dataclass
class QMarginal:
    """Radial time-t marginal of the tilted measure at several horizons."""

    t: float
    radii: np.ndarray              # radius of X_t per path
    weights_by_T: dict             # horizon -> normalized weights
    sup_distances: list            # between consecutive-horizon weighted CDFs


def q_marginal(x: HPoint, potential: PotentialField, t, T_grid, h, N, seed,
               workers=1) -> QMarginal:
    """Weighted X_t marginal for each horizon T, with a stabilization record."""
    T_grid = sorted(T_grid)
    if t >= min(T_grid):
        raise ValueError("marginal time must precede every horizon")
    ens = simulate_tilted_ensemble(x, potential, max(T_grid), h, N, seed,
                                   snapshot_times=[t] + list(T_grid), workers=workers)
    step_t = int(round(t / h))
    radii = ens.snapshots[step_t][0]
    weights_by_T = {}
    for T in T_grid:
        integ = ens.snapshots[int(round(T / h))][2]
        w = np.exp(-integ)
        weights_by_T[T] = w / w.sum()
    from hyptrap.stats import weighted_cdf

    sup_d = []
    for T1, T2 in zip(T_grid[:-1], T_grid[1:]):
        grid = np.sort(radii)
        c1 = weighted_cdf(radii, weights_by_T[T1], grid)
        c2 = weighted_cdf(radii, weights_by_T[T2], grid)
        sup_d.append(float(np.max(np.abs(c1 - c2))))
    return QMarginal(t, radii, weights_by_T, sup_d)


def doob_final_radii(x0: HPoint, grid, phi, T, h, N, seed, workers=1):
    """Terminal radii of N paths of the Doob-transformed diffusion
    (1/2)Lap + (log phi)' d_r, with `phi` a positive radial eigenfunction
    tabulated on `grid` (no potential weighting)."""
    drift = spectral.log_derivative_interpolant(grid, phi)
    ens = simulate_tilted_ensemble(x0, None, T, h, N, seed, drift_fn=drift,
                                   workers=workers)
    return ens.final_radii
