"""Estimators for the tilted path measure exp(-int_0^T V(X_s) ds).

Survival constants Z_T^x, decay-rate extraction, eigenfunction ratios and
Q-process marginals.  The decay rate, the ratios and the marginals read the
PathEnsembles that `simulate_tilted_ensemble` returns, so one walk with
snapshots serves all three; they form log Z as a max-shifted log-mean-exp,
which stays finite where exp(-int V) underflows.

Randomness is organized as a fixed fan-out of NUM_STREAMS child streams per
seed.  An ensemble walks its streams in lockstep: time is the outer loop, and
each step draws every stream's rows from that stream's own generator and
advances all paths with one kernel call.  The worker count only splits the
streams into contiguous groups, each walked in lockstep on its own thread,
so results are byte-identical for any number of workers, and rerunning with
the same seed gives common random numbers for pairwise comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first use: load it with the package, not in the
# first default_rng call of a run
import numpy.random  # noqa: F401

from hyptrap import diffusion
from hyptrap.ppp import PotentialField
from hyptrap.stats import effective_sample_size, log_mean_exp, weighted_cdf

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
    # a local import: one worker starts no thread, so it loads no thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        return list(pool.map(fn, groups))


@dataclass
class PathEnsemble:
    """Sufficient statistics of N tilted paths from a common start."""

    log_weights: np.ndarray           # -int_0^T V per path, in [-T*v_max, 0]
    final_radii: np.ndarray           # geodesic radius of X_T per path
    snapshots: dict                   # step -> (radii, directions, integrals)
    chunk_slices: list                # slices delimiting the independent streams
    h: float                          # time step of the walk

    def snapshot(self, t):
        """(radii, directions, integrals) of the paths at time t."""
        return self.snapshots[int(round(t / self.h))]

    @property
    def weights(self):
        return np.exp(self.log_weights)

    @property
    def ess(self):
        return effective_sample_size(np.exp(self.log_weights - log_mean_exp(self.log_weights)))


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


def simulate_tilted_ensemble(starts, potential: PotentialField, T, h, N, seed,
                             snapshot_times=(), workers=1):
    """N independent walks from each start, with streaming trapezoid
    potential integrals; one PathEnsemble per start.

    `starts` is a pair (r, u) of B radii and B unit directions in T_o H^d
    (`diffusion.on_axis` gives o and points on the e_1 axis).  The B starts
    walk as one fused ensemble: their paths form B stacked blocks that share
    every Gaussian draw on the one pointwise `potential`, and each start's
    PathEnsemble is bitwise the one that start alone would give.  The walk is
    block-major: each block holds the rows of every stream in stream order,
    so a start's ensemble is one contiguous slice of it.  `potential` is
    called once per chunk of held steps (`diffusion.ensemble_walk`) on every
    stream, block and step of the chunk together: a fused walk of B starts
    holds max(2, diffusion.DRAW_BUFFER // (B N)) steps per call, fewer than
    a lone start's walk, with the same bits.
    """
    n_steps = int(round(T / h))
    if not diffusion.on_step_grid(T, h):
        raise ValueError("T must be an integral number of steps")
    snap_steps = sorted({int(round(t / h)) for t in snapshot_times})
    for t in snapshot_times:
        if not diffusion.on_step_grid(t, h):
            raise ValueError(f"snapshot time {t} not on the step grid")
    r_start, u_start = (np.asarray(a, dtype=float) for a in starts)
    blocks = len(r_start)
    sizes = _chunk_sizes(N)
    streams = list(zip(_chunk_rngs(seed, len(sizes)), sizes))

    def job(group):
        n = sum(size for _, size in group)
        return diffusion.ensemble_walk(np.repeat(r_start, n), np.repeat(u_start, n, axis=0),
                                       n_steps, h, group, potential=potential,
                                       snapshot_steps=snap_steps, blocks=blocks)

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
    return [PathEnsemble(log_weights[b], final_radii[b],
                         {k: tuple(a[b] for a in snap) for k, snap in snapshots.items()},
                         slices, h)
            for b in range(blocks)]


def _stream_stderr(stat, log_ws, slices):
    """Drop-one-stream jackknife standard error of stat(log Z) (Efron and
    Stein, Ann. Statist. 1981), where log Z holds one entry per array of
    `log_ws`: the log-mean-exp over the paths of every stream but the dropped
    one, the kept streams' means pooled by size."""
    per_stream = np.array([[log_mean_exp(lw[s]) for lw in log_ws] for s in slices])
    sizes = np.array([s.stop - s.start for s in slices])
    streams = np.arange(len(sizes))
    jack = np.array([stat(log_mean_exp(per_stream[streams != c], weights=sizes[streams != c]))
                     for c in streams])
    n = len(jack)
    return float(np.sqrt((n - 1) / n * np.sum((jack - np.mean(jack)) ** 2)))


def _mean_stderr(weights):
    n = len(weights)
    m = float(np.mean(weights))
    s = float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return m, s


def estimate_Z(x, potential: PotentialField, T, h, N, seed, workers=1) -> ZEstimate:
    """Plain Monte Carlo for Z_T^x = E^x[exp(-int_0^T V(X_s) ds)] from the
    one start x = (r, u) (arrays of one row)."""
    if N < 2:
        raise ValueError("need at least two paths")
    ens, = simulate_tilted_ensemble(x, potential, T, h, N, seed, workers=workers)
    z, se = _mean_stderr(ens.weights)
    return ZEstimate(z, se, ens)


# ---------------------------------------------------------------------------
# decay rate and eigenfunction ratios
# ---------------------------------------------------------------------------


def _wls_slope(ts, ys, sigmas):
    sig = np.where(np.asarray(sigmas) > 0, sigmas, np.max(sigmas) if np.max(sigmas) > 0 else 1.0)
    w = 1.0 / sig**2
    W = np.sum(w)
    tbar = np.sum(w * ts) / W
    ybar = np.sum(w * ys) / W
    denom = np.sum(w * (ts - tbar) ** 2)
    return float(np.sum(w * (ts - tbar) * (ys - ybar)) / denom)


def check_horizons(T_grid):
    """The decay-rate fit needs three distinct horizons."""
    if len(set(T_grid)) < 3:
        raise ValueError(f"t_grid needs at least three distinct horizons to fit a "
                         f"decay rate, got {T_grid}")


def estimate_rho(ensemble: PathEnsemble, T_grid) -> GroundStateEstimate:
    """Decay rate of Z_T by weighted least squares on -log Z_T vs T, read from
    the ensemble's snapshots at the horizons T_grid.

    Slope uncertainty comes from a drop-one-stream jackknife, which respects
    the correlation of the Z_T estimates across horizons (common paths).
    Nested-window slopes are reported as the convergence diagnostic.
    """
    check_horizons(T_grid)
    T_grid = sorted(T_grid)
    ts = np.asarray(T_grid, dtype=float)
    log_w = [-ensemble.snapshot(t)[2] for t in T_grid]
    log_z = np.array([log_mean_exp(lw) for lw in log_w])
    # relative stderr of each Z_T: the stderr of the weights over their mean
    sigmas = np.array([_mean_stderr(np.exp(lw - lz))[1] for lw, lz in zip(log_w, log_z)])
    rho_hat = _wls_slope(ts, -log_z, sigmas)
    rho_se = _stream_stderr(lambda lz: _wls_slope(ts, -lz, sigmas), log_w,
                            ensemble.chunk_slices)
    # nested tail windows: slope over T_grid[k:] for each admissible k
    window_slopes = [
        _wls_slope(ts[k:], -log_z[k:], sigmas[k:]) for k in range(len(ts) - 1)
    ]
    spread = max(window_slopes) - min(window_slopes)
    flagged = spread > 3.0 * max(rho_se, 1e-15) + 1e-12
    diag = {
        "window_slopes": window_slopes,
        "flagged": bool(flagged),
        "log_z": log_z.tolist(),
        "sigmas": sigmas.tolist(),
        "T_grid": list(ts),
    }
    return GroundStateEstimate(rho_hat, rho_se, diagnostics=diag)


def estimate_phi_ratio(base: PathEnsemble, probes):
    """Ratios Z_T^{x_j} / Z_T^o as generalized-eigenfunction ratios.

    `base` is the ensemble from o and `probes` the (distance from o,
    ensemble) pair of each probe, all walked to T on one seed so that they
    share every Gaussian draw (common random numbers); a probe at o reads
    `base` itself: ratio 1, stderr 0.  Each row is (distance of the probe
    from o, ratio, paired jackknife stderr).
    """
    log_z0 = log_mean_exp(base.log_weights)
    table = []
    for r, ens in probes:
        ratio = np.exp(log_mean_exp(ens.log_weights) - log_z0)
        # paired over the common streams: two arrays, o's and the probe's
        se = _stream_stderr(lambda lz: np.exp(lz[1] - lz[0]),
                            [base.log_weights, ens.log_weights], base.chunk_slices)
        table.append((float(r), float(ratio), se))
    return table


# ---------------------------------------------------------------------------
# Q-process marginals
# ---------------------------------------------------------------------------


@dataclass
class QMarginal:
    """Radial time-t marginal of the tilted measure at several horizons."""

    radii: np.ndarray              # radius of X_t per path
    weights_by_T: dict             # horizon -> normalized weights
    sup_distances: list            # between consecutive-horizon weighted CDFs


def check_marginal_time(t, T_grid):
    """The Q-marginal at time t is read before every horizon."""
    if t >= min(T_grid, default=0.0):
        raise ValueError(f"marginal_time {t:g} must precede every horizon in t_grid, "
                         f"got {T_grid}")


def q_marginal(ensemble: PathEnsemble, t, T_grid) -> QMarginal:
    """Weighted X_t marginal for each horizon T, with a stabilization record,
    read from the ensemble's snapshots at t and at every horizon."""
    check_marginal_time(t, T_grid)
    T_grid = sorted(T_grid)
    radii = ensemble.snapshot(t)[0]
    grid = np.sort(radii)
    weights_by_T = {}
    for T in T_grid:
        log_w = -ensemble.snapshot(T)[2]
        w = np.exp(log_w - log_mean_exp(log_w))
        weights_by_T[T] = w / w.sum()
    sup_d = []
    for T1, T2 in zip(T_grid[:-1], T_grid[1:]):
        c1 = weighted_cdf(radii, weights_by_T[T1], grid)
        c2 = weighted_cdf(radii, weights_by_T[T2], grid)
        sup_d.append(float(np.max(np.abs(c1 - c2))))
    return QMarginal(radii, weights_by_T, sup_d)

