"""Per-layer spans around hyptrap's public functions, installed from outside.

`Tracer.install` replaces each function below, in its own module and in every
hyptrap module that imported it by name, with a wrapper that counts calls,
adds inclusive time and self time (inclusive minus wrapped children), and,
for the two kernels, the work done: path-steps for `step_polar` and
path x trap pairs for `FactorPotential.evaluate_polar`.  Runs use one
thread, so a plain stack of child-time accumulators is enough.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path, work per call from the arguments)
SPANS = {
    "cli.build_scene": ("cli", "build_scene", None),
    "cli.write_csv": ("cli", "write_csv", None),
    "diffusion.step_polar": ("diffusion", "step_polar", lambda r, *a, **k: len(r)),
    "diffusion.ensemble_walk": ("diffusion", "ensemble_walk", None),
    "ppp.sample_configuration": ("ppp", "sample_configuration", None),
    "ppp.evaluate_polar": ("ppp", "FactorPotential.evaluate_polar",
                           lambda self, r, *a, **k: len(r) * len(self.config)),
    "feynman_kac.simulate_tilted_ensemble": ("feynman_kac", "simulate_tilted_ensemble", None),
    "feynman_kac.estimate_Z": ("feynman_kac", "estimate_Z", None),
    "feynman_kac.estimate_rho": ("feynman_kac", "estimate_rho", None),
    "feynman_kac.estimate_phi_ratio": ("feynman_kac", "estimate_phi_ratio", None),
    "feynman_kac.q_marginal": ("feynman_kac", "q_marginal", None),
    "spectral.build_radial_operator": ("spectral", "build_radial_operator", None),
    "spectral.solve_ground_state": ("spectral", "solve_ground_state", None),
    "spectral.survival_harmonic": ("spectral", "survival_harmonic", None),
}

UNITS = {"calls": "count", "path_steps": "count", "dense_pairs": "count",
         "s": "s", "self_s": "s", "ns_per_path_step": "ns", "ns_per_dense_pair": "ns"}

# the per-layer metrics a traced run reports, as <span>.<field>
PER_LAYER = [
    "diffusion.step_polar.calls",
    "diffusion.step_polar.path_steps",
    "diffusion.step_polar.self_s",
    "diffusion.step_polar.ns_per_path_step",
    "diffusion.ensemble_walk.self_s",
    "ppp.evaluate_polar.calls",
    "ppp.evaluate_polar.dense_pairs",
    "ppp.evaluate_polar.self_s",
    "ppp.evaluate_polar.ns_per_dense_pair",
    "ppp.sample_configuration.s",
    "cli.build_scene.s",
    "feynman_kac.simulate_tilted_ensemble.calls",
    "feynman_kac.simulate_tilted_ensemble.self_s",
    "feynman_kac.estimate_rho.s",
    "feynman_kac.estimate_phi_ratio.s",
    "feynman_kac.q_marginal.s",
    "feynman_kac.estimate_Z.s",
    "spectral.build_radial_operator.s",
    "spectral.solve_ground_state.s",
    "spectral.survival_harmonic.s",
    "cli.write_csv.s",
]

# counts that must repeat exactly between traced runs of one seed
COUNTS = [m for m in PER_LAYER if UNITS[m.rsplit(".", 1)[1]] == "count"]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(int)
        self._children = []

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                self.calls[name] += 1
                self.inclusive[name] += dt
                self.self_time[name] += dt - child
                if work is not None:
                    self.work[name] += work(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every span; call after importing hyptrap.cli, before running it."""
        modules = [m for k, m in sys.modules.items() if k.startswith("hyptrap.")]
        for name, (module, attr, work) in SPANS.items():
            owner = sys.modules[f"hyptrap.{module}"]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original, work)
            setattr(owner, leaf, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def metrics(self):
        out = {}
        for metric in PER_LAYER:
            span, field = metric.rsplit(".", 1)
            if field == "calls":
                value = self.calls[span]
            elif field == "s":
                value = self.inclusive[span]
            elif field == "self_s":
                value = self.self_time[span]
            elif field in ("path_steps", "dense_pairs"):
                value = self.work[span]
            else:  # ns per unit of work, from self time
                value = 1e9 * self.self_time[span] / max(self.work[span], 1)
            out[metric] = value
        return out
