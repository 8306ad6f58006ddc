"""hyptrap's benchmark: time the CLI on one workload and check its outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one fresh interpreter
(`child.py`) running the workload's `hyptrap` commands on its config file in
`bench/workloads/`, with one worker and one BLAS thread; operations repeat
in whole rounds while one more round would end within S seconds (at least
one round).  Program seed = N mod 16, so
every run uses one of the sixteen seeds whose inputs the README describes.

--trace 0 prints the end-to-end metrics, medians over the run:
  setup_s      fresh interpreter until hyptrap.cli is imported and the
               config resolved (at least SETUP_SAMPLES samples per run)
  run_s        the operation's cli.main calls, from the first call to the
               last return, all artifacts written
  peak_rss_mb  peak resident memory of the operation's process
--trace 1 alternates untraced and traced operations and prints the
per-layer metrics of `layers.PER_LAYER` (medians over the traced ones) and
trace.overhead_s, the traced run_s minus the untraced one.

Every operation's outputs are checked (`checks.py`).  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
N_SEEDS = 16
SETUP_SAMPLES = 5

# workload -> (hyptrap commands of one operation, checker of their outputs).
# planted-pipeline runs the steps of `full-pipeline` that do not gate the exit
# code on a statistical test: full-pipeline itself exits 1 on some seeds (see
# README, "Left out").  wide-walk is not in BENCHMARK.json: 4 + 22 runs per
# workload must end within 3420 s, which holds two workloads at 55-s runs, and
# shorter runs were too noisy (README, "Workloads"); it runs by hand.
WORKLOADS = {
    "planted-pipeline": ("radial-oracle,estimate-rho,phi-profile,q-marginal",
                         checks.PlantedChecker),
    "poisson-rho": ("estimate-rho", checks.PoissonChecker),
    "wide-walk": ("estimate-z", checks.WideWalkChecker),
}


class Operation:
    """One child process: its set-up time and its result line."""

    def __init__(self, commands, config, seed, out, mode, log):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), commands, config, str(seed),
             out, mode],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            ready = proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            proc.wait()
        self.ready = ready.strip() == "ready"
        self.result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        self.ok = self.ready and self.result is not None and self.result["rc"] == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hyptrap" / "cli.py").is_file():
        print(f"error: no hyptrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hyptrap import cli

    commands, checker_class = WORKLOADS[args.workload]
    config = f"bench/workloads/{args.workload}.cfg"
    seed = args.seed % N_SEEDS
    cfg = cli.resolve_config(cli.parse_config(ROOT / config), cli_seed=seed)
    checker = checker_class(cfg, args.seed)

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    out_arg = str(out.relative_to(ROOT))  # the child runs in ROOT
    modes = ["run", "trace"] if args.trace else ["run"]
    ops, problems = [], []
    start = time.perf_counter()
    with open(work / "child.log", "w") as log:
        rounds = 0
        while True:
            for mode in modes:
                shutil.rmtree(out, ignore_errors=True)
                op = Operation(commands, config, seed, out_arg, mode, log)
                ops.append((mode, op))
                if op.ok:
                    try:
                        problems += checker.check(out)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        problems.append(f"unreadable output: {exc!r}")
            rounds += 1
            elapsed = time.perf_counter() - start
            # whole rounds only, and none that would end past the run length
            if elapsed + elapsed / rounds > args.seconds:
                break
        setups = [op.setup_s for _, op in ops if op.ready]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            probe = Operation(commands, config, seed, out_arg, "setup", log)
            if not probe.ready:
                break
            setups.append(probe.setup_s)

    failed = sum(not op.ok for _, op in ops)
    done = {mode: [op for m, op in ops if m == mode and op.ok] for mode in modes}
    if failed:
        print(f"{failed} of {len(ops)} operations failed; see {work / 'child.log'}",
              file=sys.stderr)
    if not all(done.values()):
        return 1
    run_s = {mode: statistics.median(op.result["run_s"] for op in done[mode])
             for mode in modes}
    if args.trace:
        traced = [op.result["layers"] for op in done["trace"]]
        for name in layers.COUNTS:
            if len({lay[name] for lay in traced}) > 1:
                problems.append(f"{name} differs between traced operations")
        metrics = {name: {"value": statistics.median(lay[name] for lay in traced),
                          "unit": layers.UNITS[name.rsplit(".", 1)[1]]}
                   for name in layers.PER_LAYER}
        metrics["trace.overhead_s"] = {"value": run_s["trace"] - run_s["run"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s["run"], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.result["peak_rss_kib"] * 1024 / 1e6
                                                       for op in done["run"]),
                            "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
