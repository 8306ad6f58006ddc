"""One operation of a workload, in a fresh interpreter.

    python3 bench/child.py <command>[,<command>...] <config> <seed> <out_dir> <mode>

mode is `setup` (stop once ready), `run` or `trace` (run with per-layer
spans).  The child prints `ready` once `hyptrap.cli` is imported (with numpy
and scipy) and the workload's config is resolved, then, unless mode is
`setup`, runs `cli.main` once per command, writing to <out_dir>/<command>,
times the calls from the first call to the last return and prints one JSON
line:
{"rc": exit code, "run_s": seconds, "peak_rss_kib": VmHWM, "layers":
per-layer metrics or null}.  VmHWM is this process's own peak resident set;
the parent's getrusage would also count the parent's pages, which Linux
charges to a child that forks and execs.  The CLI's own console output goes
to stderr, so stdout carries only the protocol.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def peak_rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    commands, config, seed, out, mode = argv
    sys.path.insert(0, str(SRC))
    from hyptrap import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hyptrap was imported from {cli.__file__}, not from {SRC}")
    cli.resolve_config(cli.parse_config(config), cli_seed=int(seed))
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    rc = 0
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        for command in commands.split(","):
            rc = rc or cli.main([command, "--config", config, "--seed", seed,
                                 "--out", f"{out}/{command}"])
        run_s = time.perf_counter() - t0
    print(json.dumps({"rc": rc, "run_s": run_s, "peak_rss_kib": peak_rss_kib(),
                      "layers": tracer.metrics() if tracer else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
