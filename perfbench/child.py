"""One benchmark process: set up, do one thing, print one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED LAUNCHED_NS

`run.py` starts every child itself and passes LAUNCHED_NS, its
CLOCK_MONOTONIC reading just before the start, so the set-up time reported
here covers interpreter start-up, `import permmind` from the checkout's
`src` and input generation.  Every child also times the reference loop of
workloads.py right after set-up, so that `run.py` can scale the set-up time
by the machine's speed at that moment.  Modes:

  probe         set up, then check the `bench` CLI output against the README
  probe-traced  the same with every layer timed, for the cli layer's numbers
  pass          set up, then run the workload's inputs once
  count         a pass with every layer counted
  timed         a pass with the workload's chosen layers timed

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The README's bench example, byte for byte: header plus the row for
# `permmind bench --n 8 --samples 20 --seed 3`.
BENCH_ARGS = ["bench", "--n", "8", "--samples", "20", "--seed", "3"]
BENCH_OUTPUT = (
    "n,k,samples,seed,max_queries,mean_queries,bound,bound_ok\n"
    "8,8,20,3,31,577/20,34,true\n"
)


def peak_rss_kb() -> int:
    """This process's peak resident memory.

    Read from VmHWM rather than getrusage: ru_maxrss survives exec and starts
    at the parent's size at fork, so it would grow with run.py's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def bench_row(traced: bool) -> dict:
    import permmind.cli

    from tracing import LAYERS, Tracer

    tracer = None
    if traced:
        tracer = Tracer(timed=True)
        tracer.install(LAYERS)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = permmind.cli.main(BENCH_ARGS)
    ok = code == 0 and buffer.getvalue() == BENCH_OUTPUT
    result = {"attempted": 1, "failed": int(not ok)}
    if tracer is not None:
        result["layers"] = tracer.stats
    return result


def run_pass(pm, workload, inputs, mode: str) -> dict:
    from tracing import CALLS, WORKLOAD_LAYERS, Tracer
    from workloads import Pass

    tracer = None
    if mode != "pass":
        tracer = Tracer(timed=mode == "timed")
        tracer.install(workload.timed if mode == "timed" else WORKLOAD_LAYERS)
    out = Pass(cut_replays=mode != "timed")
    workload.run(pm, inputs, out)
    expected = getattr(workload, "expected", None)
    if expected is not None:
        out.check(out.fingerprint == expected)
    result = {
        "rss_kb": peak_rss_kb(),
        "segments": out.segments,
        "attempted": out.attempted,
        "failed": out.failed,
        "queries": out.queries,
        "fingerprint": out.fingerprint,
    }
    if tracer is not None:
        result["layers"] = tracer.stats
    if mode == "count":
        missing = [layer for layer in workload.reaches if tracer.stats[layer][CALLS] == 0]
        if missing:
            raise SystemExit(f"{workload.name} never reached {', '.join(missing)}")
    return result


def main(argv) -> int:
    mode, name, seed, launched_ns = argv[1], argv[2], int(argv[3]), int(argv[4])
    sys.path.insert(0, str(SRC))
    import permmind

    if Path(permmind.__file__).resolve().parent != SRC / "permmind":
        raise SystemExit(f"imported permmind from {permmind.__file__}, not from {SRC}")
    from workloads import WORKLOADS, reference_ns

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(permmind, random.Random(seed))
    result = {
        "setup_ns": time.monotonic_ns() - launched_ns,
        "setup_reference_ns": reference_ns(),
        "backend": permmind._kernel.active_backend,
    }
    if mode in ("probe", "probe-traced"):
        result.update(bench_row(traced=mode == "probe-traced"))
    elif mode in ("pass", "count", "timed"):
        result.update(run_pass(permmind, workload, inputs, mode))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
