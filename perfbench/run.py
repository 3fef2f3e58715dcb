#!/usr/bin/env python3
"""permmind's benchmark: four seeded workloads timed end to end, and a traced
run that splits each workload's time by module.

Run from the root of a checkout; permmind is imported from its `src`, so
nothing needs installing:

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The workloads are solve_large, exhaustive_small, adversary_wide and
minimax_tiny; workloads.py says what each stresses and why.  `all` runs the
four one after another and prints every metric of each.

Each pass over a workload's fixed input set runs in a fresh child process
(child.py).  This single caller starts a child only after the previous one
has ended: a closed loop with one client and no threads.  Passes repeat until
the next would overrun --seconds: at least three of them, or one pair of an
untraced and a timing pass in a traced run.  Inputs come from --seed alone.

Timings are taken at reference speed.  On a shared machine, slow spells of
seconds to minutes come and go, and can double every time measured in them.
So each pass is timed in segments of a game, a board or a thousand replayed
games, and right after each segment the child times a fixed pure-Python
reference loop
(workloads.py).  Every segment is scaled by REFERENCE_NS over its reference
reading, and every set-up by the reading taken right after it.  On an idle
machine like the one the bounds were set on that reads plain seconds; in a
slow spell it reads about the same instead of slower.  The `meta` line
prints the median reference reading of the run.

--trace 0 reports the end-to-end metrics, medians over the run's passes:
  setup_s        process start through `import permmind` and input generation,
                 median over every child of the run (set-up probes and passes)
  wall_s         time to finish the workload's fixed input set
  queries_per_s  solver queries asked per second of wall_s
  games_per_s    games, or boards on adversary_wide and minimax_tiny, per
                 second of wall_s
  game_ms_p50    median time of one game or board in a pass
  peak_rss_mb    peak resident memory of a pass process

--trace 1 reports the per-layer metrics `<module>.<function>.<stat>`
described in tracing.py.  Counts come from one counting pass; self times are
medians over timing passes, each run right after an untraced pass;
`trace.overhead_frac` is the median ratio of their work times, minus one.
No per-layer time is scaled.  The cli layer is measured by the set-up probes, each of
which also checks the `bench` command's CSV against the README.

The lines before the last describe the run: machine metadata, the behaviour
fingerprint, and every metric with its unit plus `fail_frac`.  The last line
is one JSON object with the keys correct, attempted, failed and metrics;
`attempted` counts games, boards and checks, `failed` the ones that failed.
The exit code is not 0 only when the benchmark could not run: no permmind
source next to it, a child that crashed, or a layer that went missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import CALLS, LAYERS, SELF_NS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The reference loop's time on the machine the bounds were set on, in its
# fast spells: an Intel Xeon VM with 2 vCPUs running Python 3.11.7.
REFERENCE_NS = 1_450_000
PROBES_PER_PASS = 2
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run."""


def child(mode: str, workload: str, seed: int) -> dict:
    launched = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(launched)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the children of one workload, one after another.

    Set-up probes are spread between the passes, so that a slow spell of the
    machine touches as few of them as it touches passes.
    """
    deadline = time.monotonic() + seconds
    probe = "probe-traced" if trace else "probe"
    runs = {"probes": [], "passes": [], "timed": []}
    if trace:
        runs["count"] = child("count", workload, seed)
    last = 0.0
    fewest = 1 if trace else MIN_PASSES
    while len(runs["passes"]) < fewest or time.monotonic() + last <= deadline:
        started = time.monotonic()
        runs["probes"] += [child(probe, workload, seed) for _ in range(PROBES_PER_PASS)]
        runs["passes"].append(child("pass", workload, seed))
        if trace:
            runs["timed"].append(child("timed", workload, seed))
        last = time.monotonic() - started
    return runs


def work_ns(p: dict) -> int:
    """A pass's work time as measured."""
    return sum(seg["work_ns"] for seg in p["segments"])


def scaled_wall(p: dict) -> float:
    """A pass's work time in seconds, each segment at reference speed."""
    return sum(seg["work_ns"] * REFERENCE_NS / seg["reference_ns"] for seg in p["segments"]) / 1e9


def scaled_games(p: dict) -> list[float]:
    """A pass's game times in seconds, at reference speed."""
    return [
        ns * REFERENCE_NS / seg["reference_ns"] / 1e9 for seg in p["segments"] for ns in seg["game_ns"]
    ]


def summarize(runs: dict, trace: bool) -> dict:
    """Checks and metrics of one workload's run."""
    probes, passes, timed = runs["probes"], runs["passes"], runs["timed"]
    workers = passes + timed + ([runs["count"]] if trace else [])
    fingerprints = {json.dumps(w["fingerprint"], sort_keys=True) for w in workers}
    checks = [len(fingerprints) == 1]  # every pass behaved identically
    if trace:
        counts = dict(runs["count"]["layers"])
        counts["cli.main"] = probes[0]["layers"]["cli.main"]
        checks += [
            t["layers"][layer][CALLS] == counts[layer][CALLS]
            for t in timed
            for layer in LAYERS
            if t["layers"][layer][CALLS]
        ]
        self_s = {
            layer: statistics.median(t["layers"][layer][SELF_NS] for t in timed) / 1e9
            for layer in LAYERS
        }
        self_s["cli.main"] = statistics.median(p["layers"]["cli.main"][SELF_NS] for p in probes) / 1e9
        unattributed = statistics.median(
            work_ns(t) - sum(st[SELF_NS] for st in t["layers"].values()) for t in timed
        ) / 1e9
        overhead = statistics.median(work_ns(t) / work_ns(p) for p, t in zip(passes, timed)) - 1
        metrics = layer_metrics(counts, self_s, overhead, unattributed)
    else:
        wall = statistics.median(scaled_wall(p) for p in passes)
        metrics = {
            "setup_s": (
                statistics.median(
                    w["setup_ns"] * REFERENCE_NS / w["setup_reference_ns"] for w in probes + passes
                ) / 1e9,
                "s",
            ),
            "wall_s": (wall, "s"),
            "queries_per_s": (passes[0]["queries"] / wall, "1/s"),
            "games_per_s": (len(scaled_games(passes[0])) / wall, "1/s"),
            "game_ms_p50": (
                statistics.median(statistics.median(scaled_games(p)) for p in passes) * 1e3,
                "ms",
            ),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        }
    attempted = sum(w["attempted"] for w in probes + workers) + len(checks)
    failed = sum(w["failed"] for w in probes + workers) + checks.count(False)
    references = [seg["reference_ns"] for p in passes for seg in p["segments"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fingerprint": passes[0]["fingerprint"],
        "reference_ms": statistics.median(references) / 1e6,
        "backends": sorted({w["backend"] for w in probes + workers}),
    }


def machine() -> dict:
    """What makes a result comparable with another: versions, backend, CPU."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long one workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permmind" / "__init__.py").is_file():
        print(f"perfbench: no permmind source at {SRC}; run from a checkout's root", file=sys.stderr)
        return 1
    if not compileall.compile_dir(SRC, quiet=1):
        print("perfbench: permmind's source does not compile", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = machine()
    results = {}
    try:
        for name in names:
            results[name] = summarize(collect(name, args.seed, args.seconds, args.trace), args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, result in results.items():
        run_meta = {**meta, "backend": ",".join(result["backends"]), "reference_ms": result["reference_ms"]}
        print(f"meta {name} {json.dumps(run_meta)}")
        print(f"fingerprint {name} {json.dumps(result['fingerprint'], sort_keys=True)}")
        for metric, (value, unit) in result["metrics"].items():
            print(f"{name:<16} {metric:<44} {value:>14.6g} {unit}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}
        print(f"{name:<16} {'fail_frac':<44} {result['failed'] / result['attempted']:>14.6g} ratio")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
