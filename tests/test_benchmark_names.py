"""Every permmind name the benchmark reads still exists.

The benchmark in `perfbench/` wraps the layers listed in `tracing.LAYERS`,
calls `pm.<name>` from its workloads and reads `permmind.<...>` in its child
process.  The first test reads those files without running them, so removing a
name the benchmark needs fails here instead of in a benchmark run.  The second
plays each workload on small inputs under the benchmark's counting tracer, so
a layer a workload must reach but no longer calls fails here too.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permmind

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _layers():
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def _chains(file, root):
    """Dotted attribute chains read off the name `root`, e.g. 'cli.main'."""
    chains = set()
    for node in ast.walk(_tree(file)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            chains.add(".".join(reversed(parts)))
    # keep only the longest chains; their prefixes resolve along the way
    return sorted(c for c in chains if not any(o.startswith(c + ".") for o in chains))


def _resolve(dotted):
    """permmind.<dotted>, importing submodules on the way as `import` would."""
    obj = permmind
    for part in dotted.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def _resolve_layer(layer):
    """The lookup `Tracer.install` makes: the module, then the class __dict__."""
    module_name, *path = layer.split(".")
    owner = module = importlib.import_module(f"permmind.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    if owner is module:
        return getattr(module, path[-1], None)
    return owner.__dict__.get(path[-1])


def test_every_name_the_benchmark_reads_resolves():
    missing = [layer for layer in _layers() if not callable(_resolve_layer(layer))]
    workload_names = _chains("workloads.py", "pm")
    child_names = _chains("child.py", "permmind")
    # the scans see what the benchmark is known to read
    assert "bound_enforced" in workload_names
    assert "_kernel.active_backend" in child_names
    for chain in workload_names + child_names:
        try:
            _resolve(chain)
        except (AttributeError, ImportError):
            missing.append(chain)
    assert not missing, f"the benchmark reads names permmind lacks: {missing}"


# Inputs of each workload's kind, small enough to play in about a second;
# they replace the workload's own attributes of the same names.  The 64-hole
# board, at SPLICE_MIN_HOLES, plays the solver's spliced path.
SMALL_INPUTS = {
    "solve_large": {"boards": [[16, 16], [16, 20], [64, 64]], "games": 4},
    "exhaustive_small": {"boards": [[5, 5], [4, 6]]},
    "adversary_wide": {"boards": [[5, 5], [4, 6]]},
    "minimax_tiny": {"boards": [[3, 3]], "expected": {"3x3": {"value": 4}}},
}

# Plays one workload on small inputs with every layer counted, and prints the
# pass's failures and the layers of the workload's `reaches` never called.
REACH_PROBE = """
import json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import permmind
from tracing import CALLS, WORKLOAD_LAYERS, Tracer
from workloads import WORKLOADS, Pass

workload = WORKLOADS[sys.argv[3]]
vars(workload).update(json.loads(sys.argv[4]))
tracer = Tracer(timed=False)
tracer.install(WORKLOAD_LAYERS)
out = Pass()
workload.run(permmind, workload.make_inputs(permmind, random.Random(1)), out)
missed = [layer for layer in workload.reaches if tracer.stats[layer][CALLS] == 0]
print(json.dumps({"attempted": out.attempted, "failed": out.failed, "missed": missed}))
"""


@pytest.mark.parametrize("workload", sorted(SMALL_INPUTS))
def test_every_layer_a_workload_reaches_is_called(workload):
    # the benchmark's traced run refuses a workload that never calls a layer
    # of its `reaches`, so a refactor that drops one must fail here as well
    src = Path(permmind.__file__).resolve().parent.parent
    args = [str(src), str(PERFBENCH), workload, json.dumps(SMALL_INPUTS[workload])]
    result = subprocess.run(
        [sys.executable, "-c", REACH_PROBE, *args], capture_output=True, text=True, check=True
    )
    played = json.loads(result.stdout.splitlines()[-1])
    assert played["attempted"] > 0 and played["failed"] == 0
    assert played["missed"] == []
