"""Every permmind name the benchmark reads still exists.

The benchmark in `perfbench/` wraps the layers listed in `tracing.LAYERS`,
calls `pm.<name>` from its workloads and reads `permmind.<...>` in its child
process.  This test reads those files without running them, so removing a
name the benchmark needs fails here instead of in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

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
