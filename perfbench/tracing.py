"""Per-layer spans for the benchmark's traced run.

The layers are permmind's modules.  A layer boundary is a public function or
method of one module, and the wrappers here are installed around it from the
benchmark's own files, only in a traced child process; the product code is
never edited.

Several modules import functions by value (`from .core import black`), and
`exhaustive_verify` / `verify_lower_bound_play` capture `solver=solve` as a
default argument when they are defined.  Patching only the defining module
would miss those calls, so `Tracer.install` replaces the function in every
permmind namespace that holds it and in every default-argument tuple that
holds it.  A layer that cannot be found raises at once, so a refactor that
renames or drops a boundary breaks the benchmark instead of silently dropping
the layer.

Two kinds of wrapper exist because exact counts and honest times want
different costs.  A counting wrapper only increments (and, for the kernels,
adds up how many codes were scanned); a timing wrapper also keeps a span
stack and charges each span its self time, the span's duration minus the
time covered by the spans it caused.  Counts come from one pass with every
layer counted; times from separate passes that time only the layers a
workload can afford to time.
"""

from __future__ import annotations

import sys
import types
from functools import wraps
from time import perf_counter_ns

LAYERS = (
    "core.validate_code",
    "core.black",
    "core.open_matches",
    "core.Transcript.record",
    "_kernel.black_count",
    "_kernel.partial_match_count",
    "_kernel.min_black_filter",
    "_kernel.partition_by_black",
    "solver.CodemakerOracle.answer",
    "solver.initial_phase",
    "solver.select_active_index",
    "solver.find_first",
    "solver.find_first_uniform",
    "solver.find_next",
    "solver.find_next_many_colors",
    "solver.apply_found_component",
    "solver.endgame",
    "solver.solve",
    "codemaker.StaticCodemaker._respond",
    "codemaker.AdversaryCodemaker.__init__",
    "codemaker.AdversaryCodemaker._respond",
    "bruteforce.check_transcript",
    "bruteforce.exhaustive_verify",
    "bruteforce.minimax_value",
    "cli.main",
)

# The cli layer is measured on its own, by one `bench` call per probe
# process; the workload passes never enter it.
WORKLOAD_LAYERS = tuple(layer for layer in LAYERS if not layer.startswith("cli."))

# Backend implementations sit inside the `_kernel` layer: `min_black_filter`
# calls `black_count` from its own module, and those inner calls are not
# boundary crossings.
_INSIDE_KERNEL = ("permmind._purepy", "permmind._speedups")

# Index of each field in a layer's stat list.
CALLS, SELF_NS, MEMBERS, SURVIVORS = range(4)


def _scan_members(st, args, result):
    st[MEMBERS] += len(args[0])


def _scan_survivors(st, args, result):
    st[MEMBERS] += len(args[0])
    st[SURVIVORS] += len(result[1])


def _count_enumerated(st, args, result):
    st[MEMBERS] += len(args[0].feasible)


# Extra counts gathered in the counting pass: codes scanned by the board-wide
# kernels, survivors of the adversary's filter, codes the adversary enumerates.
_HOOKS = {
    "_kernel.min_black_filter": _scan_survivors,
    "_kernel.partition_by_black": _scan_members,
    "codemaker.AdversaryCodemaker.__init__": _count_enumerated,
}


def _counting(fn, st, hook):
    if hook is None:

        @wraps(fn)
        def wrapper(*args, **kwargs):
            st[CALLS] += 1
            return fn(*args, **kwargs)

    else:

        @wraps(fn)
        def wrapper(*args, **kwargs):
            st[CALLS] += 1
            result = fn(*args, **kwargs)
            hook(st, args, result)
            return result

    return wrapper


def _timing(fn, st, stack):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            st[CALLS] += 1
            st[SELF_NS] += dt - stack.pop()
            if stack:
                stack[-1] += dt

    return wrapper


class Tracer:
    """Wrappers around permmind's layer boundaries and the stats they gather.

    `timed=False` installs counting wrappers; `timed=True` installs timing
    wrappers.  Either way `stats[layer]` is [calls, self_ns, members,
    survivors] for every name in LAYERS, zero for layers not installed.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.stats = {layer: [0, 0, 0, 0] for layer in LAYERS}
        self._stack: list[int] = []

    def install(self, layers) -> None:
        namespaces = [
            module
            for name, module in sys.modules.items()
            if (name == "permmind" or name.startswith("permmind."))
            and name not in _INSIDE_KERNEL
        ]
        for layer in layers:
            st = self.stats[layer]
            module_name, *path = layer.split(".")
            module = sys.modules.get("permmind." + module_name)
            if module is None:
                raise LookupError(f"layer {layer}: module permmind.{module_name} is not imported")
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part, None)
                if not isinstance(owner, type):
                    raise LookupError(f"layer {layer}: {part} is not a class of {module.__name__}")
            attr = path[-1]
            if owner is module:
                original = getattr(module, attr, None)
            else:
                original = owner.__dict__.get(attr)
            if not callable(original):
                raise LookupError(f"layer {layer}: {attr} is not defined there")
            wrapper = (
                _timing(original, st, self._stack)
                if self.timed
                else _counting(original, st, _HOOKS.get(layer))
            )
            if owner is not module:
                setattr(owner, attr, wrapper)
                continue
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)
                    elif isinstance(value, types.FunctionType) and value.__defaults__:
                        value.__defaults__ = tuple(
                            wrapper if d is original else d for d in value.__defaults__
                        )


def layer_metrics(counts: dict, self_s: dict, overhead: float, unattributed_s: float) -> dict:
    """Per-layer metrics, named `<module>.<function>.<stat>`, as (value, unit).

    Metric names start with a letter, so the `_kernel` module's read
    `kernel.<function>.<stat>`.  `counts` holds the stats of a counting pass
    and `self_s` each layer's self time in seconds.  A layer a workload does
    not time reports 0 self time; its time is then charged to the nearest
    timed layer that called it.
    """
    metrics = {}
    for layer in LAYERS:
        st = counts[layer]
        name = layer.lstrip("_")
        metrics[f"{name}.calls"] = (st[CALLS], "count")
        metrics[f"{name}.self_s"] = (self_s[layer], "s")
        if layer in ("_kernel.min_black_filter", "_kernel.partition_by_black"):
            metrics[f"{name}.members"] = (st[MEMBERS], "count")
        if layer == "_kernel.min_black_filter":
            frac = st[SURVIVORS] / st[MEMBERS] if st[MEMBERS] else 0.0
            metrics[f"{name}.survivor_frac"] = (frac, "ratio")
    metrics["codemaker.enumerated_codes"] = (
        counts["codemaker.AdversaryCodemaker.__init__"][MEMBERS],
        "count",
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.unattributed_s"] = (unattributed_s, "s")
    return metrics
