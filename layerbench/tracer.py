"""Spans around calls into tanglekit's public functions, for the traced run.

Modules bind these functions by name (``from .tangles import is_tangle``),
so a wrapper replaces the original under every name that binds it in every
loaded tanglekit module.  A target that no longer exists is reported as
absent instead of failing, so renaming or deleting a function does not
break the benchmark.  A span's self time is its duration minus the time of
the spans it encloses; all ``.s`` metrics are self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _enumerate_hook(tracer, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.counts["separations.enumerate.items"] += len(result)
    tracer.seen.add((g.vertices, g.edges, k))


def _found_hook(tracer, args, kwargs, result):
    tracer.counts["tangles.search.found"] += len(result)


def _rows_hook(tracer, args, kwargs, result):
    seps = args[1] if len(args) > 1 else kwargs["seps"]
    tracer.counts["tangles.triple.rows"] += len(seps)


# (label, module, function names, hook run on each result)
TARGETS = [
    ("separations.enumerate", "tanglekit.separations", ["enumerate_separations"], _enumerate_hook),
    ("tangles.search", "tanglekit.tangles", ["enumerate_tangles", "search_extension"], _found_hook),
    ("tangles.verify", "tanglekit.tangles", ["is_tangle"], None),
    ("tangles.triple", "tanglekit.tangles", ["find_forbidden_triple"], _rows_hook),
    ("tangles.maximal", "tanglekit.tangles", ["maximal_members"], None),
    ("survival", "tanglekit.survival", [
        "restrict_to_component", "survive_delete_edge_k1", "survive_delete_edge_k2",
        "survive_delete_pendant_edge", "survive_suppress_vertex",
        "survive_with_extending_supertangle", "survive_with_divergent_supertangle",
    ], None),
    ("survival.supertangle", "tanglekit.survival", ["survive_edge_deletion_via_supertangle"], None),
    ("pipeline.reduce", "tanglekit.pipeline", ["reduce"], None),
    ("pipeline.edge_search", "tanglekit.survival", ["brute_force_extensions"], None),
    ("pipeline.witness", "tanglekit.pipeline", ["witness_subgraph"], None),
    ("pipeline.transfer", "tanglekit.pipeline", ["transfer_terminal_weights"], None),
    ("pipeline.trace_io", "tanglekit.pipeline", ["format_trace", "parse_trace"], None),
    ("inducing.set", "tanglekit.inducing", ["find_inducing_set"], None),
    ("inducing.weights", "tanglekit.inducing", ["find_inducing_weights"], None),
    ("rainbow_cloud.validate", "tanglekit.rainbow_cloud", ["validate_rc"], None),
    ("rainbow_cloud.classify", "tanglekit.rainbow_cloud",
     ["classify_cross_or_slice", "classify_crossing", "slices_rainbow"], None),
    ("rainbow_cloud.split", "tanglekit.rainbow_cloud", ["split_family", "split_crossing"], None),
    ("rainbow_cloud.choose_edge", "tanglekit.rainbow_cloud", ["choose_edge"], None),
    ("rainbow_cloud.extend", "tanglekit.rainbow_cloud", ["extend_after_deletion"], None),
    ("decomposition.linkage", "tanglekit.decomposition",
     ["max_linkage_size", "foundational_linkage", "vertex_disjoint_paths"], None),
]


class Tracer:
    """Per-label call counts and self times, plus counters set by hooks."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.seen = set()
        self.absent = []
        self.enabled = False
        self._stack = []

    def install(self, targets=TARGETS):
        for label, module_name, names, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent += [f"{module_name}.{n}" for n in names]
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                self._rebind(original, self._wrap(label, original, hook))

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tanglekit" and not mod_name.startswith("tanglekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, label, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.calls[label] += 1
                tracer.self_s[label] += dt - child
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def snapshot(self):
        """Flat {metric: value} of everything recorded so far."""
        out = {}
        for label, _, _, _ in TARGETS:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.s"] = self.self_s[label]
        out.update(self.counts)
        out["separations.enumerate.distinct"] = len(self.seen)
        return out
