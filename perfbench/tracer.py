"""Span tracing around designdim's public functions.

The tracer wraps each public function named in LAYERS wherever a designdim
module binds it (the package namespace and every submodule that imported
it), so calls made inside the library are traced as well as calls made by
the benchmark.  Spans (name, start, end, parent) are kept in memory; a
layer's self time is its span durations minus the parts covered by child
spans.  Nothing under a leading underscore is touched, so the library's
internals can change without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict

MODULES = ("fields", "designs", "incidence", "resolve", "bounds", "cli")


def _graph_bytes(graph):
    return {"dist_bytes": graph.n * graph.n}


def _pairs_checked(d, blocks, result):
    # semi_resolving_witness scans pairs in triangular order and stops at
    # the first unseparated one, so the pair count follows from its result
    if result is None:
        v = d.point_count
        return {"pairs": v * (v - 1) // 2}
    x, y = result
    return {"pairs": y * (y - 1) // 2 + x + 1}


def _random_stats(result):
    return {"trials": result.trials, "successes": 1}


def _exact_size(result):
    if result is None:
        return {"solution_size_sum": 0}
    if isinstance(result, tuple):
        return {"solution_size_sum": len(result)}
    return {"solution_size_sum": len(result.landmarks)}


def _mc_stats(result):
    return {"trials": result.trials, "successes": result.successes}


def _subsets(d, s, result):
    return {"subsets": math.comb(d.v, s)}


# public name -> (layer, result counter or None, whether the counter also
# takes the call's arguments).  metric_dimension is routed at call time:
# past its exact-size limit it runs the greedy fallback.
LAYERS = {
    "make_field": ("fields.make_field", None, False),
    "projective_plane": ("designs.construct", None, False),
    "point_complement_design": ("designs.construct", None, False),
    "hadamard_matrix": ("designs.construct", None, False),
    "hadamard_design": ("designs.construct", None, False),
    "biaffine_plane": ("designs.construct", None, False),
    "hadamard_std": ("designs.construct", None, False),
    "validate": ("designs.validate", None, False),
    "validate_std": ("designs.validate", None, False),
    "validate_design": ("designs.validate", None, False),
    "pencil_masks": ("designs.pencil_masks", None, False),
    "dual": ("designs.dual", None, False),
    "to_text": ("designs.text", None, False),
    "from_text": ("designs.text", None, False),
    "incidence_graph": ("incidence.graph", _graph_bytes, False),
    "from_edge_text": ("incidence.edge_text", None, False),
    "to_edge_text": ("incidence.edge_text", None, False),
    "intersection_array": ("incidence.intersection_array", None, False),
    "classify": ("incidence.classify", None, False),
    "semi_resolving_witness": ("resolve.bitset_check", _pairs_checked, True),
    "resolving_witness": ("resolve.distance_check", None, False),
    "side_resolving_witness": ("resolve.distance_check", None, False),
    "verify_witness": ("resolve.verify", None, False),
    "greedy_semi_resolving": ("resolve.greedy", None, False),
    "randomized_semi_resolving": ("resolve.random", _random_stats, False),
    "split_resolving": ("resolve.split", None, False),
    "min_semi_resolving": ("resolve.exact", _exact_size, False),
    "find_resolving_set": ("resolve.exact", _exact_size, False),
    "metric_dimension": ("resolve.exact", _exact_size, False),
    "monte_carlo_success": ("bounds.monte_carlo", _mc_stats, False),
    "exhaustive_expected_unresolved": ("bounds.exhaustive", _subsets, True),
    "exhaustive_success_rate": ("bounds.exhaustive", _subsets, True),
    "expected_unresolved": ("bounds.closed_form", None, False),
    "expected_unresolved_std": ("bounds.closed_form", None, False),
    "design_expected_unresolved": ("bounds.closed_form", None, False),
    "inequality_chain": ("bounds.chain", None, False),
    "projective_plane_sweep": ("bounds.sweep", None, False),
}


class Tracer:
    """Records spans while enabled; install() patches the library."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.patched = []  # (module, attribute, original)

    # -- spans ----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        if not any(self.spans[i][0] == name for i in self.stack[:-1]):
            self.counts[name + ".calls"] += 1

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, amount):
        if self.enabled:
            self.counts[name] += amount

    # -- patching -------------------------------------------------------

    def wrap(self, public, original, exact_limit):
        layer, counter, with_args = LAYERS[public]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            name = layer
            if public == "metric_dimension":
                limit = kwargs.get("limit", args[1] if len(args) > 1 else exact_limit)
                if args[0].n > limit:
                    name = "resolve.mdim_fallback"
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                if kind == "BudgetExceeded":
                    tracer.counts["resolve.budget_exceeded"] += 1
                elif kind == "RetriesExhausted":
                    tracer.counts["resolve.random.trials"] += exc.trials
                raise
            finally:
                tracer.end()
            if counter is not None and name != "resolve.mdim_fallback":
                extra = counter(*args, result) if with_args else counter(result)
                for key, amount in extra.items():
                    tracer.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self, package):
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        for public in LAYERS:
            original = None
            for mod in modules:
                if public in vars(mod):
                    original = vars(mod)[public]
                    break
            if original is None:
                raise LookupError(f"designdim has no public function {public!r}")
            wrapper = self.wrap(public, original, package.resolve.DEFAULT_EXACT_LIMIT)
            for mod in modules:
                if vars(mod).get(public) is original:
                    setattr(mod, public, wrapper)
                    self.patched.append((mod, public, original))

    def uninstall(self):
        for mod, public, original in reversed(self.patched):
            setattr(mod, public, original)
        self.patched.clear()

    # -- reports --------------------------------------------------------

    def self_times(self):
        """Per-layer self time: span durations minus child-span durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
