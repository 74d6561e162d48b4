"""Outside-in span recorder for the benchmark's traced runs.

``SpanRecorder.installed()`` replaces every public fanspectra function
with a timing wrapper in each namespace that binds it: the defining
module, every module that imports it (``fanspectra.verify`` binds
``symmetric_eigenvalues``, for example) and the package itself.  The
program therefore runs its usual call paths, while every call that
crosses a binding is recorded as a span.  Nothing in ``src/`` changes,
and the original bindings come back when the context exits.

Spans stay in memory until the run ends.  A span is recorded only inside
an op span that the benchmark opens, so calls made by the benchmark's
own correctness checks are not counted.  This module imports only the
standard library, so loading it does not change what a cold start costs.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graphs", "matrices", "eigen", "quotient", "closed_forms", "verify", "tables", "cli")

# The root span the benchmark opens around one op; its self time is the
# op's unattributed remainder (the benchmark's own glue code).
OP_SPAN = "bench.op"

# Solves at or below this order are the per-call-overhead regime.
SMALL_ORDER = 16

_SPAN_GROUPS = {
    "graphs.build": (
        "graphs",
        ("make_graph", "null_graph", "path_graph", "join", "generalized_fan", "nc_graph"),
    ),
    "matrices.build": (
        "matrices",
        (
            "adjacency_matrix",
            "laplacian_matrix",
            "transmission_vector",
            "transmission_matrix",
            "distance_laplacian",
            "distance_signless_laplacian",
            "generalized_distance",
            "build_matrix",
        ),
    ),
    "matrices.distance": ("matrices", ("distance_matrix",)),
    "eigen.solve": ("eigen", ("symmetric_eigenvalues",)),
    "eigen.group": ("eigen", ("group_multiplicities",)),
    "quotient.eigenvalues": ("quotient", ("quotient_eigenvalues",)),
    "quotient.is_equitable": ("quotient", ("is_equitable",)),
    "quotient.matrix": ("quotient", ("quotient_matrix",)),
    "verify.case": ("verify", ("verify_case",)),
    "verify.compare": ("verify", ("compare_spectra",)),
    "tables.reproduce": ("tables", ("reproduce_fan_table", "reproduce_generalized_fan_table")),
    "cli.main": ("cli", ("main",)),
}
_SPAN_OF = {
    (layer, function): span
    for span, (layer, functions) in _SPAN_GROUPS.items()
    for function in functions
}


def span_name(layer: str, function: str) -> str:
    """The span a call to ``fanspectra.<layer>.<function>`` is recorded under."""
    if layer == "closed_forms":
        return "closed_forms.evaluate"
    return _SPAN_OF.get((layer, function), f"{layer}.{function}")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` records, ``parent``
    being the index of the enclosing span or -1 for a root.
    """
    children = defaultdict(list)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        edge = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], edge)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result.append(end - start - covered)
    return result


def lapack_error(solves) -> float:
    """Largest gap between a Jacobi result and LAPACK's eigvalsh on the same matrix."""
    import numpy as np

    worst = 0.0
    for matrix, values in solves:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.size:
            gap = np.max(np.abs(np.asarray(values) - np.linalg.eigvalsh(matrix)))
            worst = max(worst, float(gap))
    return worst


class SpanRecorder:
    """Records name, start, end and parent of every traced call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.solves: list[tuple[int, object, object]] = []  # (span, matrix, eigenvalues)
        self.deviations: list[float] = []  # results of verify.compare
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = self.clock()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str = OP_SPAN):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # outside an op, or re-entering the caller's own span: no new boundary
            if not self._stack or self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "eigen.solve":
                self.solves.append((index, args[0] if args else kwargs["matrix"], result))
            elif name == "verify.compare":
                self.deviations.append(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public fanspectra function wherever it is bound."""
        package = importlib.import_module("fanspectra")
        namespaces = [package] + [importlib.import_module(f"fanspectra.{layer}") for layer in LAYERS]
        wrappers = {}
        saved = []
        try:
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if not isinstance(value, types.FunctionType):
                        continue
                    origin = value.__module__.split(".")
                    if origin[0] != "fanspectra" or len(origin) != 2 or value.__name__.startswith("_"):
                        continue
                    if value not in wrappers:
                        wrappers[value] = self.wrap(span_name(origin[1], value.__name__), value)
                    saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])
            yield self
        finally:
            for namespace, attr, value in reversed(saved):
                setattr(namespace, attr, value)

    def summary(self) -> dict:
        """Additive totals of the recorded spans; see ``merge_summaries``."""
        own = self_times(self.spans)
        per_span: dict[str, list] = {}
        wall = 0.0
        for (name, start, end, parent), self_s in zip(self.spans, own):
            calls_self = per_span.setdefault(name, [0, 0.0])
            calls_self[0] += 1
            calls_self[1] += self_s
            if parent < 0:
                wall += end - start
        small = [0, 0.0]
        n3_sum = 0
        for index, matrix, _ in self.solves:
            order = len(matrix)
            n3_sum += order**3
            if order <= SMALL_ORDER:
                small[0] += 1
                small[1] += own[index]
        return {
            "wall_s": wall,
            "spans": per_span,
            "solve_small": small,
            "n3_sum": n3_sum,
            "max_err_vs_lapack": lapack_error((m, v) for _, m, v in self.solves),
            "max_abs_deviation": max(self.deviations, default=0.0),
        }


def empty_summary() -> dict:
    return {
        "wall_s": 0.0,
        "spans": {},
        "solve_small": [0, 0.0],
        "n3_sum": 0,
        "max_err_vs_lapack": 0.0,
        "max_abs_deviation": 0.0,
    }


def merge_summaries(total: dict, part: dict) -> dict:
    """Add ``part`` into ``total``: counts and times add, error maxima take the max."""
    total["wall_s"] += part["wall_s"]
    for name, (calls, self_s) in part["spans"].items():
        calls_self = total["spans"].setdefault(name, [0, 0.0])
        calls_self[0] += calls
        calls_self[1] += self_s
    total["solve_small"] = [a + b for a, b in zip(total["solve_small"], part["solve_small"])]
    total["n3_sum"] += part["n3_sum"]
    for key in ("max_err_vs_lapack", "max_abs_deviation"):
        total[key] = max(total[key], part[key])
    return total


def layer_times(summary: dict) -> tuple[dict[str, float], float]:
    """Self seconds per layer, and the self seconds of spans outside every layer.

    For spans recorded in one process the two add up to ``wall_s``.
    """
    per_layer = {layer: 0.0 for layer in LAYERS}
    other = 0.0
    for name, (_, self_s) in summary["spans"].items():
        layer = name.split(".", 1)[0]
        if layer in per_layer:
            per_layer[layer] += self_s
        else:
            other += self_s
    return per_layer, other
