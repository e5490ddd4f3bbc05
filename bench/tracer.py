"""Spans around formald's public functions, recorded from outside.

The tracer replaces each traced function or method with a wrapper for
the duration of a traced pass.  A function imported by name elsewhere
(``cli`` imports ``stable_cohomology_dims``; ``parser`` imports
``op_product``) is bound in several module namespaces, and internal calls
go through the defining module's globals, so every binding in every
loaded ``formald`` module and class is replaced, and restored afterwards.

Spans are ``[name, start, end, parent]`` lists kept in memory; a span's
self time is its duration minus the durations of its child spans (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> the "module:qualname" targets it covers
SPANS = {
    "linalg.echelon_add": ["linalg:ColumnEchelon.add"],
    "linalg.express": ["linalg:ColumnEchelon.express",
                       "linalg:ColumnEchelon.project",
                       "linalg:ColumnEchelon.contains"],
    "linalg.rank": ["linalg:Matrix.rank"],
    "linalg.nullspace": ["linalg:Matrix.nullspace"],
    "derham.ladder": [f"derham:{cls}.{meth}"
                      for cls in ("ModuleFamily", "KernelFamily", "CokernelFamily")
                      for meth in ("basis", "partial_columns", "multiply_columns")
                      if (cls, meth) != ("CokernelFamily", "multiply_columns")],
    "derham.assemble": ["derham:complex_from_family"],
    "derham.dd_check": ["linalg:Matrix.compose", "linalg:Matrix.is_zero"],
    "derham.compare": ["derham:stable_cohomology_dims", "derham:cokernel_of_dn",
                       "derham:les_consistency"],
    "series.mul": ["series:Series.__mul__"],
    "series.weierstrass": ["series:weierstrass_divide", "series:weierstrass_prepare"],
    "series.invert": ["series:invert_unit", "series:exp_series"],
    "weyl.op_product": ["weyl:op_product"],
    "symbols.poisson": ["symbols:poisson_bracket"],
    "symbols.membership": ["symbols:membership_truncated"],
    "malgrange.finite_dims": ["malgrange:finite_dims"],
    "malgrange.oracle": ["malgrange:truncated_cokernel_rank"],
    "modules.action": ["modules:partial_action", "modules:scalar_action"],
    "regularity.probe": [f"regularity:{name}" for name in (
        "iterate_recurrence", "xn_regular_element_check", "power_search",
        "cover_check", "kernel_relation_homogeneity")],
    "parser.parse": [f"parser:{name}" for name in (
        "parse_series", "parse_operator", "parse_symbol", "parse_module")],
    "cli.main": ["cli:main"],
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _count_echelon_add(counts, args, result):
    counts["linalg.echelon_add.pivots"] += result is None
    counts["linalg.nnz_in"] += len(args[1])


def _count_assembly(counts, args, result):
    for matrix in result.differentials:
        counts["derham.matrix_cols"] += matrix.ncols
        counts["derham.matrix_nnz"] += sum(len(col) for col in matrix.cols)


_COUNTERS = {
    "linalg:ColumnEchelon.add": _count_echelon_add,
    "derham:complex_from_family": _count_assembly,
}


def _resolve(target):
    module_name, _, qualname = target.partition(":")
    obj = sys.modules[f"formald.{module_name}"]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces():
    """Every formald module dict and class dict that can bind a target."""
    for name, module in list(sys.modules.items()):
        if name == "formald" or name.startswith("formald."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def install(tracer):
    """Replace every binding of every target; returns the undo list."""
    wrappers = {}
    for name, targets in SPANS.items():
        for target in targets:
            original = _resolve(target)
            wrappers[id(original)] = (original, tracer.wrap(
                name, original, _COUNTERS.get(target)))
    undo = []
    for space in _namespaces():
        for attr, value in list(vars(space).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(space, attr, hit[1])
                undo.append((space, attr, value))
    return undo


def uninstall(undo):
    for space, attr, value in reversed(undo):
        setattr(space, attr, value)


def self_times(spans):
    """Self time of every span: duration minus its children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass: ``<span>.calls`` and
    ``<span>.self_s`` for every span name, plus the counters."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    for (name, _, _, _), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        busy[name] += own
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    out["derham.dd_check_s"] = out.pop("derham.dd_check.self_s")
    counts = tracer.counts
    adds = calls["linalg.echelon_add"]
    out["linalg.pivot_ratio"] = (counts["linalg.echelon_add.pivots"] / adds
                                 if adds else 0.0)
    for key in ("linalg.nnz_in", "derham.matrix_cols", "derham.matrix_nnz"):
        out[key] = counts[key]
    return out
