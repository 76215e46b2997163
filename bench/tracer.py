"""Spans around calls into sclsat's public functions, recorded from outside.

``Tracer.install`` replaces each named function wherever a loaded sclsat
module binds it (its own module, every module that from-imports it, the
package namespace and the ``sat_solvers._STRATEGIES`` table) by a wrapper
that records one span: the function's name, its start and end, the span
that was open when it was called (its parent) and the current op id.
Spans stay in memory, in flat arrays, until ``write`` saves them.

A layer's self time is its spans' durations minus the durations of their
direct children.  Bookkeeping the tracer does inside a span's parent (the
tree statistics after ``se``) is recorded as a span of its own, named
``tracer.bookkeeping``, so that it is not charged to the parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs to wrap, in sclsat's layer order.
TARGETS = [
    ("formula_core", "parse"),
    ("formula_core", "render"),
    ("formula_core", "enumerate_formulas"),
    ("eval_tree", "se"),
    ("eval_tree", "substitute"),
    ("eval_tree", "render_tree"),
    ("eval_tree", "export_dot"),
    ("paths", "result"),
    ("paths", "parse_path"),
    ("paths", "render_path"),
    ("paths", "check_discipline"),
    ("normal_form", "normalize"),
    ("normal_form", "classify_nf"),
    ("valuation_algebras", "build_va"),
    ("valuation_algebras", "build_cva"),
    ("valuation_algebras", "build_sva"),
    ("valuation_algebras", "eval_formula"),
    ("valuation_algebras", "random_algebra"),
    ("valuation_algebras", "class_check"),
    ("valuation_algebras", "congruent"),
    ("sat_solvers", "solve"),
    ("sat_solvers", "sat_boolean"),
    ("sat_solvers", "sat_direct"),
    ("sat_solvers", "sat_open"),
    ("sat_solvers", "sat_brute_control"),
    ("sat_solvers", "verify_witness"),
    ("axiom_suite", "instantiate"),
    ("axiom_suite", "check_fscl_soundness"),
    ("axiom_suite", "check_model_soundness"),
    ("cli", "main"),
    ("cli", "build_parser"),
]

BOOKKEEPING = "tracer.bookkeeping"


def tree_stats(tree) -> tuple[int, int]:
    """(leaves of the tree, distinct node objects) of an evaluation tree,
    counted over the object graph by identity, so shared subtrees are
    visited once."""
    leaves: dict[int, int] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in leaves:
            stack.pop()
            continue
        left = getattr(node, "left", None)
        if left is None:
            leaves[id(node)] = 1
            stack.pop()
            continue
        right = node.right
        pending = [child for child in (left, right) if id(child) not in leaves]
        if pending:
            stack.extend(pending)
            continue
        leaves[id(node)] = leaves[id(left)] + leaves[id(right)]
        stack.pop()
    return leaves[id(tree)], len(leaves)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.open: list[int] = []
        self.op = -1
        # Counts measured at the span boundaries, by metric name.
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.open[-1] if self.open else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self.open.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def _end(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self.open.pop()

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        begin, end = self._begin, self._end
        after = self._after(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    end(index)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after(self, name: str):
        """Counting hook run after a successful call, outside its span."""
        count = self._count
        if name == "sat_solvers.sat_boolean":
            return lambda args, out: count("sat_solvers.sat_boolean.clauses", out.node_visits)
        if name == "formula_core.parse":
            return lambda args, out: count("formula_core.parse.chars", len(args[0]))
        if name == "valuation_algebras.build_va":
            return lambda args, out: count("valuation_algebras.build_va.path_entries", len(args[0]))
        if name == "eval_tree.se":
            bookkeeping = self._name_id(BOOKKEEPING)

            def se_stats(args, out):
                index = self._begin(bookkeeping)
                leaves, nodes = tree_stats(out)
                self._end(index)
                count("eval_tree.se.tree_leaves", leaves)
                count("eval_tree.se.distinct_nodes", nodes)
            return se_stats
        return None

    def install(self) -> None:
        modules = {
            name: module for name, module in list(sys.modules.items())
            if module is not None and (name == "sclsat" or name.startswith("sclsat."))
        }
        for module_name, func_name in TARGETS:
            original = getattr(modules["sclsat." + module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            strategies = modules["sclsat.sat_solvers"]._STRATEGIES
            for key, value in strategies.items():
                if value is original:
                    strategies[key] = wrapper

    def write(self, path: str) -> None:
        """Header line of JSON, then the five span arrays in native byte order."""
        fields = [("name", self.span_name), ("parent", self.span_parent), ("op", self.span_op),
                  ("start_ns", self.span_start), ("end_ns", self.span_end)]
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "fields": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, arr in fields:
                arr.tofile(out)

    def summary(self) -> dict:
        """Per function name: calls, total and self nanoseconds; plus the
        number of brute-force calls made directly inside solve and of
        class_check calls made inside random_algebra."""
        count = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child_time = [0] * count
        parent = self.span_parent
        for i in range(count):
            if parent[i] >= 0:
                child_time[parent[i]] += duration[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name = self.span_name
        for i in range(count):
            calls[name[i]] += 1
            total[name[i]] += duration[i]
            self_ns[name[i]] += duration[i] - child_time[i]
        ids = self.name_ids
        nested = {"solve_fallbacks": 0, "class_checks_in_random_algebra": 0}
        pairs = {
            (ids.get("sat_solvers.sat_brute_control"), ids.get("sat_solvers.solve")): "solve_fallbacks",
            (ids.get("valuation_algebras.class_check"), ids.get("valuation_algebras.random_algebra")):
                "class_checks_in_random_algebra",
        }
        for i in range(count):
            p = parent[i]
            key = pairs.get((name[i], name[p])) if p >= 0 else None
            if key is not None:
                nested[key] += 1
        return {
            "functions": {
                n: {"calls": calls[k], "total_ns": total[k], "self_ns": self_ns[k]}
                for k, n in enumerate(self.names)
            },
            "counts": dict(self.counts),
            **nested,
        }
