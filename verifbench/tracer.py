"""Span tracer that wraps reluverify's public functions from outside.

Each target is a (span name, module, attribute path) triple. install() swaps
the attribute for a wrapper that records one span per call: name, start, end
and the enclosing span. Modules call each other through module attributes
(`relax.compute_bounds(...)`, `model.forward(...)`), so patching the attribute
also catches calls made inside the package. A target that no longer exists is
listed in `missing` and skipped. Spans are kept in flat arrays in memory and
aggregated after the pass.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.bench", "cli", "cmd_bench"),
    ("model.load_task", "model", "load_task"),
    ("model.forward", "model", "forward"),
    ("model.margin", "model", "margin"),
    ("model.margin_preact_gradients", "model", "margin_preact_gradients"),
    ("relax.optimize_alpha", "relax", "optimize_alpha"),
    ("relax.alpha_gradient", "relax", "alpha_gradient"),
    ("relax.compute_bounds", "relax", "compute_bounds"),
    ("relax.propagate_bounds", "relax", "propagate_bounds"),
    ("witness.construct_witness", "witness", "construct_witness"),
    ("witness.validate_witness", "witness", "validate_witness"),
    ("heuristics.score_branches", "heuristics", "score_branches"),
    ("heuristics.select_branch", "heuristics", "select_branch"),
    ("bab.verify", "bab", "verify"),
    ("bab.split_subdomain", "bab", "split_subdomain"),
    ("bab.input_bisect", "bab", "input_bisect"),
    ("bab.Worklist.push", "bab", "Worklist.push"),
    ("bab.Worklist.pop", "bab", "Worklist.pop"),
)

# Called as observer(args, result) after a span closes, outside its timing.
Observer = Callable[[tuple, object], None]


class Tracer:
    def __init__(self, package: str, targets=TARGETS, observers: Dict[str, Observer] = None):
        self.package = package
        self.targets = targets
        self.observers = observers or {}
        self.names: List[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for span_name, module_name, attr_path in self.targets:
            owner = importlib.import_module(f"{self.package}.{module_name}")
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(span_name)
                continue
            self.names.append(span_name)
            wrapper = self._wrap(len(self.names) - 1, original, self.observers.get(span_name))
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name_id: int, fn, observer):
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if observer is not None:
                observer(args, result)
            return result

        return traced
