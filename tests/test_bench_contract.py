"""The benchmark's hooks into the package still resolve.

verifbench/ wraps and observes functions by name (its tracer targets, the
span names it reports, the observers it attaches) and calls a few of them
directly, so renaming one silently empties a per-layer metric. The scripts
are read with ast, not imported: importing run.py pins the BLAS thread
variables for the whole test process.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

from reluverify import bab

BENCH = Path(__file__).resolve().parents[1] / "verifbench"
# Deleted on purpose: the witness is the bound's own minimizer, so nothing
# constructs one. The tracer lists it as a missing target and skips it.
GONE = {"witness.construct_witness"}


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _module_constant(tree, name):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found")


def _resolve(module, attr_path):
    obj = importlib.import_module(f"reluverify.{module}")
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


def _span_names():
    run = _tree("run.py")
    names = set(_module_constant(run, "LAYER_SPANS"))
    for node in ast.walk(run):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tracer":
            for kw in node.keywords:
                if kw.arg == "observers":
                    names.update(ast.literal_eval(key) for key in kw.value.keys)
    return names


def test_span_and_observer_names_resolve():
    names = _span_names()
    assert {"bab.verify", "bab.Worklist.push", "bab.split_subdomain"} <= names
    for name in sorted(names - GONE):
        module, attr_path = name.split(".", 1)
        assert callable(_resolve(module, attr_path)), name


def test_tracer_targets_resolve():
    targets = _module_constant(_tree("tracer.py"), "TARGETS")
    assert {span for span, _, _ in targets} >= _span_names()
    for span, module, attr_path in targets:
        if span not in GONE:
            assert callable(_resolve(module, attr_path)), span


def test_direct_calls_resolve():
    for script in ("run.py", "setup_probe.py"):
        for node in ast.walk(_tree(script)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cli", "model")):
                _resolve(node.value.id, node.attr)


def test_verify_signature_and_the_run_fields_read():
    assert list(inspect.signature(bab.verify).parameters) == ["task", "heuristic", "config"]
    recorder = next(node for node in _tree("run.py").body
                    if isinstance(node, ast.ClassDef) and node.name == "RunRecorder")
    read = {node.attr for node in ast.walk(recorder)  # what the wrapped verify returned
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result"}
    assert "verdict" in read
    assert read <= {f.name for f in fields(bab.RunStats)}
