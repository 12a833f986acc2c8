"""The benchmark's hooks into the package still resolve.

verifbench/ wraps and observes functions by name (its tracer targets, the
span names it reports, the observers it attaches) and calls a few of them
directly, so renaming one silently empties a per-layer metric. The scripts
are read with ast, not imported: importing run.py pins the BLAS thread
variables for the whole test process.
"""

import argparse
import ast
import importlib
import inspect
import typing
from dataclasses import fields
from pathlib import Path

from reluverify import bab, cli, relax

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
    # Each cli./model. name the scripts use exists, and each call of one binds
    # to the function's signature, so a changed signature cannot break them.
    calls = 0
    for script in ("run.py", "setup_probe.py"):
        for node in ast.walk(_tree(script)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cli", "model")):
                _resolve(node.value.id, node.attr)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) in ("cli", "model")):
                where = f"{script}:{node.lineno}"
                assert not any(isinstance(a, ast.Starred) for a in node.args), where
                assert all(kw.arg is not None for kw in node.keywords), where
                signature = inspect.signature(_resolve(node.func.value.id, node.func.attr))
                try:
                    signature.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
                except TypeError as exc:
                    raise AssertionError(f"{where}: {exc}") from None
                calls += 1
    assert calls >= 3  # cli.main, cli.discover_suite, model.load_task


def _flags(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and str(n.value).startswith("--")}


def test_the_argv_run_py_passes_parses():
    # Every --flag run.py passes to gen and bench (gen_argv, bench_argv and
    # each workload's gen_args) is an option of that subcommand, so deleting
    # one the benchmark passes fails here rather than in a benchmark run.
    run = _tree("run.py")
    passed = {}
    for node in run.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("gen_argv", "bench_argv"):
            returned = next(n.value for n in ast.walk(node) if isinstance(n, ast.Return))
            passed.setdefault(ast.literal_eval(returned.elts[0]), set()).update(_flags(node))
    passed["gen"].update(*(_flags(node) for node in ast.walk(run) if isinstance(node, ast.Call)
                           and getattr(node.func, "id", None) == "Workload"))
    assert {"--seed", "--layers", "--out"} <= passed["gen"]
    assert {"--heuristics", "--max-branches", "--timeout"} <= passed["bench"]
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, flags in passed.items():
        assert flags <= set(commands[command]._option_string_actions), command


def test_verify_signature_and_the_run_fields_read():
    assert list(inspect.signature(bab.verify).parameters) == ["task", "heuristic", "config"]
    recorder = next(node for node in _tree("run.py").body
                    if isinstance(node, ast.ClassDef) and node.name == "RunRecorder")
    read = {node.attr for node in ast.walk(recorder)  # what the wrapped verify returned
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result"}
    assert "verdict" in read
    assert read <= {f.name for f in fields(bab.RunStats)}


def _attribute_chains(expr, root):
    """The longest attribute chains read off the name root in expr, as tuples."""
    chains = set()
    for node in ast.walk(expr):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == root:
            chains.add(tuple(chain))
    return {c for c in chains if not any(len(o) > len(c) and o[:len(c)] == c for o in chains)}


def test_the_attributes_the_split_observer_reads_resolve():
    # trace_pass's observer of bab.split_subdomain reads attributes of each
    # child it returns; every --trace 1 pass fails if one of them is renamed.
    # Each is looked up on the type the one before it returns.
    trace_pass = next(node for node in _tree("run.py").body
                      if isinstance(node, ast.FunctionDef) and node.name == "trace_pass")
    tracer = next(node for node in ast.walk(trace_pass)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tracer")
    observers = next(kw.value for kw in tracer.keywords if kw.arg == "observers")
    name = dict(zip((ast.literal_eval(k) for k in observers.keys),
                    (v.id for v in observers.values)))["bab.split_subdomain"]
    on_split = next(node for node in ast.walk(trace_pass)
                    if isinstance(node, ast.FunctionDef) and node.name == name)
    result = on_split.args.args[1].arg  # called as observer(args, result)
    chains = set()
    for node in ast.walk(on_split):
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            for gen in node.generators:
                if getattr(gen.iter, "id", None) == result:
                    chains |= _attribute_chains(node.elt, gen.target.id)
    assert chains == {("neuron_bounds", "is_feasible")}
    owners = [bab.SubDomain]
    for attr in ("neuron_bounds", "is_feasible"):
        member = inspect.getattr_static(owners[-1], attr)  # AttributeError if renamed
        owners.append(typing.get_type_hints(getattr(member, "fget", member))["return"])
    assert owners == [bab.SubDomain, relax.NeuronBounds, bool]
