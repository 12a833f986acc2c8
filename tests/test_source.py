import ast
import os
import subprocess
import sys
from pathlib import Path

import reluverify


def test_no_assert_statements_in_src():
    # python -O strips assert statements: an invariant must be a real check.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(reluverify.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_names_across_src_modules():
    # A module's _-prefixed names are its own: no sibling module imports one
    # (from .relax import _x) or reads one off the module (relax._x).
    paths = sorted(Path(reluverify.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == []


def test_json_writers_in_src_reject_non_finite_numbers():
    # Python's json writes bare Infinity and NaN, which strict JSON parsers
    # reject: every json.dump/json.dumps call in src/ passes allow_nan=False.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(reluverify.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords)
    ]
    assert found == []


def test_relaxations_live_only_on_stacks_built_in_relax():
    # A bounded stack (relax.Domains) is the one holder of relaxations, and
    # only relax builds one: every other module takes a sub-stack by indexing
    # the one propagate_bounds returns. NeuronBounds holds intervals (one
    # array, with its layer offsets) and feasibility, nothing else.
    src = Path(reluverify.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py")) if path.name != "relax.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == "Domains"
             or isinstance(node.func, ast.Attribute) and node.func.attr == "Domains")
    ]
    assert found == []
    relax_tree = ast.parse((src / "relax.py").read_text(encoding="utf-8"))
    nb = next(node for node in relax_tree.body
              if isinstance(node, ast.ClassDef) and node.name == "NeuronBounds")
    assert [node.target.id for node in nb.body if isinstance(node, ast.AnnAssign)] == [
        "data", "offsets", "feasible"]


def test_only_branchings_makes_a_witness():
    # A run reports one counterexample, made where bab.branchings decides
    # that a node is unsafe; validate_witness returns plain arrays.
    src = Path(reluverify.__file__).parent
    makes = lambda tree: [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                          and "Witness" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert [name for name, tree in trees.items() for _ in makes(tree)] == ["bab.py"]
    branchings = next(node for node in trees["bab.py"].body
                      if isinstance(node, ast.FunctionDef) and node.name == "branchings")
    assert len(makes(branchings)) == 1
    wit = next(node for node in trees["witness.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "Witness")
    assert [node.name for node in wit.body if isinstance(node, ast.FunctionDef)] == ["to_dict"]


def test_witness_imports_only_model_of_the_package():
    # A witness is checked on the network alone, so a checker that reads no
    # bounds can reuse witness.py.
    tree = ast.parse((Path(reluverify.__file__).parent / "witness.py").read_text(encoding="utf-8"))
    own = [(node.module, alias.name) for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    assert own == [(None, "model")]


def test_a_bench_pass_loads_neither_statistics_nor_numpy_ma(tmp_path):
    # Every process imports reluverify.cli, the benchmark's set-up probe
    # included, and bench writes two means and two medians: statistics (with
    # fractions and decimal) would cost each process about 0.45 MB and 2.5 ms
    # to import, and np.median of floats loads numpy.ma, about 2 MB.
    src = str(Path(reluverify.__file__).parent.parent)
    suite, out = str(tmp_path / "suite"), str(tmp_path / "report")
    probe = "\n".join([
        "import contextlib, io, sys",
        "from reluverify import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    cli.main(['gen', '--seed', '1', '--layers', '1', '--widths', '4', '--count', '3',"
        f" '--eps', '0.3', '--out', {suite!r}])",
        f"    cli.main(['bench', '--suite', {suite!r}, '--heuristics', 'drg', '--out', {out!r}])",
        "print([m for m in ('statistics', 'numpy.ma') if m in sys.modules])"])
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert got.stdout.strip() == "[]"
    assert (tmp_path / "report" / "summary.csv").is_file()
