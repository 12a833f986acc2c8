import ast
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
