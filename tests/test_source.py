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
