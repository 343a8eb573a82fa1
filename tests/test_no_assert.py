"""No `assert` statement in the library: `python -O` strips them, so every
invariant is enforced by an explicit exception instead."""

import ast
from pathlib import Path

import plastore

SRC = Path(plastore.__file__).resolve().parent


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {', '.join(found)}"
