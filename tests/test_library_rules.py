"""Rules the library source keeps."""

import ast
import pathlib

import bsurf

SOURCES = sorted(pathlib.Path(bsurf.__file__).parent.glob("*.py"))


def test_no_assert_in_library():
    # python -O strips asserts, so invariants must raise exceptions instead
    assert any(p.name == "dividing.py" for p in SOURCES)
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
