"""Source-level guards over the package modules."""

import ast
import pathlib

import dualminkowski

PACKAGE = pathlib.Path(dualminkowski.__file__).parent


def test_no_assert_statements():
    """Checks must raise errors that survive python -O, which strips assert."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
