"""No correctness check in the package may rest on `assert`: `python -O`
strips assert statements, so checks raise a DigraphError instead."""

import ast
from pathlib import Path

import pytest

import digrank

MODULES = sorted(Path(digrank.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"
