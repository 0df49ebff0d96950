"""What a vertex count, a vertex id and an arc weight are is decided in one
module: `digraph` reads them (`_count`, `_id`, `_weight`) and every other
module calls its readers.  So no other module raises VertexOutOfRange, and
none reads an integer with `operator.index` itself."""

import ast
from pathlib import Path

import pytest

import digrank

MODULES = sorted(p for p in Path(digrank.__file__).parent.glob("*.py") if p.name != "digraph.py")


def _reads_integers(tree):
    """The lines that import or use `operator`, or call `__index__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name == "operator" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "operator":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "__index__":
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_digraph_raises_vertex_out_of_range(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "VertexOutOfRange"
    ]
    assert not lines, f"{path.name} constructs VertexOutOfRange on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_digraph_reads_integers_with_operator_index(path):
    """`generate` once had `_size`, a block-size reader of its own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_reads_integers(tree))
    assert not lines, f"{path.name} reads integers itself on lines {lines}"
