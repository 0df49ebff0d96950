"""What a vertex count, a vertex id and an arc weight are is decided in one
module: `digraph` reads them (`_count`, `_id`, `_weight`) and every other
module calls its readers.  So no other module raises VertexOutOfRange, and
none reads an integer with `operator.index` itself.

Likewise a digraph built from another is written in one place, `digraph._grow`:
no other module raises DuplicateArc, and no function in `theorems` or
`verify` copies a digraph's `.arcs()` into `build`."""

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


def _calls(tree, name):
    """The lines of tree that call `name`, plain or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_digraph_raises_duplicate_arc(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _calls(tree, "DuplicateArc")
    assert not lines, f"{path.name} constructs DuplicateArc on lines {lines}"


@pytest.mark.parametrize("name", ["theorems.py", "verify.py"])
def test_no_function_rebuilds_a_digraph_from_its_arcs(name):
    """`build_genr2` and verify's planted cases once sorted a whole digraph's
    arcs into a list and read every one again through `build`; they grow
    it with `_grow` instead."""
    path = Path(digrank.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _calls(node, "arcs")
        and _calls(node, "build")
    ]
    assert not funcs, f"{name} copies .arcs() into build in {funcs}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_digraph_reads_integers_with_operator_index(path):
    """`generate` once had `_size`, a block-size reader of its own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_reads_integers(tree))
    assert not lines, f"{path.name} reads integers itself on lines {lines}"
