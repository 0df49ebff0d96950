"""The package's module layering and its public surface.

`certificate` holds the certificate types and imports only the standard
library, so a checker can read a certificate without importing what made
it.  `engine` is below `theorems`, `verify` and `generate`: it imports
none of them.  The engine's peels and leaves eliminate with
`linalg._engine_bareiss` and the dense oracle with `linalg._bareiss`, so
that a fault in one loop cannot hide in both.  The names `digrank`
exports are pinned, so moving code between modules cannot drop or add one
unnoticed.
"""

import ast
import random
import sys
import types
from pathlib import Path

import pytest

import digrank
from digrank import build, engine, linalg, oracle_rank, random_digraph, rank_recursive

PACKAGE = Path(digrank.__file__).parent


def imported_modules(name: str) -> set[str]:
    """The top-level modules that digrank/<name>.py imports anywhere in
    it, with the package's own modules written as "digrank.<module>"."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                found.add(".".join(parts[:2]) if parts[0] == "digrank" else parts[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = node.module.split(".")
                if parts[0] != "digrank":
                    found.add(parts[0])
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                found.add(f"digrank.{parts[0]}")
            else:  # from . import x, y
                found.update(f"digrank.{alias.name}" for alias in node.names)
    return found


def test_imported_modules_sees_the_package_imports():
    assert imported_modules("engine") >= {"fractions", "digrank.blocks", "digrank.certificate"}
    assert "digrank.engine" in imported_modules("theorems")


def test_certificate_imports_only_the_standard_library():
    found = imported_modules("certificate")
    assert not {m for m in found if m.startswith("digrank")}, found
    assert found <= set(sys.stdlib_module_names) | {"__future__"}, found


@pytest.mark.parametrize("above", ["theorems", "verify", "generate"])
def test_engine_imports_nothing_above_it(above):
    assert f"digrank.{above}" not in imported_modules("engine")


@pytest.mark.parametrize("name", ["_bareiss", "_scaled_int_row", "_scaled_int_rows", "int_rank"])
def test_engine_binds_none_of_the_oracle_kernel(name):
    assert not hasattr(engine, name)


@pytest.mark.parametrize("name", ["arc_rank", "_arc_residues", "_residue_rows", "_bareiss_rank"])
def test_linalg_has_one_mod_p_entry(name):
    """`leaf_rank` on an entry dict is the only mod-p entry point, with its
    residue read and Bareiss fallback inside it."""
    assert not hasattr(linalg, name)


def count_kernels(monkeypatch):
    """A list that gets "oracle" per `_bareiss` call and "engine" per
    `_engine_bareiss` call."""
    calls = []

    def counting(real, tag):
        return lambda *a: calls.append(tag) or real(*a)

    for name, tag in (("_bareiss", "oracle"), ("_engine_bareiss", "engine")):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name), tag))
    return calls


def test_the_oracle_never_calls_the_engine_kernel(monkeypatch):
    G = random_digraph(12, random.Random("oracle-kernel"), p=0.3)
    calls = count_kernels(monkeypatch)
    oracle_rank(G)
    assert calls and set(calls) == {"oracle"}


def pendant_over_triangle():
    """A one-way pendant 0 -> 1 as the root block, with a bi-arc triangle
    1-2-3 below it: the triangle's peel at 1 eliminates a 2 x 2 B, and the
    root leaf is 2 x 2, so no leaf of order 3-15 sends the engine to `rank`."""
    triangle = [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (3, 1, 1), (1, 3, 1)]
    return build(4, [(0, 1, 1)] + triangle)


def singular_block():
    """One block of order 40 whose vertex 1 copies vertex 0's out-arcs: the
    mod-p pass cannot prove it full, so its rank 39 takes one Bareiss."""
    G = random_digraph(40, random.Random(0), p=0.3)
    arcs = [(u, v, w) for u, v, w in G.arcs() if u != 1]
    return build(40, arcs + [(1, v, w) for u, v, w in arcs if u == 0])


def test_the_engine_never_calls_the_oracle_kernel(monkeypatch):
    for G, expected, once in ((pendant_over_triangle(), 3, False), (singular_block(), 39, True)):
        with monkeypatch.context() as m:
            calls = count_kernels(m)
            cert = rank_recursive(G)
        assert calls and set(calls) == {"engine"}
        assert len(calls) == 1 or not once
        assert cert.rank == oracle_rank(G) == expected


# The sorted public names of `digrank` that are not modules.
PUBLIC = (
    "BlockDecomposition CertNode Classification CutSplit CutVertexCase DEFAULT_POOL "
    "DigraphAttachment DigraphError DimensionMismatch DuplicateArc EdgeAddition EdgeKind "
    "FAMILIES GenSpec InconsistentClassification IndexOutOfRange InternalMismatch "
    "InvalidSpec InvalidSplit MatchingResult NotAForest ParseError PreconditionViolated "
    "RankCertificate RankResult RationalMatrix RuleTag SUITE_DEFAULTS SuiteReport TreeKind "
    "UnknownSuite VertexOutOfRange WeightedDigraph ZeroWeight apply_additions "
    "block_subdigraph bordered breve build build_genr2 check_lemma_2rin classify_bordered "
    "classify_cut classify_tree count_loop_attachments decompose dot extend_to_r2 "
    "format_digraph gen in_column_space in_row_space is_forest is_r0_biblock_graph "
    "is_r0_block is_r0_digraph is_r2_biblock_graph is_r2_block is_r2_block_graph "
    "is_r2_digraph is_r2_tree_digraph is_tree loop_invariance_check make_split "
    "max_matching oracle_rank parse_digraph random_digraph rank rank_case1_peel "
    "rank_case2_peel rank_case3_peel rank_delta_cr2 rank_genr2 rank_mdt "
    "rank_r0_biblock_graph rank_r0_digraph rank_r2_biblock_graph rank_r2_block_graph "
    "rank_r2_digraph rank_r2_tree rank_recursive rank_tree render_certificate run_suite "
    "side_components suite_names tree_summary vector"
).split()


def test_public_names_are_pinned():
    names = sorted(
        n
        for n in dir(digrank)
        if not n.startswith("_") and not isinstance(getattr(digrank, n), types.ModuleType)
    )
    assert len(PUBLIC) == 89
    assert names == PUBLIC
