"""The package's module layering and its public surface.

`certificate` holds the certificate types and imports only the standard
library, so a checker can read a certificate without importing what made
it.  `engine` is below `theorems`, `verify` and `generate`: it imports
none of them.  The names `digrank` exports are pinned, so moving code
between modules cannot drop or add one unnoticed.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

import digrank

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
