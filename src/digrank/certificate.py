"""Rank certificates: the tree of rule applications behind a rank.

Each CertNode names the rule that fired (RuleTag), where, and the rank it
contributed; a RankCertificate's rank is the sum over its tree.  A
CertNode is a named tuple (so a tuple subclass), immutable and cheap to
build, as the engine builds one per peel, leaf and sum.  This module
imports nothing from the package, so code that checks a certificate need
not import what computed it.

Rule vocabulary (RuleTag).  The four peel tags are the outcomes of one
peel of block b at its parent cut-vertex v, with B the current matrix on
b - v; each node contributes r(B) plus the rows/columns of v it deleted:

- CASE_I_PEEL: v's row lies outside the row space of B and v's column
  outside its column space; both are deleted, +2.
- CASE_III_PEEL: exactly one of v's row and column lies outside; that one
  is deleted, +1, and v stays in the rest with only the other.
- CASE_III_LT: both lie inside; v's loop is replaced by its Schur-style
  residue alpha - x.d (B d = y), which is nonzero.
- R0_PEEL: nothing is deleted and no nonzero residue is left (case II,
  or v had already lost its row or column to an earlier peel).
- R2_DIGRAPH: every cut-vertex has an incident block whose rank drops by
  exactly 2 when the cut-vertex is removed; r(G) = sum r(breve B_i) + 2m.
  Its children are the summands breve B_i (block i minus G's
  cut-vertices).
- R0_DIGRAPH: at most one block fails the all-cuts rank-drop-0 test and
  no cut-vertex carries a loop; r(G) = sum r(B_i).
- TREE_MATCHING / R2_TREE: closed forms for tree-shaped components.
- BLOCK_GRAPH_2K / BIBLOCK_GRAPH_2K: family formulas (rank = n, rank = 2k);
  used by the dedicated family operations, never by the engine, so that
  block graphs still exercise the peeling rules.
- DIRECT_RANK: the rank of what the peels leave of a root block (a whole
  one-block component included), of an R0_DIGRAPH summand, or of an
  R2_DIGRAPH summand of at most two vertices; "empty" for no vertex.
- COMPONENT_SUM: plumbing node summing over connected components, or over
  the flat list of nodes of one peel pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple


class RuleTag(Enum):
    CASE_I_PEEL = "CaseIPeel"
    R2_DIGRAPH = "R2Digraph"
    R0_PEEL = "R0Peel"
    R0_DIGRAPH = "R0Digraph"
    CASE_III_PEEL = "CaseIIIPeel"
    CASE_III_LT = "CaseIIILt"
    TREE_MATCHING = "TreeMatching"
    R2_TREE = "R2Tree"
    BLOCK_GRAPH_2K = "BlockGraph2k"
    BIBLOCK_GRAPH_2K = "BiblockGraph2k"
    DIRECT_RANK = "DirectRank"
    COMPONENT_SUM = "ComponentSum"


class CertNode(NamedTuple):
    """One rule application.  Vertex ids are the original graph's ids.

    A named tuple, so also a tuple: it equals a plain tuple of the same
    seven values, and it can be indexed, unpacked and measured with len.
    """

    rule: RuleTag
    contributed: int
    children: tuple["CertNode", ...] = ()
    block_index: int | None = None
    block_vertices: tuple[int, ...] | None = None
    cut_vertex: int | None = None
    note: str = ""

    @property
    def total(self) -> int:
        return self.contributed + sum(c.total for c in self.children)

    def walk(self) -> Iterator["CertNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    root: CertNode

    def rules_used(self) -> set[RuleTag]:
        return {node.rule for node in self.root.walk()}


def render_certificate(cert: RankCertificate) -> str:
    lines: list[str] = []

    def emit(node: CertNode, depth: int) -> None:
        parts = [node.rule.value]
        if node.block_index is not None:
            parts.append(f"block={node.block_index}")
        if node.cut_vertex is not None:
            parts.append(f"v={node.cut_vertex}")
        parts.append(f"contributes={node.contributed}")
        if node.block_vertices is not None:
            parts.append("[" + ",".join(str(v) for v in node.block_vertices) + "]")
        if node.note:
            parts.append(f"({node.note})")
        lines.append("  " * depth + " ".join(parts))
        for c in node.children:
            emit(c, depth + 1)

    emit(cert.root, 0)
    return "\n".join(lines) + "\n"
