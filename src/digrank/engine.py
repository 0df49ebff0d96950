"""Rank formulas, decomposition rules, and the structural rank engine.

The engine computes the adjacency rank of a weighted digraph by structural
decomposition, producing a certificate tree that records which rule fired
where and how much rank it contributed.  Every formula in here is also
available as a standalone operation with explicit preconditions
(PreconditionViolated when the hypotheses do not hold), so tests can pit
each one against the dense-elimination oracle independently.

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
  The test visits a cut-vertex's blocks smallest first: a pendant edge
  settles it with a 1x1 peel.
  The summands breve B_i (block i minus G's cut-vertices) together make up
  the component minus its cut-vertices.  That is cut from the rank's weight
  store as one copy, in O(its arcs), and decomposed once; each component of
  the copy lies inside one block i, and each summand gets one peel pass
  over the components in its block.
- R0_DIGRAPH: at most one block fails the all-cuts rank-drop-0 test and
  no cut-vertex carries a loop; r(G) = sum r(B_i).  Its test visits blocks
  smallest first too; both run before any peel writes W, so order changes
  no peel.  When the rule fires, the test has peeled every block B_i at
  its first cut-vertex with loop 0, which is that vertex's loop, so
  r(B_i) is that peel's rank + delta: no summand is ranked again.
- TREE_MATCHING / R2_TREE: closed forms for tree-shaped components.
- BLOCK_GRAPH_2K / BIBLOCK_GRAPH_2K: family formulas (rank = n, rank = 2k);
  used by the dedicated family operations, never by the engine, so that
  block graphs still exercise the peeling rules.
- DIRECT_RANK: the rank of what the peels leave of a root block (a whole
  one-block component included), read from the rank's per-vertex weight
  store, where peels write loop residues; also an R0_DIGRAPH summand,
  whose rank comes from its peel.  A leaf with at most one row or column
  has rank 1 exactly when one of its entries is nonzero (a zero residue a
  peel wrote counts as zero).  From order _MOD_P_MIN_ORDER up,
  the leaf's rows are the vertices' out-dicts themselves, handed with the
  leaf's columns to `leaf_rank`, which walks them once, O(arcs of the
  block), skipping arcs to other columns and mapping each weight a/b to
  a * b^-1 mod a prime p: the weights lie in Z_(p) and reduction mod p is
  a ring map onto F_p, so full rank mod p proves full rank over Q, and any
  other leaf goes to dense Bareiss.  Between the two it is dense Bareiss.
- COMPONENT_SUM: plumbing node summing over connected components, or over
  the flat list of nodes of one peel pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

from .blocks import BlockDecomposition, _block_pieces, decompose
from .classify import Classification, CutSplit, CutVertexCase, classify_cut, make_split
from .digraph import EdgeKind, WeightedDigraph, _attach, build
from .errors import (
    InconsistentClassification,
    InternalMismatch,
    PreconditionViolated,
    VertexOutOfRange,
)
from .linalg import RationalMatrix, SchurPeel, _int_row, _peel_rows, leaf_rank, rank
from .trees import TreeKind, tree_summary

# Bound here, though the engine does not call them, because perfbench's
# tracer wraps these names on this module.
from .linalg import in_column_space, in_row_space  # noqa: F401
from .trees import classify_tree, max_matching  # noqa: F401

_ZERO = Fraction(0)

# DIRECT_RANK leaves of this order and up go to `leaf_rank` (mod p, Bareiss
# when that cannot prove full rank), those below it from order 2 to `rank`
# (Bareiss).  On full-rank random digraph matrices (weights 1, -1, 2, 1/2,
# arc density 0.3) leaf_rank took 0.76-0.81x the time of `rank` at order 8,
# 0.41-0.43x at 16 and 0.13x at 40 (three runs, best of 5 over 400 or 100
# matrices each, CPython 3.11, 2-core VM).  But small leaves are often
# rank-deficient and pay for both: 1,769 of the 3,957 leaves (order 2-10)
# of a seed-1 pass of perfbench's small-mixed, 186 of the 1,369 (order 2-5)
# of closed-forms.  Sent to leaf_rank, these workloads' small leaves took
# 2.4-2.6x as long (measured while leaves of order <= 1 and R0 summands
# still went to `rank` too).
_MOD_P_MIN_ORDER = 16


def oracle_rank(G: WeightedDigraph) -> int:
    """Rank of the adjacency matrix by dense exact elimination."""
    return rank(G.adjacency_matrix()).rank


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


@dataclass(frozen=True)
class CertNode:
    """One rule application.  Vertex ids are the original graph's ids."""

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


# -- r2 / r0 block predicates ------------------------------------------------


def _cut_peel(W, rows: list, cols: list, v: int) -> SchurPeel:
    """schur_peel(0, x, y, B) for B the matrix on rows x cols and x, y v's
    row and column there, read from W (W[u][t] the weight of u -> t): loop
    0, so its residue is -x.d, and v's loop is added by the caller.  The
    rows [B | y] and [x, 0] are scaled integers read by one lookup per
    label of the peel (`_int_row`): arcs into other blocks cost nothing."""
    border, scale = _int_row(W[v], cols)
    border.append(0)
    ext = cols + [v]
    return _peel_rows([_int_row(W[u], ext)[0] for u in rows], border, scale)


def _block_rows(G: WeightedDigraph, blk: Sequence[int]) -> dict:
    """G's weights among blk in W's shape: rows[u][t] for u, t in blk."""
    return {u: dict(zip(blk, G.out_vector(u, blk))) for u in blk}


def _shared_peel(W, d: BlockDecomposition, peels: dict, b: int, v: int) -> SchurPeel:
    """The peel of block b of d at v on W as it stands at the first call
    for (b, v): computed once."""
    peel = peels.get((b, v))
    if peel is None:
        rest = [u for u in d.blocks[b] if u != v]
        peel = peels[(b, v)] = _cut_peel(W, rest, rest, v)
    return peel


def _r2_block(W, d: BlockDecomposition, peels: dict, b: int) -> bool:
    """Block b has exactly one cut-vertex v and loses rank 2 when v goes:
    v's row and column both lie outside the spaces of b - v."""
    cuts = d.cuts_in_block(b)
    if len(cuts) != 1:
        return False
    peel = _shared_peel(W, d, peels, b, cuts[0])
    return not peel.x_in and not peel.y_in


def _r0_block(W, d: BlockDecomposition, peels: dict, b: int) -> bool:
    """Removing any one cut-vertex v of d from block b keeps its rank: v's
    row and column lie in the spaces of b - v and its residue is 0."""
    for v in d.cuts_in_block(b):
        peel = _shared_peel(W, d, peels, b, v)
        if not (peel.x_in and peel.y_in and W[v].get(v, _ZERO) + peel.residue == 0):
            return False
    return True


def is_r2_block(G: WeightedDigraph, d: BlockDecomposition, i: int) -> bool:
    """Block i has exactly one cut-vertex v and loses rank 2 when v goes:
    v's border adds 2 to the rank of the rest of the block."""
    return _r2_block(_block_rows(G, d.blocks[i]), d, {}, i)


def is_r2_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> bool:
    """Every cut-vertex has at least one incident r2-block (vacuous if none)."""
    if d is None:
        d = decompose(G)
    return _r2_holds(G.out_rows(), d, {}, d.cut_vertices)


def is_r0_block(G: WeightedDigraph, d: BlockDecomposition, i: int) -> bool:
    """Removing any one of G's cut-vertices from block i keeps its rank:
    each cut-vertex's border adds 0 to the rank of the rest of the block."""
    return _r0_block(_block_rows(G, d.blocks[i]), d, {}, i)


def is_r0_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> bool:
    """All blocks, or all but one, are r0-blocks."""
    if d is None:
        d = decompose(G)
    return _r0_holds(G.out_rows(), d, {}, range(d.block_count))


def _r2_holds(W, d: BlockDecomposition, peels: dict, cuts) -> bool:
    """Every cut-vertex in cuts lies in an r2-block of d, its blocks
    tried smallest first: a pendant edge settles it with a 1x1 peel."""
    return all(any(_r2_block(W, d, peels, b) for b in _by_size(d, d.membership[v])) for v in cuts)


def _r0_holds(W, d: BlockDecomposition, peels: dict, blocks) -> bool:
    """At most one of blocks fails the r0-block test; they are tested
    smallest first, up to the second failure."""
    fails = (b for b in _by_size(d, blocks) if not _r0_block(W, d, peels, b))
    return len(list(islice(fails, 2))) <= 1


# -- sum formulas ------------------------------------------------------------


def _r2_decomposition(
    G: WeightedDigraph, who: str, at: Iterable[int] = (), d: BlockDecomposition | None = None
) -> BlockDecomposition:
    """decompose(G) (or d) when G is a connected r2-digraph and every vertex
    in at is one of its cut-vertices, else PreconditionViolated."""
    if d is None:
        d = decompose(G)
    if not G.is_connected():
        raise PreconditionViolated(f"{who} expects a connected digraph")
    if not is_r2_digraph(G, d):
        raise PreconditionViolated("not an r2-digraph: some cut-vertex has no r2-block")
    for v in at:
        if v not in d.cut_vertices:
            raise PreconditionViolated(f"attachment point {v} is not a cut-vertex of the base")
    return d


def rank_r2_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> int:
    """r(G) = sum of r(breve B_i) over all blocks + 2 * (number of cut-vertices)."""
    d = _r2_decomposition(G, "rank_r2_digraph", d=d)
    return 2 * len(d.cut_vertices) + sum(map(oracle_rank, _block_pieces(G, d, breves=True)))


def rank_mdt(G: WeightedDigraph, d: BlockDecomposition | None = None) -> int:
    """Per-block variant: needs every breve nonempty and every block to
    satisfy r(B_i) = r(breve B_i) + 2 * (cut-vertices in B_i)."""
    if d is None:
        d = decompose(G)
    if not G.is_connected():
        raise PreconditionViolated("rank_mdt expects a connected digraph")
    total = 2 * len(d.cut_vertices)
    blocks, breves = _block_pieces(G, d, breves=False), _block_pieces(G, d, breves=True)
    for i, (blk, br) in enumerate(zip(blocks, breves)):
        mi = len(d.cuts_in_block(i))
        if br.n == 0:
            raise PreconditionViolated(f"block {i} is all cut-vertices")
        rb = oracle_rank(blk)
        rbr = oracle_rank(br)
        if rb != rbr + 2 * mi:
            raise PreconditionViolated(
                f"block {i} violates the per-block drop: {rb} != {rbr} + 2*{mi}"
            )
        total += rbr
    return total


@dataclass(frozen=True)
class DigraphAttachment:
    """A digraph W glued to cut-vertex `at` by a two-weight bi-arc bridge.

    Arcs added: at -> w_vertex with weight `into_w`, w_vertex -> at with
    weight `out_of_w` (no loop on w_vertex's side of the bridge).
    """

    W: WeightedDigraph
    w_vertex: int
    at: int
    into_w: Fraction
    out_of_w: Fraction


def build_genr2(
    G: WeightedDigraph, attachments: Sequence[DigraphAttachment]
) -> WeightedDigraph:
    """The glued digraph; W vertex ids are shifted past the previous total."""
    arcs = [(u, v, w) for (u, v, w) in G.arcs()]
    n = G.n
    for att in attachments:
        if not (0 <= att.at < G.n):
            raise VertexOutOfRange(f"attachment point {att.at} outside base digraph")
        if not (0 <= att.w_vertex < att.W.n):
            raise VertexOutOfRange(f"w_vertex {att.w_vertex} outside its digraph")
        off = n
        for (u, v, w) in att.W.arcs():
            arcs.append((u + off, v + off, w))
        arcs.append((att.at, att.w_vertex + off, Fraction(att.into_w)))
        arcs.append((att.w_vertex + off, att.at, Fraction(att.out_of_w)))
        n += att.W.n
    return build(n, arcs)


def rank_genr2(
    G: WeightedDigraph, attachments: Sequence[DigraphAttachment]
) -> int:
    """Rank of the glued digraph: sum r(breve B_i) + sum r(W_j) + 2m.

    Preconditions: G is a connected r2-digraph and every attachment lands
    on one of its cut-vertices.
    """
    d = _r2_decomposition(G, "rank_genr2", [att.at for att in attachments])
    if any(att.W.n == 0 for att in attachments):
        raise PreconditionViolated("attached digraph is empty")
    return rank_r2_digraph(G, d) + sum(oracle_rank(att.W) for att in attachments)


@dataclass(frozen=True)
class EdgeAddition:
    """One single-vertex attachment for the rank-delta count."""

    at: int
    kind: EdgeKind
    weights: tuple
    toward_new: bool = True


def apply_additions(
    G: WeightedDigraph, additions: Sequence[EdgeAddition]
) -> WeightedDigraph:
    """G with the additions attached in order, from one copy of its arcs."""
    return _attach(G, ((a.at, a.kind, a.weights, a.toward_new) for a in additions))


def rank_delta_cr2(G: WeightedDigraph, additions: Sequence[EdgeAddition]) -> int:
    """Rank gained by attaching new vertices at cut-vertices of an r2-digraph.

    Loop-carrying attachments (NC_EDGE, NC_ARC) contribute 1 apiece;
    the loop-free shapes contribute 0.
    """
    _r2_decomposition(G, "rank_delta_cr2", [add.at for add in additions])
    return sum(1 for a in additions if a.kind in (EdgeKind.NC_EDGE, EdgeKind.NC_ARC))


def loop_invariance_check(
    G: WeightedDigraph,
    trials: int = 10,
    seed: int = 0,
    pool: Sequence | None = None,
) -> bool:
    """Rewrite the loops at cut-vertices of an r2-digraph at random; the
    rank must never move.  Returns False on the first counterexample."""
    d = decompose(G)
    if not is_r2_digraph(G, d):
        raise PreconditionViolated("loop invariance only claimed for r2-digraphs")
    weights = [Fraction(x) for x in (pool or (0, 1, -1, 2, Fraction(1, 2), 3))]
    base = oracle_rank(G)
    rng = random.Random(seed)
    for _ in range(trials):
        H = G
        for v in sorted(d.cut_vertices):
            H = H.with_loop(v, rng.choice(weights))
        if oracle_rank(H) != base:
            return False
    return True


def check_lemma_2rin(
    G: WeightedDigraph, vertices: Sequence[int], all_subsets: bool = False
) -> bool:
    """Does r(G) = r(G - vertices) + 2 * len(vertices)?

    With all_subsets=True, also evaluates the same equation for every
    subset S of `vertices` and raises InternalMismatch if the full-set
    answer and the all-subsets answer ever disagree (they are equivalent).
    """
    vs = sorted(set(vertices))
    if len(vs) != len(vertices):
        raise PreconditionViolated("vertices must be distinct")
    rg = oracle_rank(G)
    main = rg == oracle_rank(G.delete_vertices(vs)) + 2 * len(vs)
    if all_subsets:
        every = all(
            rg == oracle_rank(G.delete_vertices(S)) + 2 * len(S)
            for k in range(len(vs) + 1)
            for S in combinations(vs, k)
        )
        if every != main:
            raise InternalMismatch(
                f"full-set removal says {main} but all-subsets says {every} "
                f"for vertices {vs}"
            )
    return main


def rank_r0_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> int:
    """r(G) = sum of block ranks, for r0-digraphs without cut-vertex loops."""
    if d is None:
        d = decompose(G)
    if not G.is_connected():
        raise PreconditionViolated("rank_r0_digraph expects a connected digraph")
    if not is_r0_digraph(G, d):
        raise PreconditionViolated("more than one block fails the r0-block test")
    looped = [v for v in sorted(d.cut_vertices) if G.has_loop(v)]
    if looped:
        raise PreconditionViolated(f"cut-vertices {looped} carry loops")
    return sum(map(oracle_rank, _block_pieces(G, d, breves=False)))


# -- single-split peel formulas ----------------------------------------------


def _case_pieces(
    G: WeightedDigraph, split: CutSplit, case: CutVertexCase
) -> tuple[Classification, int, list[int], list[int]]:
    """(classification, v, H - v, G - H) for the split H of G at v, which
    must be of the given case, else PreconditionViolated."""
    split = make_split(G, split.v, split.side)
    cls = classify_cut(G, split)
    if cls.case is not case:
        raise PreconditionViolated(f"split is case {cls.label}, not {case.label}")
    v = split.v
    rest = sorted(u for u in range(G.n) if u not in split.side)
    return cls, v, sorted(split.side - {v}), rest


def rank_case1_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """r(G) = r(H - v) + r(G - H) + 2 when the border at v adds 2."""
    _, v, inner, rest = _case_pieces(G, split, CutVertexCase.RANK_PLUS_2)
    return oracle_rank(G.induced_subdigraph(inner)) + oracle_rank(
        G.induced_subdigraph(rest)
    ) + 2


def rank_case2_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """r(G) = r(H - v) + r(G - (H - v)) when the border adds 0, provided
    v's loop is absent or its outside neighbourhood misses a membership."""
    _, v, inner, rest = _case_pieces(G, split, CutVertexCase.RANK_PLUS_0)
    if G.has_loop(v):
        outside = _cut_peel(_block_rows(G, rest + [v]), rest, rest, v)
        if outside.x_in and outside.y_in:
            raise PreconditionViolated(
                "loop present and both outside memberships hold; formula not claimed"
            )
    return oracle_rank(G.induced_subdigraph(inner)) + oracle_rank(
        G.induced_subdigraph(rest + [v])
    )


def rank_case3_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """Case III formulas: one inside membership gives a 0/1-corrected peel,
    both inside memberships give the loop-residue reduction."""
    cls, v, inner, rest = _case_pieces(G, split, CutVertexCase.RANK_PLUS_1)
    m1, m2 = cls.memberships[0], cls.memberships[1]
    r_inner = oracle_rank(G.induced_subdigraph(inner))
    if m1 and m2:  # v's loop becomes its residue alpha - x.d over H - v
        side = _block_rows(G, inner + [v])
        residual = G.loop_weight(v) + _cut_peel(side, inner, inner, v).residue
        outside = G.induced_subdigraph(rest + [v])
        v_local = sorted(rest + [v]).index(v)
        return r_inner + oracle_rank(outside.with_loop(v_local, residual))
    peel = _cut_peel(_block_rows(G, rest + [v]), rest, rest, v)
    if m2:  # in-vector lies inside; the out-row stands alone
        extra = peel.y_in
    elif m1:  # out-vector lies inside; the in-column stands alone
        extra = peel.x_in
    else:  # pragma: no cover - would be case I
        raise InconsistentClassification("case III with neither membership")
    return r_inner + 1 + peel.rank + (0 if extra else 1)


# -- simple-graph families ----------------------------------------------------


def _simple_shape(
    G: WeightedDigraph,
) -> tuple[BlockDecomposition, list[set[int]]] | None:
    """(decompose(G), neighbour sets) when G is a nonempty connected unit
    simple graph (every arc has weight 1 and its reverse, no loops), else
    None.  The family recognisers read G through this once: one pass over
    its arcs checks them and builds the neighbour sets, a walk over the
    sets checks connectivity, and only then is G decomposed; every block
    test below works from its result."""
    if G.n == 0:
        return None
    arcs = G._arcs
    adj: list[set[int]] = [set() for _ in range(G.n)]
    for (u, v), w in arcs.items():
        if u == v or w != 1 or (v, u) not in arcs:
            return None
        adj[u].add(v)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != G.n:
        return None
    return decompose(G), adj


def _block_sides(adj: list[set[int]], blk: Sequence[int]) -> set[frozenset[int]] | None:
    """The sides of block blk when it is complete multipartite, else None.

    v's side is blk minus v's neighbours (adj[v] & blk), v included.  The
    sides partition blk exactly when the block is complete multipartite,
    so it is complete when every side is one vertex and complete bipartite
    when there are two sides.
    """
    block = frozenset(blk)
    sides = {block - adj[v] for v in blk}
    return sides if sum(map(len, sides)) == len(block) else None


def _pendant_edges(d: BlockDecomposition) -> set[int] | None:
    """The blocks that are one edge hanging off one cut-vertex, when every
    cut-vertex has exactly one of them; else None."""
    pend = {
        i
        for i, blk in enumerate(d.blocks)
        if len(blk) == 2 and len(d.cuts_in_block(i)) == 1
    }
    if all(sum(i in pend for i in d.membership[v]) == 1 for v in d.cut_vertices):
        return pend
    return None


def _complete_blocks(G: WeightedDigraph) -> BlockDecomposition | None:
    """decompose(G) when G is a block graph (a nonempty connected unit
    simple graph whose blocks are all complete), else None."""
    shape = _simple_shape(G)
    if shape is None:
        return None
    d, adj = shape
    if all(len(_block_sides(adj, blk) or ()) == len(blk) for blk in d.blocks):
        return d
    return None


def is_r2_block_graph(G: WeightedDigraph) -> bool:
    """Connected unit block graph: complete blocks, exactly one pendant
    edge at each cut-vertex, every non-pendant block with >= 2 non-cut
    vertices.  These are exactly the nonsingular ones (rank = n)."""
    d = _complete_blocks(G)
    pend = None if d is None else _pendant_edges(d)
    return pend is not None and all(
        i in pend or len(blk) - len(d.cuts_in_block(i)) >= 2
        for i, blk in enumerate(d.blocks)
    )


def rank_r2_block_graph(G: WeightedDigraph) -> RankCertificate:
    if not is_r2_block_graph(G):
        raise PreconditionViolated("not a qualifying block graph")
    node = CertNode(RuleTag.BLOCK_GRAPH_2K, G.n, note="nonsingular")
    return RankCertificate(G.n, node)


def _biblock_count(G: WeightedDigraph, r2: bool) -> int | None:
    """The number of blocks of G when it is an r2-biblock graph (r2=True)
    or an r0-biblock graph, else None.  Both need complete bipartite blocks
    keeping a non-cut vertex on each side; the r2 kind exempts its pendant
    edges, exactly one per cut-vertex."""
    shape = _simple_shape(G)
    if shape is None:
        return None
    d, adj = shape
    pend = _pendant_edges(d) if r2 else set()
    if pend is None:
        return None
    for i, blk in enumerate(d.blocks):
        sides = _block_sides(adj, blk)
        if sides is None or len(sides) != 2:
            return None
        if i not in pend and not all(side - d.cut_vertices for side in sides):
            return None
    return d.block_count


def _biblock_certificate(G: WeightedDigraph, r2: bool) -> RankCertificate:
    k = _biblock_count(G, r2)
    if k is None:
        raise PreconditionViolated("not a qualifying biblock graph")
    note = f"k={k}" if r2 else f"k={k} (r0 route)"
    return RankCertificate(2 * k, CertNode(RuleTag.BIBLOCK_GRAPH_2K, 2 * k, note=note))


def is_r2_biblock_graph(G: WeightedDigraph) -> bool:
    """Connected unit graph, complete bipartite blocks, exactly one pendant
    edge per cut-vertex, every non-pendant block keeping a non-cut vertex
    in each partition side.  Rank = 2 * (number of blocks)."""
    return _biblock_count(G, r2=True) is not None


def rank_r2_biblock_graph(G: WeightedDigraph) -> RankCertificate:
    return _biblock_certificate(G, r2=True)


def is_r0_biblock_graph(G: WeightedDigraph) -> bool:
    """Every block complete bipartite with a non-cut vertex in each side."""
    return _biblock_count(G, r2=False) is not None


def rank_r0_biblock_graph(G: WeightedDigraph) -> RankCertificate:
    return _biblock_certificate(G, r2=False)


# -- the structural engine -----------------------------------------------------


def rank_recursive(G: WeightedDigraph, oracle_check: bool = False) -> RankCertificate:
    """Structural rank with a certificate, computed without recursion.

    A connected G that takes a closed tree form (a loopless bi-arc tree or
    an r2-tree) is ranked from its matching number and looped leaves
    alone: it is never decomposed, and no weight store is built.
    `tree_summary` turns a graph away after one pass over its arcs
    unless it has n - 1 underlying edges, and walks only those.  Every
    other G is decomposed once, and every rule reads that one
    decomposition in G's own vertex ids.  Each connected component
    gets the first rule that applies: the closed tree forms, when G has
    other components; the r2-digraph sum rule, whose summands (blocks
    minus G's cut-vertices) each get one peel pass; the r0-digraph sum
    rule, whose summands are blocks of G, each ranked by the peel its test
    made; otherwise one peel pass over the component's block-cut tree
    (`_peel_pass`), which ends in a direct rank of what is left of the root
    block.  There is then one weight store per rank, W = G.out_rows(),
    which peels write loop residues into.  The only copies are cut from it
    by `_copy`: a tree component of a disconnected G, and an r2 component
    minus its cut-vertices, which is decomposed once for all its summands.
    The peel of a block of G at a cut-vertex is computed once, with loop 0,
    and shared by the r2 test, the r0 test and the peel pass.  The
    certificate is at most four levels deep.  A node's block_index is the
    position of its vertices in decompose(G), None when they are not a
    block of G.  With oracle_check=True the final value, from either exit,
    is compared against the dense oracle and InternalMismatch is raised on
    disagreement.
    """
    root = _tree_node(G)
    if root is None:
        d = decompose(G)
        W = G.out_rows()
        peels: dict[tuple[int, int], SchurPeel] = {}
        root = _sum_node([_component_rule(G, d, o, W, peels) for o in _leaves_first(d)])
    cert = RankCertificate(root.total, root)
    if oracle_check:
        expect = oracle_rank(G)
        if cert.rank != expect:
            raise InternalMismatch(
                f"engine produced {cert.rank} but dense elimination says {expect}"
            )
    return cert


def _sum_node(nodes: list[CertNode]) -> CertNode:
    """Nothing, the one node, or the COMPONENT_SUM of several."""
    if not nodes:
        return CertNode(RuleTag.DIRECT_RANK, 0, note="empty")
    if len(nodes) == 1:
        return nodes[0]
    return CertNode(RuleTag.COMPONENT_SUM, 0, tuple(nodes))


def _tree_node(T: WeightedDigraph) -> CertNode | None:
    """The closed-form node of T when it is a loopless bi-arc tree or an
    r2-tree, else None."""
    kind, q, s = tree_summary(T)
    if kind is TreeKind.LOOPLESS_BI_ARC:
        return CertNode(RuleTag.TREE_MATCHING, 2 * q, note=f"q={q}")
    if kind is TreeKind.R2_TREE:
        return CertNode(RuleTag.R2_TREE, 2 * q + s, note=f"q={q} s={s}")
    return None


def _component_rule(
    G: WeightedDigraph, d: BlockDecomposition, order: list, W: list, peels: dict
) -> CertNode:
    """Tree closed form, else a sum rule, else one peel pass, for the
    component of G whose leaves-first (block, parent cut) list is order.

    The parent cuts are the component's cut-vertices.  It is tree-shaped
    when every block has at most two vertices; only then are the tree
    forms tried, on a `_copy` from W, and only when G has other vertices:
    `rank_recursive` has tried them on G itself.
    """
    blocks = sorted(b for b, _ in order)
    cuts = {v for _, v in order if v is not None}
    if all(len(d.blocks[b]) <= 2 for b in blocks):
        vertices = sorted({u for b in blocks for u in d.blocks[b]})
        node = _tree_node(_copy(W, vertices)[0]) if len(vertices) < G.n else None
        if node is not None:
            return node

    if len(blocks) > 1:
        # No peel of this component has written W yet: the tests read G.
        if _r2_holds(W, d, peels, cuts):
            # The summands make up the component minus its cuts: one copy, each
            # of whose components lies in the one block of any of its vertices.
            labels = sorted(u for b in blocks for u in d.blocks[b] if u not in cuts)
            sub, rows = _copy(W, labels)
            sd = decompose(sub)
            lists: dict[int, list] = {b: [] for b in blocks}
            for comp in _leaves_first(sd):
                lists[d.membership[labels[sd.blocks[comp[0][0]][0]]][0]] += comp
            children = tuple(
                _summand(d, b, _peel_pass(rows, sd, lists[b], {}, labels)) for b in blocks
            )
            m = len(cuts)
            return CertNode(RuleTag.R2_DIGRAPH, 2 * m, children, note=f"m={m}")
        if not any(G.has_loop(v) for v in cuts) and _r0_holds(W, d, peels, blocks):
            # The test peeled every block at its first cut, with loop 0, which
            # is that cut's loop here: r(B_i) = rank + delta of that peel.
            children = []
            for b in blocks:
                p = peels[(b, d.block_cuts[b][0])]
                blk = d.blocks[b]
                r = p.rank + p.delta
                children.append(CertNode(RuleTag.DIRECT_RANK, r, (), b, blk, None, f"n={len(blk)}"))
            return CertNode(RuleTag.R0_DIGRAPH, 0, tuple(children))
    return _peel_pass(W, d, order, peels)


def _by_size(d: BlockDecomposition, bs: Sequence[int]) -> list[int]:
    """The blocks bs of d, smallest first; ties keep their order."""
    return sorted(bs, key=lambda b: len(d.blocks[b]))


def _summand(d: BlockDecomposition, b: int, node: CertNode) -> CertNode:
    """node as the sum-rule summand of block b of d."""
    return CertNode(
        node.rule, node.contributed, node.children, b, d.blocks[b], node.cut_vertex, node.note
    )


def _copy(W: list, labels: Sequence[int]) -> tuple[WeightedDigraph, list]:
    """The digraph W induces on labels, and its rows in W's shape, cut from
    W in O(arcs among labels); vertex i of the copy is labels[i]."""
    pos = {u: i for i, u in enumerate(labels)}
    rows = [{pos[t]: w for t, w in W[u].items() if t in pos} for u in labels]
    arcs = {(i, j): w for i, row in enumerate(rows) for j, w in row.items()}
    return WeightedDigraph(len(rows), arcs), rows


def _peel_pass(
    W: list,
    d: BlockDecomposition,
    order: Sequence,
    peels: dict,
    labels: Sequence[int] | None = None,
) -> CertNode:
    """Rank by one leaves-first peel over the (block, parent cut) pairs of
    order, from `_leaves_first(d)`; W[u][t] is the weight of arc u -> t,
    loops included, and every pass over the same graph shares W.

    Every non-root block b is peeled at its parent cut-vertex v against B,
    the current matrix on b - v: the rows and columns still present, with
    loops as earlier peels left them.  One Schur peel of B bordered by
    v's row x and column y, with loop 0, decides the outcome: taken from
    peels (keyed by (b, v), filled on first use) when v is b's only
    cut-vertex, as no earlier peel has touched b - v, else on the current
    matrix.  v's row is deleted (+1) when x lies outside B's row space,
    v's column likewise for y and the column space, and when v keeps both,
    its loop alpha becomes the residue alpha - x.d with B d = y, written
    into W[v][v] even when it is 0.  Each outcome is a row or column
    operation that touches only v's row, column and loop, so the original
    block-cut tree stays a separator tree throughout.  What is left of each
    root block is ranked directly from W: with at most one row or column by
    whether an entry is nonzero, from order _MOD_P_MIN_ORDER up by
    `leaf_rank` on the rows' out-dicts themselves and the leaf's columns,
    else by Bareiss on a dense copy.  Peel nodes name block b of d; when
    labels is given, d decomposes a `_copy` whose vertex u is labels[u] of
    the graph, and they carry no block_index.
    """
    no_row: set[int] = set()
    no_col: set[int] = set()
    nodes: list[CertNode] = []
    for b, v in order:
        blk = d.blocks[b]
        rows = [u for u in blk if u != v and u not in no_row]
        cols = [u for u in blk if u != v and u not in no_col]
        if v is None:
            k = min(len(rows), len(cols))
            if k <= 1:  # rank 1 exactly when an entry is nonzero
                r = int(any(W[u].get(t) for u in rows for t in cols))
            elif k >= _MOD_P_MIN_ORDER:
                r = leaf_rank([W[u] for u in rows], cols)
            else:
                leaf = [[W[u].get(t, _ZERO) for t in cols] for u in rows]
                r = rank(RationalMatrix(leaf, cols=len(cols))).rank
            nodes.append(CertNode(RuleTag.DIRECT_RANK, r, note=f"n={len(blk)}"))
            continue
        if d.pendant[b]:
            peel = _shared_peel(W, d, peels, b, v)
        else:
            peel = _cut_peel(W, rows, cols, v)
        has_row, has_col = v not in no_row, v not in no_col
        row_out = has_row and not peel.x_in
        col_out = has_col and not peel.y_in
        if row_out:
            no_row.add(v)
        if col_out:
            no_col.add(v)
        residue = _ZERO
        if has_row and has_col and peel.x_in and peel.y_in:
            W[v][v] = residue = W[v].get(v, _ZERO) + peel.residue
        if row_out and col_out:
            tag, note = RuleTag.CASE_I_PEEL, ""
        elif row_out or col_out:
            tag = RuleTag.CASE_III_PEEL
            note = "out-row deleted" if row_out else "in-column deleted"
        elif residue:
            tag, note = RuleTag.CASE_III_LT, f"loop residue {residue}"
        else:
            tag, note = RuleTag.R0_PEEL, ""
        if labels is None:
            where = dict(block_index=b, block_vertices=blk, cut_vertex=v)
        else:
            where = dict(block_vertices=tuple(labels[u] for u in blk), cut_vertex=labels[v])
        nodes.append(CertNode(tag, peel.rank + row_out + col_out, note=note, **where))
    return _sum_node(nodes)


def _leaves_first(d: BlockDecomposition) -> list[list[tuple[int, int | None]]]:
    """One list of (block, parent cut-vertex) pairs per connected component,
    every block after all blocks below it.

    Each component's block-cut tree is rooted at its lowest-index block,
    which comes last in its list with parent None.  The lists are in the
    order of their roots, which is the order of the components' lowest
    vertices.
    """
    out: list[list[tuple[int, int | None]]] = []
    seen = [False] * d.block_count
    for root in range(d.block_count):
        if seen[root]:
            continue
        seen[root] = True
        preorder: list[tuple[int, int | None]] = []
        stack: list[tuple[int, int | None]] = [(root, None)]
        while stack:
            b, v = stack.pop()
            preorder.append((b, v))
            for w in d.cuts_in_block(b):
                if w == v:
                    continue
                for c in d.membership[w]:
                    if not seen[c]:
                        seen[c] = True
                        stack.append((c, w))
        preorder.reverse()
        out.append(preorder)
    return out
