"""The paper's rank results as standalone operations.

The r2- and r0-digraph sum formulas, genr2 and cr2, the loop-invariance
and 2rin checks, Theorem 2.2's three case peels, and the simple-graph
families' recognisers and ranks.  Each raises PreconditionViolated when
its hypotheses fail, and the formulas rank their pieces by the dense
oracle, so tests can pit each against dense elimination of the whole graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .blocks import BlockDecomposition, _block_pieces, _components, decompose
from .certificate import CertNode, RankCertificate, RuleTag
from .classify import Classification, CutSplit, CutVertexCase, _classify_cut
from .digraph import (
    EdgeKind,
    WeightedDigraph,
    _attach,
    _count,
    _grow,
    _id,
    _iter,
    _kind,
    oracle_rank,
)
from .engine import _block_rows, _cut_peel, is_r0_digraph, is_r2_digraph
from .errors import (
    InconsistentClassification,
    InternalMismatch,
    InvalidSpec,
    PreconditionViolated,
    VertexOutOfRange,
)
from .linalg import SchurPeel


# -- sum formulas ------------------------------------------------------------


def _connected(G: WeightedDigraph, who: str, d: BlockDecomposition | None) -> BlockDecomposition:
    """decompose(G) (or d) when G is connected, else PreconditionViolated."""
    if d is None:
        d = decompose(G)
    if _components(d) > 1:
        raise PreconditionViolated(f"{who} expects a connected digraph")
    return d


def _r2_decomposition(
    G: WeightedDigraph, who: str, at: Iterable[int] = (), d: BlockDecomposition | None = None
) -> BlockDecomposition:
    """decompose(G) (or d) when G is a connected r2-digraph and every vertex
    in at is one of its cut-vertices, else PreconditionViolated."""
    d = _connected(G, who, d)
    if not is_r2_digraph(G, d):
        raise PreconditionViolated("not an r2-digraph: some cut-vertex has no r2-block")
    for v in at:
        if v not in d.cut_vertices:
            raise PreconditionViolated(f"attachment point {v} is not a cut-vertex of the base")
    return d


def rank_r2_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> int:
    """r(G) = sum of r(breve B_i) over all blocks + 2 * (number of cut-vertices)."""
    return _r2_sum(G, _r2_decomposition(G, "rank_r2_digraph", d=d))


def _r2_sum(G: WeightedDigraph, d: BlockDecomposition) -> int:
    """The r2 sum formula on G, decomposed as d, without its precondition."""
    return 2 * len(d.cut_vertices) + sum(map(oracle_rank, _block_pieces(G, d, breves=True)))


def rank_mdt(G: WeightedDigraph, d: BlockDecomposition | None = None) -> int:
    """Per-block variant: needs every breve nonempty and every block to
    satisfy r(B_i) = r(breve B_i) + 2 * (cut-vertices in B_i)."""
    d = _connected(G, "rank_mdt", d)
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
    """The glued digraph: G grown (`_grow`) by each W, its vertex ids
    shifted past the previous total, and the two arcs of its bridge."""
    arcs, n = [], G.n
    for att in _iter(attachments):
        at, w_vertex = _id(att.at, G.n), _id(att.w_vertex, att.W.n) + n
        arcs += [(u + n, v + n, w) for (u, v, w) in att.W.arcs()]
        arcs += [(at, w_vertex, att.into_w), (w_vertex, at, att.out_of_w)]
        n += att.W.n
    return _grow(G, n - G.n, arcs)


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
    return _r2_sum(G, d) + sum(oracle_rank(att.W) for att in attachments)


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
    return _attach(G, ((a.at, a.kind, a.weights, a.toward_new) for a in _iter(additions)))


def rank_delta_cr2(G: WeightedDigraph, additions: Sequence[EdgeAddition]) -> int:
    """Rank gained by attaching new vertices at cut-vertices of an r2-digraph.

    Loop-carrying attachments (NC_EDGE, NC_ARC) contribute 1 apiece;
    the loop-free shapes contribute 0.  Additions that are not iterable,
    or a kind that is not an EdgeKind, raise InvalidSpec.
    """
    additions = list(_iter(additions))
    loops = sum(_kind(a.kind) in (EdgeKind.NC_EDGE, EdgeKind.NC_ARC) for a in additions)
    _r2_decomposition(G, "rank_delta_cr2", [add.at for add in additions])
    return loops


_LOOP_WEIGHTS = tuple(map(Fraction, (0, 1, -1, 2, Fraction(1, 2), 3)))


def loop_invariance_check(G: WeightedDigraph, trials: int = 10, seed: int = 0) -> bool:
    """Rewrite the loops at cut-vertices of an r2-digraph at random; the
    rank must never move.  Returns False on the first counterexample.
    trials must be a nonnegative integer (InvalidSpec)."""
    trials, d = _count(trials, error=InvalidSpec), decompose(G)
    if not is_r2_digraph(G, d):
        raise PreconditionViolated("loop invariance only claimed for r2-digraphs")
    base = oracle_rank(G)
    rng = random.Random(seed)
    for _ in range(trials):
        H = G
        for v in sorted(d.cut_vertices):
            H = H.with_loop(v, rng.choice(_LOOP_WEIGHTS))
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
    given = [_id(v, G.n) for v in _iter(vertices, VertexOutOfRange)]
    vs = sorted(set(given))
    if len(vs) != len(given):
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
    d = _connected(G, "rank_r0_digraph", d)
    if not is_r0_digraph(G, d):
        raise PreconditionViolated("more than one block fails the r0-block test")
    looped = [v for v in sorted(d.cut_vertices) if G.has_loop(v)]
    if looped:
        raise PreconditionViolated(f"cut-vertices {looped} carry loops")
    return sum(map(oracle_rank, _block_pieces(G, d, breves=False)))


# -- single-split peel formulas ----------------------------------------------


def _case_pieces(
    G: WeightedDigraph, split: CutSplit, case: CutVertexCase
) -> tuple[Classification, int, list[int], list[int], int]:
    """(classification, v, H - v, G - H, r(H - v)) for the split H of G at
    v, which must be of the given case, else PreconditionViolated;
    r(H - v) is the rank `classify_cut`'s literal route took."""
    cls, r_inner = _classify_cut(G, split)
    if cls.case is not case:
        raise PreconditionViolated(f"split is case {cls.label}, not {case.label}")
    v = split.v
    inner = sorted(split.side - {v})
    rest = sorted(u for u in range(G.n) if u not in split.side)
    return cls, v, inner, rest, r_inner


def _peel_at(G: WeightedDigraph, v: int, S: list[int]) -> SchurPeel:
    """The peel of G's matrix on S at v, with loop 0."""
    return _cut_peel(_block_rows(G, S + [v]), S, S, v)


def rank_case1_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """r(G) = r(H - v) + r(G - H) + 2 when the border at v adds 2."""
    _, _, _, rest, r_inner = _case_pieces(G, split, CutVertexCase.RANK_PLUS_2)
    return r_inner + oracle_rank(G.induced_subdigraph(rest)) + 2


def rank_case2_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """r(G) = r(H - v) + r(G - (H - v)) when the border adds 0, provided
    v's loop is absent or its outside neighbourhood misses a membership."""
    _, v, _, rest, r_inner = _case_pieces(G, split, CutVertexCase.RANK_PLUS_0)
    if G.has_loop(v):
        outside = _peel_at(G, v, rest)
        if outside.x_in and outside.y_in:
            raise PreconditionViolated(
                "loop present and both outside memberships hold; formula not claimed"
            )
    return r_inner + oracle_rank(G.induced_subdigraph(rest + [v]))


def rank_case3_peel(G: WeightedDigraph, split: CutSplit) -> int:
    """Case III formulas: one inside membership gives a 0/1-corrected peel,
    both inside memberships give the loop-residue reduction."""
    cls, v, inner, rest, r_inner = _case_pieces(G, split, CutVertexCase.RANK_PLUS_1)
    m1, m2 = cls.memberships[0], cls.memberships[1]
    if m1 and m2:  # v's loop becomes its residue alpha - x.d over H - v
        residual = G.loop_weight(v) + _peel_at(G, v, inner).residue
        outside = G.induced_subdigraph(rest + [v])
        v_local = sorted(rest + [v]).index(v)
        return r_inner + oracle_rank(outside.with_loop(v_local, residual))
    peel = _peel_at(G, v, rest)
    if m2:  # in-vector lies inside; the out-row stands alone
        extra = peel.y_in
    elif m1:  # out-vector lies inside; the in-column stands alone
        extra = peel.x_in
    else:  # pragma: no cover - would be case I
        raise InconsistentClassification("case III with neither membership")
    return r_inner + 1 + peel.rank + (0 if extra else 1)


# -- simple-graph families ----------------------------------------------------


def _simple_shape(G: WeightedDigraph) -> BlockDecomposition | None:
    """decompose(G) when G is a nonempty connected unit simple graph (every
    arc has weight 1 and its reverse, no loops), else None.  The family
    recognisers read G through this once: one pass over its arcs checks
    them, and connectivity is read from the decomposition that follows;
    every block test below works from it and G's arcs."""
    arcs = G._arcs
    if any(u == v or w != 1 or (v, u) not in arcs for (u, v), w in arcs.items()):
        return None
    d = decompose(G)
    return d if _components(d) == 1 else None


def _block_sides(arcs: dict, blk: Sequence[int]) -> set[frozenset[int]] | None:
    """The sides of block blk of a loopless bi-arc graph with arcs `arcs`
    when the block is complete multipartite, else None.

    v's side is the vertices of blk that v has no arc to, v included.  The
    sides partition blk exactly when the block is complete multipartite,
    so it is complete when every side is one vertex and complete bipartite
    when there are two sides.
    """
    sides = {frozenset(u for u in blk if (v, u) not in arcs) for v in blk}
    return sides if sum(map(len, sides)) == len(blk) else None


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
    d = _simple_shape(G)
    if d is not None and all(len(_block_sides(G._arcs, blk) or ()) == len(blk) for blk in d.blocks):
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
    d = _simple_shape(G)
    if d is None:
        return None
    pend = _pendant_edges(d) if r2 else set()
    if pend is None:
        return None
    for i, blk in enumerate(d.blocks):
        sides = _block_sides(G._arcs, blk)
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

