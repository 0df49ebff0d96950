"""The structural rank engine: `rank_recursive` and the r2/r0 block tests.

`rank_recursive` ranks a digraph by peeling blocks at cut-vertices and
records each rule it applies in a certificate (`certificate` defines the
rules); the block tests are the ones its sum rules read.  Each rule is
explained where the engine applies it: the sum rules in `_component_rule`,
the peels in `_peel_pass`, the leaves in `_direct_rank`, the mod-p leaf
rank in `linalg.leaf_rank`.  Only the r2 summands of three vertices or
more are copied, decomposed and peeled; smaller ones are read in closed
form.  A digraph that is one block, with no cut-vertex for any rule to
use, is ranked straight from its arc dict by `linalg.leaf_rank` once it
has _MOD_P_MIN_ORDER vertices.  The paper's standalone formulas, which
the engine never calls, are in `theorems`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Sequence

from .blocks import BlockDecomposition, _checked_block, decompose
from .certificate import CertNode, RankCertificate, RuleTag
from .digraph import WeightedDigraph, oracle_rank
from .errors import InternalMismatch
from .linalg import RationalMatrix, SchurPeel, _int_row, _peel_rows, leaf_rank, rank
from .trees import TreeKind, tree_summary

# Bound here, though the engine does not call them, because perfbench's
# tracer wraps these names on this module.
from .classify import classify_cut, make_split  # noqa: F401
from .linalg import in_column_space, in_row_space  # noqa: F401
from .trees import classify_tree, max_matching  # noqa: F401

_ZERO = Fraction(0)

# DIRECT_RANK leaves of order k = min(rows, cols) go by k (`_direct_rank`):
# k <= 1 and the 2 x 2 leaf are read in closed form; from this order up a
# leaf goes to `leaf_rank` (mod p, the engine's Bareiss when that cannot
# prove full rank) as a dict built from the store; the rest, order 2 (not
# 2 x 2) to 15, to `rank` (the oracle's Bareiss), whose calls perfbench's
# tracer counts: 318, 2,196 and 622 of them in seed-1 passes of
# perfbench's closed-forms, small-mixed and glued-blocks.  A G that is one
# block of this order or more is that leaf with n = G.n, and
# `rank_recursive` hands its arc dict itself to `leaf_rank`, with no store
# and no peel pass: all 300 graphs of perfbench's dense-random, none of
# the other workloads' (seed 1 and the held-out seed), which send no
# peel-pass leaf of this order to `leaf_rank` either.  A smaller one-block
# G keeps the peel pass, so its leaf still goes to `rank`.
# On full-rank random digraph matrices (weights 1, -1, 2, 1/2, arc density
# 0.3) leaf_rank took 0.76-0.81x the time of `rank` at order 8, 0.41-0.43x
# at 16 and 0.13x at 40 (three runs, best of 5 over 400 or 100 matrices
# each, CPython 3.11, 2-core VM).  But small leaves are often
# rank-deficient and pay for both: 1,769 of the 3,957 leaves (order 2-10)
# of a seed-1 pass of small-mixed, 186 of the 1,369 (order 2-5) of
# closed-forms.  Sent to leaf_rank, these workloads' small leaves took
# 2.4-2.6x as long.
_MOD_P_MIN_ORDER = 16


# -- r2 / r0 block predicates ------------------------------------------------


def _cut_peel(W, rows: list, cols: list, v: int) -> SchurPeel:
    """schur_peel(0, x, y, B) for B the matrix on rows x cols and x, y v's
    row and column there, read from W (W[u][t] the weight of u -> t): loop
    0, so its residue is -x.d, and v's loop is added by the caller.

    A 1x1 B = [b] (rows == cols == [u]: a bridge or a pendant edge) is
    read in closed form from b, x = W[v][u] and y = W[u][v], an absent
    weight and a stored 0 alike being zero.  b != 0: rank 1, both
    memberships hold and the residue is -x.y/b, so delta is 1 exactly when
    x.y != 0.  b = 0: rank 0, x and y lie in the zero spaces only when
    they are 0, and delta and residue are `_peel_rows`'s.  Larger B goes
    to `_peel_rows` on the rows [B | y] and [x, 0] as scaled integers,
    read by one lookup per label of the peel (`_int_row`): arcs into other
    blocks cost nothing."""
    if len(rows) == 1 and rows == cols:
        u = rows[0]
        b, x, y = W[u].get(u), W[v].get(u), W[u].get(v)
        if b:
            if x and y:
                bn, bd = b.as_integer_ratio()
                xn, xd = x.as_integer_ratio()
                yn, yd = y.as_integer_ratio()
                return SchurPeel(1, True, True, Fraction(-xn * yn * bd, xd * yd * bn), 1)
            return SchurPeel(1, True, True, _ZERO, 0)
        x_in = not x
        if y:
            return SchurPeel(0, x_in, False, None, 2 - x_in)
        return SchurPeel(0, x_in, True, _ZERO, 1 - x_in)
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
    row and column lie in the spaces of b - v and its residue -x.d cancels
    v's loop alpha (a missing or zero loop: the residue is 0)."""
    for v in d.cuts_in_block(b):
        peel, loop = _shared_peel(W, d, peels, b, v), W[v].get(v)
        if not (peel.x_in and peel.y_in) or (peel.residue != -loop if loop else peel.residue):
            return False
    return True


def is_r2_block(G: WeightedDigraph, d: BlockDecomposition, i: int) -> bool:
    """Block i has exactly one cut-vertex v and loses rank 2 when v goes:
    v's border adds 2 to the rank of the rest of the block."""
    return _r2_block(_block_rows(G, _checked_block(d, i)), d, {}, i)


def is_r2_digraph(G: WeightedDigraph, d: BlockDecomposition | None = None) -> bool:
    """Every cut-vertex has at least one incident r2-block (vacuous if none)."""
    if d is None:
        d = decompose(G)
    return _r2_holds(G.out_rows(), d, {}, d.cut_vertices)


def is_r0_block(G: WeightedDigraph, d: BlockDecomposition, i: int) -> bool:
    """Removing any one of G's cut-vertices from block i keeps its rank:
    each cut-vertex's border adds 0 to the rank of the rest of the block."""
    return _r0_block(_block_rows(G, _checked_block(d, i)), d, {}, i)


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
    minus G's cut-vertices) are read from W in closed form when they have
    at most two vertices, and otherwise each get one peel pass; the
    r0-digraph sum rule, whose summands are blocks of G, each ranked by the
    peel its test made; otherwise one peel pass over the component's
    block-cut tree (`_peel_pass`), which ends in a direct rank of what is
    left of the root block.  A G that is one block of order
    _MOD_P_MIN_ORDER or more has no cut-vertex, so no rule but that direct
    rank applies: `leaf_rank` ranks its arc dict, and it gets no weight
    store.  Every other decomposed G gets one weight store, W =
    G.out_rows(), which peels write loop residues into.  The only copies
    are cut from it by `_copy`: a tree component of a disconnected G, and
    the summands of an r2 component that have three vertices or more,
    which make one copy, decomposed once for all of them (none when there
    are no such summands).
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
        if d.block_count == 1 and G.n >= _MOD_P_MIN_ORDER:
            root = CertNode(RuleTag.DIRECT_RANK, leaf_rank(G._arcs, G.n, G.n), note=f"n={G.n}")
        else:
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
            # The summands are the blocks minus the cuts: those of at most two
            # vertices are read from W; the rest make one copy, decomposed once,
            # each of whose components lies in the one block of any vertex of it.
            breves = {b: [u for u in d.blocks[b] if u not in cuts] for b in blocks}
            labels = sorted(u for br in breves.values() if len(br) > 2 for u in br)
            lists: dict[int, list] = {b: [] for b in blocks}
            if labels:
                sub, rows = _copy(W, labels)
                sd = decompose(sub)
                for comp in _leaves_first(sd):
                    lists[d.membership[labels[sd.blocks[comp[0][0]][0]]][0]] += comp
            children = tuple(
                _summand(d, b, _peel_pass(rows, sd, lists[b], {}, labels))
                if len(br) > 2
                else _small_breve(W, d, b, br)
                for b, br in breves.items()
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
    root block is ranked directly from W by `_direct_rank`.  Peel nodes
    name block b of d; when labels is given, d decomposes a `_copy` whose
    vertex u is labels[u] of the graph, and they carry no block_index.
    """
    no_row: set[int] = set()
    no_col: set[int] = set()
    nodes: list[CertNode] = []
    for b, v in order:
        blk = d.blocks[b]
        rows = [u for u in blk if u != v and u not in no_row]
        cols = [u for u in blk if u != v and u not in no_col]
        if v is None:
            r = _direct_rank(W, rows, cols)
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
            alpha = W[v].get(v)
            W[v][v] = residue = alpha + peel.residue if alpha else peel.residue
        if row_out and col_out:
            tag, note = RuleTag.CASE_I_PEEL, ""
        elif row_out or col_out:
            tag = RuleTag.CASE_III_PEEL
            note = "out-row deleted" if row_out else "in-column deleted"
        elif residue:
            tag, note = RuleTag.CASE_III_LT, f"loop residue {residue}"
        else:
            tag, note = RuleTag.R0_PEEL, ""
        r = peel.rank + row_out + col_out
        if labels is None:
            nodes.append(CertNode(tag, r, (), b, blk, v, note))
        else:
            nodes.append(CertNode(tag, r, (), None, tuple(labels[u] for u in blk), labels[v], note))
    return _sum_node(nodes)


def _direct_rank(W: list, rows: list, cols: list) -> int:
    """Rank of W on rows x cols, a DIRECT_RANK leaf: with at most one row
    or column by whether an entry is nonzero, with two rows and two
    columns by `_rank_2x2`, from order _MOD_P_MIN_ORDER up by `leaf_rank`
    on a dict of the rows' out-dict entries in cols (stored zeros kept, the
    loops peels wrote included), else by `rank` on a dense copy."""
    k = min(len(rows), len(cols))
    if k <= 1:  # rank 1 exactly when an entry is nonzero
        return int(any(W[u].get(t) for u in rows for t in cols))
    if len(rows) == len(cols) == 2:
        (s, t), ru, rw = cols, W[rows[0]], W[rows[1]]
        return _rank_2x2(ru.get(s), ru.get(t), rw.get(s), rw.get(t))
    if k >= _MOD_P_MIN_ORDER:
        pos = {t: j for j, t in enumerate(cols)}
        entries = {(i, pos[t]): x for i, u in enumerate(rows) for t, x in W[u].items() if t in pos}
        return leaf_rank(entries, len(rows), len(cols))
    leaf = [[W[u].get(t, _ZERO) for t in cols] for u in rows]
    return rank(RationalMatrix(leaf, cols=len(cols))).rank


def _small_breve(W: list, d: BlockDecomposition, b: int, br: list) -> CertNode:
    """The summand of block b of d whose breve br has at most two vertices,
    as a peel pass over br's `_copy` gives it: nothing is "empty"; a
    vertex, or a pair with an arc either way, is one "n=" leaf; an
    unjoined pair is the sum of two."""
    blk = d.blocks[b]
    if not br:
        return CertNode(RuleTag.DIRECT_RANK, 0, (), b, blk, None, "empty")
    if len(br) == 1 or br[1] in W[br[0]] or br[0] in W[br[1]]:
        r = _direct_rank(W, br, br)
        return CertNode(RuleTag.DIRECT_RANK, r, (), b, blk, None, f"n={len(br)}")
    leaves = [CertNode(RuleTag.DIRECT_RANK, _direct_rank(W, [u], [u]), note="n=1") for u in br]
    return CertNode(RuleTag.COMPONENT_SUM, 0, tuple(leaves), b, blk)


def _rank_2x2(a, b, c, e) -> int:
    """Rank of [[a, b], [c, e]], each entry a Fraction or None for zero: 2
    when ae != bc, else 1 when an entry is nonzero, else 0.  The products
    are compared as cross-multiplied integers, and only when all four
    entries are nonzero."""
    ae, bc = bool(a and e), bool(b and c)
    if ae and bc:
        ae = a.numerator * e.numerator * b.denominator * c.denominator
        bc = b.numerator * c.numerator * a.denominator * e.denominator
    if ae != bc:
        return 2
    return 1 if a or b or c or e else 0


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
