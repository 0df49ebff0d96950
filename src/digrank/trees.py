"""Closed-form ranks for digraphs whose underlying simple graph is a tree:

- loopless bi-arc trees: rank = 2 * (maximum matching size q)
- r2-trees: rank = 2q + s, where s counts the looped leaves

An r2-tree has every internal/internal edge bi-arc, loops only at internal
(cut) vertices or on leaves, and every cut-vertex keeps at least one
"plain" leaf neighbour joined by a loop-free bi-arc edge.  Leaves may
otherwise hang by any of the five attachment shapes.  q is the matching
number of the full underlying tree (the plain leaves saturate their cut
neighbours, so restricting to the bi-arc core changes nothing).

Every answer reads one walk (`_walk`): neighbour lists built from the arc
keys, each underlying edge once at each end (an arc (u, v), u != v, counts
when u < v or its reverse is absent); a depth-first walk from each unvisited
vertex; and a maximum matching read backwards off the visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .digraph import WeightedDigraph
from .errors import NotAForest, PreconditionViolated


class TreeKind(Enum):
    LOOPLESS_BI_ARC = "loopless-bi-arc"
    CUT_LOOP_BI_ARC = "cut-loop-bi-arc"
    R2_TREE = "r2-tree"


@dataclass(frozen=True)
class MatchingResult:
    size: int
    edges: frozenset[tuple[int, int]]


def _neighbours(G: WeightedDigraph) -> list[list[int]]:
    arcs = G._arcs
    nbrs: list[list[int]] = [[] for _ in range(G.n)]
    for (u, v) in arcs:
        if u != v and (u < v or (v, u) not in arcs):
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def _walk(G: WeightedDigraph) -> tuple[list[list[int]], int, list[tuple[int, int]]] | None:
    """(neighbour lists, roots, maximum matching) when G's underlying graph is
    a forest, one with n - roots edges (a root per component), else None.
    Going back over the visit order, a vertex no child took takes its parent."""
    nbrs = _neighbours(G)
    parent = [-2] * G.n  # -2: not reached yet, -1: a root
    order: list[int] = []
    for r in range(G.n):
        if parent[r] == -2:
            parent[r] = -1
            stack = [r]
            while stack:
                u = stack.pop()
                order.append(u)
                for w in nbrs[u]:
                    if parent[w] == -2:
                        parent[w] = u
                        stack.append(w)
    roots = parent.count(-1)
    if sum(map(len, nbrs)) != 2 * (G.n - roots):
        return None
    free, matching = [True] * G.n, []
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and free[v] and free[p]:
            free[v] = free[p] = False
            matching.append((v, p) if v < p else (p, v))
    return nbrs, roots, matching


def _looped_leaves(arcs, nbrs) -> int:
    return sum(1 for v, x in enumerate(nbrs) if len(x) < 2 and (v, v) in arcs)


def _is_r2(arcs, nbrs) -> bool:
    """The r2-tree conditions on a tree with neighbour lists nbrs."""
    leaf = [len(x) < 2 for x in nbrs]  # in a tree: not a cut-vertex
    # Internal/internal edges are bi-arc, as is the leaf/leaf edge of n = 2.
    if any(u != v and leaf[u] == leaf[v] and (v, u) not in arcs for (u, v) in arcs):
        return False
    # A looped leaf hangs from a cut-vertex; each cut-vertex has a plain leaf.
    settled = leaf[:]  # a leaf, or a cut-vertex with a plain leaf
    for u, x in enumerate(nbrs):
        if leaf[u]:
            c = x[0] if x else u  # a lone vertex is its own neighbour
            looped = (u, u) in arcs
            if looped and leaf[c]:
                return False
            settled[c] |= not looped and (u, c) in arcs and (c, u) in arcs
    return all(settled)


def is_forest(G: WeightedDigraph) -> bool:
    """True when the underlying simple graph has no cycle."""
    return _walk(G) is not None


def is_tree(G: WeightedDigraph) -> bool:
    walk = _walk(G)
    return walk is not None and walk[1] == 1


def max_matching(G: WeightedDigraph) -> MatchingResult:
    """Maximum matching of the underlying forest, by the post-order greedy.
    Raises NotAForest on cyclic inputs (the greedy argument needs acyclicity)."""
    walk = _walk(G)
    if walk is None:
        raise NotAForest("maximum matching here is implemented for forests only")
    return MatchingResult(len(walk[2]), frozenset(walk[2]))


def classify_tree(G: WeightedDigraph) -> TreeKind | None:
    """Most specific matching kind, or None (non-trees always give None).
    Precedence: LOOPLESS_BI_ARC, then CUT_LOOP_BI_ARC, then R2_TREE."""
    return tree_summary(G)[0]


def is_r2_tree_digraph(G: WeightedDigraph) -> bool:
    """Structural r2-tree test, the precondition of rank_r2_tree: unlike
    classify_tree it has no precedence, so it accepts any kind of tree that
    meets the conditions (say a loopless bi-arc one with plain leaves)."""
    walk = _walk(G)
    return walk is not None and walk[1] == 1 and _is_r2(G._arcs, walk[0])


def count_loop_attachments(G: WeightedDigraph) -> int:
    """s = number of non-cut (leaf or isolated) vertices carrying a loop."""
    return _looped_leaves(G._arcs, _neighbours(G))


def rank_tree(G: WeightedDigraph) -> int:
    """Rank of a loopless bi-arc tree: twice its matching number."""
    kind, q, _ = tree_summary(G)
    if kind is not TreeKind.LOOPLESS_BI_ARC:
        raise PreconditionViolated("rank_tree needs a loopless bi-arc tree")
    return 2 * q


def rank_r2_tree(G: WeightedDigraph) -> int:
    """Rank of an r2-tree: 2q + s (matching number q, looped leaves s)."""
    walk = _walk(G)
    if walk is None or walk[1] != 1 or not _is_r2(G._arcs, walk[0]):
        raise PreconditionViolated("rank_r2_tree needs an r2-tree digraph")
    return 2 * len(walk[2]) + _looped_leaves(G._arcs, walk[0])


def tree_summary(G: WeightedDigraph) -> tuple[TreeKind | None, int, int]:
    """(kind, q, s) of a tree-shaped digraph, from one walk; (None, 0, 0) when
    it is not a tree of a known kind.  The engine asks this of every graph
    first, so one that cannot be a tree is turned away before the walk: when
    it is empty, has more than 3n - 2 arcs (n - 1 edges of at most two arcs
    each, plus n loops), or other than n - 1 edges as `_neighbours` lists them."""
    n, arcs = G.n, G._arcs
    if n == 0 or len(arcs) > 3 * n - 2:
        return None, 0, 0
    edges = sum(1 for (u, v) in arcs if u != v and (u < v or (v, u) not in arcs))
    if edges != n - 1:
        return None, 0, 0
    walk = _walk(G)  # n - 1 edges and no cycle: a tree
    if walk is None:
        return None, 0, 0
    nbrs, _, matching = walk
    q, s = len(matching), _looped_leaves(arcs, nbrs)
    if all((v, u) in arcs for (u, v) in arcs):  # a loop is its own reverse
        if len(arcs) == 2 * (n - 1):  # n - 1 bi-arc edges and no loop
            return TreeKind.LOOPLESS_BI_ARC, q, 0
        if s == 0:  # every loop on a cut-vertex
            return TreeKind.CUT_LOOP_BI_ARC, q, 0
    return (TreeKind.R2_TREE, q, s) if _is_r2(arcs, nbrs) else (None, 0, 0)
