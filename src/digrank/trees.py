"""Closed-form ranks for tree-shaped digraphs.

A digraph is tree-shaped when its underlying simple graph is a tree.  Two
closed forms are implemented:

- loopless bi-arc trees: rank = 2 * (maximum matching size q)
- r2-trees: rank = 2q + s, where s counts the looped leaves

An r2-tree has every internal/internal edge bi-arc, loops only at internal
(cut) vertices or on leaves, and every cut-vertex keeps at least one
"plain" leaf neighbour joined by a loop-free bi-arc edge.  Leaves may
otherwise hang by any of the five attachment shapes.  q is the matching
number of the full underlying tree (the plain leaves saturate their cut
neighbours, so restricting to the bi-arc core changes nothing).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .digraph import WeightedDigraph
from .errors import NotAForest, PreconditionViolated


class TreeKind(Enum):
    LOOPLESS_BI_ARC = "loopless-bi-arc"
    CUT_LOOP_BI_ARC = "cut-loop-bi-arc"
    R2_TREE = "r2-tree"


def _is_forest(adj: list[set[int]]) -> bool:
    """True when the graph with neighbour sets adj has no cycle."""
    parent = list(range(len(adj)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if u < v:
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def is_forest(G: WeightedDigraph) -> bool:
    """True when the underlying simple graph has no cycle."""
    return _is_forest(G.underlying_adjacency())


def _is_tree(adj: list[set[int]]) -> bool:
    """A forest on n >= 1 vertices with n - 1 edges is connected."""
    n = len(adj)
    return n >= 1 and sum(map(len, adj)) == 2 * (n - 1) and _is_forest(adj)


def is_tree(G: WeightedDigraph) -> bool:
    return _is_tree(G.underlying_adjacency())


@dataclass(frozen=True)
class MatchingResult:
    size: int
    edges: frozenset[tuple[int, int]]


def max_matching(G: WeightedDigraph) -> MatchingResult:
    """Maximum matching of the underlying forest, by greedy leaf peeling.

    Matching a leaf to its unique neighbour is always optimal in a forest.
    Raises NotAForest on cyclic inputs (the greedy argument needs acyclicity).
    """
    adj = G.underlying_adjacency()
    if not _is_forest(adj):
        raise NotAForest("maximum matching here is implemented for forests only")
    return _matching(adj)


def _matching(adj: list[set[int]]) -> MatchingResult:
    """Greedy leaf-peeling maximum matching of the forest with neighbour sets adj."""
    n = len(adj)
    deg = [len(s) for s in adj]
    alive = [True] * n
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    picked: list[tuple[int, int]] = []
    while heap:
        u = heapq.heappop(heap)
        if not alive[u] or deg[u] != 1:
            continue
        p = next(w for w in adj[u] if alive[w])
        picked.append((min(u, p), max(u, p)))
        alive[u] = alive[p] = False
        for w in adj[p]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    heapq.heappush(heap, w)
        deg[u] = deg[p] = 0
    return MatchingResult(len(picked), frozenset(picked))


def _edge_is_bi_arc(G: WeightedDigraph, u: int, v: int) -> bool:
    return G.has_arc(u, v) and G.has_arc(v, u)


def _tree_shape(G: WeightedDigraph, adj: list[set[int]]) -> tuple[set[int], set[int]] | None:
    """(internal vertices, looped vertices) when G, whose underlying
    neighbour sets are adj, is tree-shaped, else None.  Internal vertices
    are those of degree >= 2, which in a tree are exactly the cut-vertices."""
    if not _is_tree(adj):
        return None
    internal = {v for v in range(G.n) if len(adj[v]) >= 2}
    loops = {v for v in range(G.n) if G.has_loop(v)}
    return internal, loops


def classify_tree(G: WeightedDigraph) -> TreeKind | None:
    """Most specific matching kind, or None (non-trees always give None).

    Precedence: LOOPLESS_BI_ARC, then CUT_LOOP_BI_ARC, then R2_TREE.
    """
    return _tree_kind(G, G.underlying_adjacency())


def _tree_kind(G: WeightedDigraph, adj: list[set[int]]) -> TreeKind | None:
    shape = _tree_shape(G, adj)
    if shape is None:
        return None
    internal, loops = shape
    all_bi = all(_edge_is_bi_arc(G, u, v) for u in range(G.n) for v in adj[u])
    if all_bi and not loops:
        return TreeKind.LOOPLESS_BI_ARC
    if all_bi and loops <= internal:
        return TreeKind.CUT_LOOP_BI_ARC
    if _r2_tree_shape(G, adj, internal, loops):
        return TreeKind.R2_TREE
    return None


def _r2_tree_shape(G, adj, internal, loops) -> bool:
    """The r2-tree conditions on a tree with neighbour sets adj."""
    # Internal/internal edges must be bi-arc; leaf edges may be anything,
    # except in a 2-vertex tree, whose one edge joins two leaves.
    for u in range(G.n):
        for v in adj[u]:
            if (u in internal) == (v in internal) and not _edge_is_bi_arc(G, u, v):
                return False
    # Looped leaves are fine only as attachments to a cut-vertex (so a
    # looped single vertex, or a loop in a 2-vertex tree, fails here).
    if any(not adj[v] & internal for v in loops - internal):
        return False
    # Every cut-vertex needs a plain leaf: bi-arc edge, no loop on the leaf.
    return all(
        any(
            u not in internal and u not in loops and _edge_is_bi_arc(G, c, u)
            for u in adj[c]
        )
        for c in internal
    )


def is_r2_tree_digraph(G: WeightedDigraph) -> bool:
    """Structural r2-tree test, ignoring the classify_tree precedence.

    classify_tree reports the most specific kind, so a loopless bi-arc tree
    that happens to have a plain leaf on every cut-vertex reports
    LOOPLESS_BI_ARC; this predicate still accepts it, and is the actual
    precondition of rank_r2_tree.
    """
    adj = G.underlying_adjacency()
    shape = _tree_shape(G, adj)
    return shape is not None and _r2_tree_shape(G, adj, *shape)


def count_loop_attachments(G: WeightedDigraph) -> int:
    """s = number of non-cut (leaf or isolated) vertices carrying a loop."""
    return _looped_leaves(G, G.underlying_adjacency())


def _looped_leaves(G: WeightedDigraph, adj: list[set[int]]) -> int:
    return sum(1 for v in range(G.n) if G.has_loop(v) and len(adj[v]) < 2)


def rank_tree(G: WeightedDigraph) -> int:
    """Rank of a loopless bi-arc tree: twice its matching number."""
    if classify_tree(G) is not TreeKind.LOOPLESS_BI_ARC:
        raise PreconditionViolated("rank_tree needs a loopless bi-arc tree")
    return 2 * max_matching(G).size


def rank_r2_tree(G: WeightedDigraph) -> int:
    """Rank of an r2-tree: 2q + s (matching number q, looped leaves s)."""
    if not is_r2_tree_digraph(G):
        raise PreconditionViolated("rank_r2_tree needs an r2-tree digraph")
    return 2 * max_matching(G).size + count_loop_attachments(G)


def tree_summary(G: WeightedDigraph) -> tuple[TreeKind | None, int, int]:
    """(kind, q, s) of a tree-shaped digraph, from one read of its
    underlying graph; (None, 0, 0) when it is not a tree of a known kind."""
    adj = G.underlying_adjacency()
    kind = _tree_kind(G, adj)
    if kind is None:
        return None, 0, 0
    return kind, _matching(adj).size, _looped_leaves(G, adj)
