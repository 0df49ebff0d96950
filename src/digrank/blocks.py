"""Block decomposition of the underlying simple graph.

Blocks (maximal subgraphs without a cut-vertex, i.e. biconnected components
plus bridges and isolated vertices) are found with an iterative Tarjan DFS
over the underlying simple graph; loops and arc directions are irrelevant
here.  A vertex is a cut-vertex exactly when it lies in two or more blocks,
which the tests cross-check against a brute-force removal count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import WeightedDigraph
from .errors import IndexOutOfRange, InternalMismatch


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks sorted lexicographically; each block is a sorted vertex tuple.

    - cut_vertices: vertices lying in >= 2 blocks
    - membership[v]: sorted indices of the blocks containing v
    - pendant[i]: block i contains at most one cut-vertex
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    membership: tuple[tuple[int, ...], ...]
    pendant: tuple[bool, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def cuts_in_block(self, i: int) -> tuple[int, ...]:
        return tuple(v for v in self.blocks[i] if v in self.cut_vertices)


def decompose(G: WeightedDigraph) -> BlockDecomposition:
    """Blocks and cut-vertices of G's underlying simple graph."""
    n = G.n
    adj = [sorted(s) for s in G.underlying_adjacency()]
    disc = [0] * n  # 0 = unvisited, else 1 + discovery index
    low = [0] * n
    parent = [-1] * n
    blocks: list[tuple[int, ...]] = []
    cuts: set[int] = set()
    timer = 1

    def pop_block(estack: list[tuple[int, int]], u: int, v: int) -> None:
        comp: set[int] = set()
        while True:
            a, b = estack.pop()
            comp.add(a)
            comp.add(b)
            if (a, b) == (u, v):
                break
        blocks.append(tuple(sorted(comp)))

    for root in range(n):
        if disc[root]:
            continue
        if not adj[root]:
            blocks.append((root,))
            continue
        estack: list[tuple[int, int]] = []
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, object]] = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if not disc[w]:
                    parent[w] = v
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    pop_block(estack, u, v)
                    if u != root:
                        cuts.add(u)
        if root_children >= 2:
            cuts.add(root)
        if estack:
            raise InternalMismatch("edge stack must drain for each DFS root")

    blocks.sort()
    member: list[list[int]] = [[] for _ in range(n)]
    for i, blk in enumerate(blocks):
        for v in blk:
            member[v].append(i)
    pendant = tuple(sum(1 for v in blk if v in cuts) <= 1 for blk in blocks)
    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=frozenset(cuts),
        membership=tuple(tuple(m) for m in member),
        pendant=pendant,
    )


def block_subdigraph(
    G: WeightedDigraph, d: BlockDecomposition, i: int
) -> WeightedDigraph:
    """The sub-digraph induced on the vertices of block i."""
    if not (0 <= i < len(d.blocks)):
        raise IndexOutOfRange(f"block index {i} not in 0..{len(d.blocks) - 1}")
    return G.induced_subdigraph(d.blocks[i])


def breve(G: WeightedDigraph, d: BlockDecomposition, i: int) -> WeightedDigraph:
    """Block i with the cut-vertices of G removed (possibly empty)."""
    if not (0 <= i < len(d.blocks)):
        raise IndexOutOfRange(f"block index {i} not in 0..{len(d.blocks) - 1}")
    keep = [v for v in d.blocks[i] if v not in d.cut_vertices]
    return G.induced_subdigraph(keep)
