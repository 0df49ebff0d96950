"""Block decomposition of the underlying simple graph.

Blocks (maximal subgraphs without a cut-vertex, i.e. biconnected components
plus bridges and isolated vertices) are found with one iterative Tarjan DFS
over the underlying graph's neighbour lists, built in one pass over the
arcs; loops and arc directions are irrelevant here.  The DFS pushes each
vertex on a stack when it discovers it.  When a child v of u closes with
low[v] >= disc[u], the vertices pushed since v, plus u, form a block, and
they are popped.  A vertex is a cut-vertex exactly when it lies in two or
more blocks, so the cut-vertices and the pendant flags are read from block
membership after the DFS; the tests cross-check them against networkx and
a brute-force removal count.  Each block and the block
list are sorted, so the result does not depend on the DFS order.
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
    - block_cuts[i]: the cut-vertices of block i, in increasing order
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    membership: tuple[tuple[int, ...], ...]
    pendant: tuple[bool, ...]
    block_cuts: tuple[tuple[int, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def cuts_in_block(self, i: int) -> tuple[int, ...]:
        return self.block_cuts[i]


def decompose(G: WeightedDigraph) -> BlockDecomposition:
    """Blocks and cut-vertices of G's underlying simple graph."""
    n = G.n
    # Neighbour lists from one pass over the arcs: an edge with arcs both
    # ways is listed twice, which the DFS reads as a parallel edge.
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in G._arcs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    disc = [0] * n  # 0 = unvisited, else 1 + discovery index
    low = [0] * n
    blocks: list[tuple[int, ...]] = []
    timer = 1

    for root in range(n):
        if disc[root]:
            continue
        if not adj[root]:
            blocks.append((root,))
            continue
        disc[root] = low[root] = timer
        timer += 1
        vstack = [root]
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not disc[w]:
                    disc[w] = low[w] = timer
                    timer += 1
                    vstack.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                # w may be v's parent u, once per arc between them: each
                # such entry lowers low[v] at most to disc[u] and leaves the
                # test low[v] >= disc[u] below as it is.
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        block = [u]
                        while block[-1] != v:
                            block.append(vstack.pop())
                        block.sort()
                        blocks.append(tuple(block))
        if vstack != [root]:
            raise InternalMismatch("vertex stack must end as [root] after each DFS")

    blocks.sort()
    member: list[list[int]] = [[] for _ in range(n)]
    for i, blk in enumerate(blocks):
        for v in blk:
            member[v].append(i)
    cuts = frozenset(v for v, k in enumerate(map(len, member)) if k >= 2)
    block_cuts = tuple(tuple(filter(cuts.__contains__, blk)) for blk in blocks)
    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=cuts,
        membership=tuple(map(tuple, member)),
        pendant=tuple(len(c) <= 1 for c in block_cuts),
        block_cuts=block_cuts,
    )


def _checked_block(d: BlockDecomposition, i: int) -> tuple[int, ...]:
    """Block i of d; IndexOutOfRange unless 0 <= i < d.block_count, so a
    negative i does not silently name a block from the end."""
    if not (0 <= i < len(d.blocks)):
        raise IndexOutOfRange(f"block index {i} not in 0..{len(d.blocks) - 1}")
    return d.blocks[i]


def block_subdigraph(
    G: WeightedDigraph, d: BlockDecomposition, i: int
) -> WeightedDigraph:
    """The sub-digraph induced on the vertices of block i."""
    return G.induced_subdigraph(_checked_block(d, i))


def breve(G: WeightedDigraph, d: BlockDecomposition, i: int) -> WeightedDigraph:
    """Block i with the cut-vertices of G removed (possibly empty)."""
    keep = [v for v in _checked_block(d, i) if v not in d.cut_vertices]
    return G.induced_subdigraph(keep)


def _block_pieces(
    G: WeightedDigraph, d: BlockDecomposition, breves: bool
) -> list[WeightedDigraph]:
    """Every block's sub-digraph (its breve when breves is True), in block
    order and in the vertex ids `block_subdigraph` / `breve` give, cut from
    one pass over G's arcs.  An arc between two vertices lies in exactly
    one block, the one holding both, which is looked for among the blocks
    of the end in fewer of them; a loop goes to every piece holding its
    vertex, so to no breve when the vertex is a cut-vertex."""
    cuts = d.cut_vertices if breves else frozenset()
    pos = [{v: i for i, v in enumerate(u for u in blk if u not in cuts)} for blk in d.blocks]
    pieces: list[dict] = [{} for _ in d.blocks]
    member = d.membership
    for (u, v), w in G._arcs.items():
        a, z = (u, v) if len(member[u]) <= len(member[v]) else (v, u)
        for b in member[a]:
            p = pos[b]
            if a in p and z in p:
                pieces[b][p[u], p[v]] = w
                if u != v:
                    break
    return [WeightedDigraph(len(p), arcs) for p, arcs in zip(pos, pieces)]
