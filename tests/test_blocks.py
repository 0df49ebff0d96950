"""Block decomposition against networkx and a removal-count oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digrank import (
    GenSpec,
    block_subdigraph,
    breve,
    build,
    decompose,
    gen,
    is_r0_block,
    is_r2_block,
)
from digrank.blocks import _block_pieces, _components
from digrank.errors import IndexOutOfRange
from oracles import blocks_by_networkx, cut_vertices_by_removal, cuts_by_networkx


def random_graph(rng, n, p):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.choice((1, -1, 2))
                arcs += [(u, v, w), (v, u, w)]
        if rng.random() < 0.2:
            arcs.append((u, u, 1))
    return build(n, arcs)


def test_fixture_blocks(mixed_arc_digraph_14):
    d = decompose(mixed_arc_digraph_14)
    assert d.blocks == (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6, 7),
        (1, 13),
        (3, 12),
        (5, 10, 11),
        (7, 8, 9),
    )
    assert sorted(d.cut_vertices) == [0, 1, 3, 5, 7]
    # leaf blocks hang off exactly one cut
    assert d.pendant == (False, False, False, True, True, True, True)
    assert d.cuts_in_block(2) == (0, 5, 7)
    assert d.membership[0] == (0, 1, 2)


def test_every_fixture_agrees_with_networkx(
    mixed_arc_digraph_14, r2_extended_digraph_19, block_graph_19, biblock_20, r2_tree_10
):
    for G in (
        mixed_arc_digraph_14,
        r2_extended_digraph_19,
        block_graph_19,
        biblock_20,
        r2_tree_10,
    ):
        d = decompose(G)
        assert list(d.blocks) == blocks_by_networkx(G)
        assert set(d.cut_vertices) == cuts_by_networkx(G)
        assert set(d.cut_vertices) == cut_vertices_by_removal(G)


def test_degenerate_graphs():
    d0 = decompose(build(0, []))
    assert d0.blocks == () and d0.cut_vertices == frozenset()
    assert _components(d0) == 0

    # isolated vertices form singleton blocks
    d = decompose(build(3, [(1, 1, 5)]))
    assert d.blocks == ((0,), (1,), (2,))
    assert d.pendant == (True, True, True)
    assert _components(d) == 3


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_networkx(seed):
    rng = random.Random(f"blocks:{seed}")
    G = random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.6)))
    d = decompose(G)
    assert list(d.blocks) == blocks_by_networkx(G)
    assert set(d.cut_vertices) == cuts_by_networkx(G)
    # the block-cut forest identity behind the sum rules' connectivity test
    assert _components(d) == len(G.connected_components())


def biarcs(edges):
    return [(u, v, 1) for a, b in edges for (u, v) in ((a, b), (b, a))]


def grid_edges(k):
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                yield (i * k + j, (i + 1) * k + j)
            if j + 1 < k:
                yield (i * k + j, i * k + j + 1)


# Deep DFS trees (a path or cycle of 3,000 vertices, 2,000 triangles in a
# chain), many blocks at one vertex (a star) and one block with many cycles.
LARGE = {
    "biarc-path": lambda: (3000, biarcs((i, i + 1) for i in range(2999))),
    "biarc-cycle": lambda: (3000, biarcs((i, (i + 1) % 3000) for i in range(3000))),
    "triangle-chain": lambda: (
        4001,
        [(2 * k + a, 2 * k + (a + 1) % 3, 1) for k in range(2000) for a in range(3)],
    ),
    "star": lambda: (2001, [(0, i, 1) for i in range(1, 2001)]),
    "biarc-grid": lambda: (900, biarcs(grid_edges(30))),
}


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_graphs_match_networkx(name, relabel):
    n, arcs = LARGE[name]()
    if relabel:
        perm = list(range(n))
        random.Random(name).shuffle(perm)
        arcs = [(perm[u], perm[v], w) for u, v, w in arcs]
    G = build(n, arcs)
    d = decompose(G)
    assert list(d.blocks) == blocks_by_networkx(G)
    assert set(d.cut_vertices) == cuts_by_networkx(G)


@pytest.mark.parametrize("seed", range(25))
def test_cut_vertices_lie_in_at_least_two_blocks(seed):
    rng = random.Random(f"cuts:{seed}")
    G = random_graph(rng, rng.randint(2, 10), 0.3)
    d = decompose(G)
    for v in range(G.n):
        assert (v in d.cut_vertices) == (len(d.membership[v]) >= 2)
    # every vertex is covered; every arc stays inside one block
    assert all(d.membership[v] for v in range(G.n))
    for u, v, _ in G.arcs():
        assert any(u in d.blocks[i] and v in d.blocks[i] for i in d.membership[u])


def test_block_subdigraph_and_breve(mixed_arc_digraph_14):
    G = mixed_arc_digraph_14
    d = decompose(G)
    sub = block_subdigraph(G, d, 2)  # block (0, 5, 6, 7)
    assert sub.n == 4
    # arcs between block vertices survive with their weights
    assert sub.arc_weight(3, 2) == 1  # 7 -> 6 relabelled

    br = breve(G, d, 2)  # cuts 0, 5, 7 removed, vertex 6 remains
    assert br.n == 1
    assert br.loop_weight(0) == 1  # the loop at 6

    assert breve(G, d, 4).n == 1  # block (3, 12): only 12 is not a cut
    with pytest.raises(IndexOutOfRange):
        breve(G, d, 99)


@pytest.mark.parametrize("fn", [block_subdigraph, breve, is_r2_block, is_r0_block])
@pytest.mark.parametrize("past", [False, True], ids=["minus-one", "block-count"])
def test_bad_block_index_is_rejected(fn, past):
    """-1 is not the last block and block_count is not a block: all four
    raise IndexOutOfRange through the one check in `blocks`."""
    G = gen(GenSpec("r2-block-graph", n=12, seed=0))
    d = decompose(G)
    assert d.block_count == 7
    with pytest.raises(IndexOutOfRange):
        fn(G, d, d.block_count if past else -1)


def test_breve_may_be_empty():
    # a path of three vertices: middle block vertices are all cuts or shared
    G = build(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
    d = decompose(G)
    assert d.blocks == ((0, 1), (1, 2))
    assert breve(G, d, 0).n == 1
    # both endpoints of a bridge between two cuts vanish
    H = build(4, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)])
    dh = decompose(H)
    assert dh.blocks == ((0, 1), (1, 2), (2, 3))
    assert breve(H, dh, 1).n == 0


def test_block_pieces_equal_each_block_cut_alone():
    """`_block_pieces` cuts every block (or breve) from one pass over the
    arcs; each piece equals what `block_subdigraph` (or `breve`) cuts for
    that block alone.  The graphs have one-way arcs and loops, cut-vertex
    loops included, which go to every block of their vertex."""
    looped_cuts = 0
    for seed in range(40):
        rng = random.Random(seed)
        H = random_graph(rng, rng.randint(1, 30), 0.12)
        G = build(H.n, [a for a in H.arcs() if a[0] == a[1] or rng.random() < 0.8])
        d = decompose(G)
        looped_cuts += sum(G.has_loop(v) for v in d.cut_vertices)
        blocks = range(d.block_count)
        assert _block_pieces(G, d, breves=False) == [block_subdigraph(G, d, i) for i in blocks]
        assert _block_pieces(G, d, breves=True) == [breve(G, d, i) for i in blocks]
    assert looped_cuts >= 20
