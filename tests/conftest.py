"""Shared fixtures: a small zoo of digraphs exercising every code path.

The five "zoo" graphs below are hand-built worked examples.  Their ranks and
decompositions were computed with the naive oracles in ``oracles.py`` and are
frozen into the tests that use them.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from digrank import build


def unit_graph(n, edges=(), arcs=(), loops=()):
    """Build a digraph whose arcs all carry weight 1.

    `edges` become arc pairs in both directions, `arcs` single directed arcs,
    `loops` weight-1 loops.
    """
    triples = []
    for u, v in edges:
        triples += [(u, v, 1), (v, u, 1)]
    triples += [(u, v, 1) for u, v in arcs]
    triples += [(v, v, 1) for v in loops]
    return build(n, triples)


# -- a 14-vertex digraph mixing single arcs, bi-directed edges and loops.
# Blocks: (0,1,2) (0,3,4) (0,5,6,7) (1,13) (3,12) (5,10,11) (7,8,9);
# cut vertices 0,1,3,5,7.
_MIXED_EDGES = [
    (0, 4), (4, 3), (3, 0), (0, 7), (7, 6), (6, 5), (5, 0),
    (7, 8), (9, 8), (0, 6), (5, 7),
]
_MIXED_ARCS = [(0, 2), (2, 1), (1, 0), (9, 7), (11, 10), (11, 5), (10, 5), (12, 3), (1, 13)]
_MIXED_LOOPS = [2, 3, 6, 9, 10]


@pytest.fixture(scope="session")
def mixed_arc_digraph_14():
    return unit_graph(14, edges=_MIXED_EDGES, arcs=_MIXED_ARCS, loops=_MIXED_LOOPS)


@pytest.fixture(scope="session")
def r2_extended_digraph_19(mixed_arc_digraph_14):
    """The 14-vertex graph grown into an r2-digraph by pendant attachments."""
    G = mixed_arc_digraph_14
    triples = list(G.arcs())
    triples.append((1, 1, Fraction(1)))
    for a, b in [(1, 14), (0, 15), (3, 16), (7, 17), (5, 18)]:
        triples += [(a, b, 1), (b, a, 1)]
    return build(19, triples)


@pytest.fixture(scope="session")
def r2_tree_10():
    """A 10-vertex tree digraph: bi-directed spine, one arc leaf per flavour.

    Internal vertices 0, 4, 6, 7 each keep a plain pendant; loops sit at
    0, 2, 4, 7.  Matching number 4, one looped non-cut vertex, rank 9.
    """
    return unit_graph(
        10,
        edges=[(0, 1), (0, 6), (6, 4), (4, 7), (7, 5), (3, 4), (6, 8)],
        arcs=[(2, 0), (4, 9)],
        loops=[0, 2, 4, 7],
    )


@pytest.fixture(scope="session")
def block_graph_19():
    """Unit block graph: triangles and a K4 glued at cuts, pendant leaves.

    Vertex 1 carries two pendant leaves, so this is *not* an r2-block graph
    and its rank (14) falls short of n = 19.
    """
    blocks = [
        (0, 1, 2), (0, 3, 4), (5, 10, 11), (7, 8, 9),
    ]
    edges = [(a, b) for bl in blocks for i, a in enumerate(bl) for b in bl[i + 1:]]
    k4 = (0, 5, 6, 7)
    edges += [(a, b) for i, a in enumerate(k4) for b in k4[i + 1:]]
    edges += [(1, 13), (1, 14), (0, 15), (3, 12), (3, 16), (5, 18), (7, 17)]
    return unit_graph(19, edges=edges)


@pytest.fixture(scope="session")
def biblock_20():
    """Unit biblock graph: complete-bipartite blocks chained at cuts 2,3,4.

    Despite one pendant edge per cut its rank is 12, not 2x7 blocks = 14.
    """
    edges = []
    for side_a, side_b in [
        ((0, 1), (2, 3, 19)),
        ((3, 4), (7, 8, 9)),
        ((4, 5, 6), (10, 11, 12)),
    ]:
        edges += [(a, b) for a in side_a for b in side_b]
    edges += [(2, 13), (2, 14), (15, 14), (13, 15)]   # a C4 block
    edges += [(2, 16), (3, 17), (4, 18)]              # pendant edges
    return unit_graph(20, edges=edges)


@pytest.fixture(scope="session")
def every_route_union_29(r2_tree_10):
    """One component per engine route, vertex ids interleaved.

    In building order: a bi-arc path (TREE_MATCHING), the r2-tree above
    (R2_TREE), a triangle with a pendant edge (R2_DIGRAPH), two 4-cycles on
    one vertex (R0_DIGRAPH), a triangle with a pendant arc (one peel pass)
    and a looped isolated vertex.  Vertex i of the union of the six is
    renamed 12 * i mod 29, so no component holds a range of ids.
    """
    parts = [
        unit_graph(3, edges=[(0, 1), (1, 2)]),
        r2_tree_10,
        unit_graph(4, edges=[(0, 1), (1, 2), (2, 0), (0, 3)]),
        unit_graph(
            7, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
        ),
        unit_graph(4, edges=[(0, 1), (1, 2), (2, 0)], arcs=[(0, 3)]),
        unit_graph(1, loops=[0]),
    ]
    triples, offset = [], 0
    for part in parts:
        for u, v, w in part.arcs():
            triples.append(((u + offset) * 12 % 29, (v + offset) * 12 % 29, w))
        offset += part.n
    return build(offset, triples)
