"""Metamorphic relations: the rank of every family graph is unchanged when
its vertices are relabelled, when every arc is reversed (the matrix
transposed) and when one vertex's out-arcs or in-arcs are scaled (a row or
column times a nonzero rational), and a disjoint union ranks to the sum of
its parts.  Two pendants change it by the paper's case I and case III
peels: a new vertex w with arcs u -> w and w -> u and no loop adds 2 to
the rank of G - u, and the arc u -> w alone adds 1 to the rank of G with
u's out-arcs (its loop included) deleted.  A relabelling moves the root
block, the walk's roots and the peel order, a scaling changes every peel
at that vertex, a union adds components and a pendant adds a block, so
each pair runs different rule paths and checks each other without the
oracle; at n = 200 they do so where the oracle is slow.
"""

import random
from fractions import Fraction

import pytest

from digrank import GenSpec, build, gen, oracle_rank, rank_recursive
from digrank.generate import FAMILIES, random_digraph


def family_graph(family, n, seed):
    if family == "r2-extension":
        base = random_digraph(n, random.Random(seed))
        return gen(GenSpec(family, seed=seed, base=base))
    return gen(GenSpec(family, n=n, seed=seed))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (12, 2), (16, 3)])
def test_rank_survives_relabelling_and_transposing(family, n, seed):
    G = family_graph(family, n, seed)
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    relabelled = build(G.n, [(perm[u], perm[v], w) for u, v, w in G.arcs()])
    transposed = build(G.n, [(v, u, w) for u, v, w in G.arcs()])
    rank = rank_recursive(G).rank
    assert rank_recursive(relabelled).rank == rank
    assert rank_recursive(transposed).rank == rank


def scaled(G, s, c, out):
    """G with vertex s's out-arcs (row s), or in-arcs (column s), times c;
    its loop is both."""
    return build(G.n, [(u, v, w * c if (u if out else v) == s else w) for u, v, w in G.arcs()])


def union(*graphs):
    """The disjoint union, each graph's vertices after the previous ones."""
    arcs, n = [], 0
    for G in graphs:
        arcs += [(u + n, v + n, w) for u, v, w in G.arcs()]
        n += G.n
    return build(n, arcs)


GRID = [(7, 4), (40, 5), (200, 6)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n, seed", GRID)
def test_rank_survives_scaling_a_vertex(family, n, seed):
    G = family_graph(family, n, seed)
    rng = random.Random(seed)
    rank = rank_recursive(G).rank
    for out, c in ((True, Fraction(-3, 7)), (False, Fraction(5, 2))):
        s = rng.randrange(G.n)
        assert rank_recursive(scaled(G, s, c, out)).rank == rank


@pytest.mark.parametrize("i, family", list(enumerate(FAMILIES)))
@pytest.mark.parametrize("n, seed", [(7, 7), (40, 8), (200, 9)])
def test_disjoint_union_ranks_to_the_sum(i, family, n, seed):
    G = family_graph(family, n, seed)
    H = family_graph(FAMILIES[(i + 1) % len(FAMILIES)], n // 2 + 1, seed)
    r_G, r_H = rank_recursive(G).rank, rank_recursive(H).rank
    assert rank_recursive(union(G, H)).rank == r_G + r_H
    assert rank_recursive(union(H, G, H)).rank == r_G + 2 * r_H


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n, seed", GRID)
def test_pendants_add_their_peel_to_the_rest(family, n, seed):
    G = family_graph(family, n, seed)
    u = random.Random(seed).randrange(G.n)
    x, y = Fraction(3, 2), Fraction(-2, 5)
    arcs = list(G.arcs())
    bi_arc = build(G.n + 1, arcs + [(u, G.n, x), (G.n, u, y)])
    one_way = build(G.n + 1, arcs + [(u, G.n, x)])
    without_u = G.delete_vertices([u])
    without_row = build(G.n, [(a, b, w) for a, b, w in arcs if a != u])
    pairs = [(bi_arc, without_u, 2), (one_way, without_row, 1)]
    for H, rest, gain in pairs:
        assert rank_recursive(H).rank == rank_recursive(rest).rank + gain
        if n <= 40:
            assert oracle_rank(H) == oracle_rank(rest) + gain
