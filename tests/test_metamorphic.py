"""Metamorphic relations: the rank of every family graph is unchanged when
its vertices are relabelled, when every arc is reversed (the matrix
transposed) and when one vertex's out-arcs or in-arcs are scaled (a row or
column times a nonzero rational), and a disjoint union ranks to the sum of
its parts.  A relabelling moves the root block, the walk's roots and the
peel order, a scaling changes every peel at that vertex and a union adds
components, so each pair runs different rule paths and checks each other
without the oracle; at n = 200 they do so where the oracle is slow.
"""

import random
from fractions import Fraction

import pytest

from digrank import GenSpec, build, gen, rank_recursive
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n, seed", [(7, 4), (40, 5), (200, 6)])
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
