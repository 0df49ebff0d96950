"""Metamorphic relations: the rank of every family graph is unchanged when
its vertices are relabelled and when every arc is reversed (the matrix
transposed).  A relabelling moves the root block, the walk's roots and the
peel order, so the pair runs different rule paths and checks each other
without the oracle.
"""

import random

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
