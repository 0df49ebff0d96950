"""Metamorphic relations: the rank of every family graph is unchanged when
its vertices are relabelled, when every arc is reversed (the matrix
transposed) and when one vertex's out-arcs or in-arcs are scaled (a row or
column times a nonzero rational), and a disjoint union ranks to the sum of
its parts.  Two pendants change it by the paper's case I and case III
peels: a new vertex w with arcs u -> w and w -> u and no loop adds 2 to
the rank of G - u, and the arc u -> w alone adds 1 to the rank of G with
u's out-arcs (its loop included) deleted.  On an r2-digraph, the paper's
own relations hold: rewriting the loops at its cut-vertices leaves the
rank as it is, and single-vertex attachments at cut-vertices add the
`rank_delta_cr2` count.  A relabelling moves the root
block, the walk's roots and the peel order, a scaling changes every peel
at that vertex, a union adds components and a pendant adds a block, so
each pair runs different rule paths and checks each other without the
oracle; at n = 200 they do so where the oracle is slow.
"""

import random
from fractions import Fraction

import pytest

from digrank import (
    EdgeAddition,
    EdgeKind,
    GenSpec,
    PreconditionViolated,
    apply_additions,
    build,
    decompose,
    gen,
    is_r2_digraph,
    oracle_rank,
    rank_delta_cr2,
    rank_recursive,
)
from digrank.digraph import _weight_count
from digrank.generate import DEFAULT_POOL, FAMILIES, random_digraph
from digrank.theorems import _LOOP_WEIGHTS


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


R2_FAMILIES = ["r2-tree", "r2-block-graph", "r2-biblock-graph", "r2-extension"]


def r2_cases(family):
    """(G, its sorted cut-vertices, a seeded rng, whether the dense oracle
    checks too) for each GRID graph of the family that is an r2-digraph
    with a cut-vertex."""
    for n, seed in GRID:
        G = family_graph(family, n, seed)
        d = decompose(G)
        if d.cut_vertices and is_r2_digraph(G, d):
            yield G, sorted(d.cut_vertices), random.Random(seed), n <= 40


def assert_gain(G, H, gain, dense):
    """H ranks to G's rank plus gain, by the engine and, when dense, by
    the oracle too."""
    assert rank_recursive(H).rank == rank_recursive(G).rank + gain
    if dense:
        assert oracle_rank(H) == oracle_rank(G) + gain


@pytest.mark.parametrize("family", R2_FAMILIES)
def test_r2_cut_vertex_loops_do_not_move_the_rank(family):
    ran = 0
    for G, cuts, rng, dense in r2_cases(family):
        for _ in range(2):
            loops = {v: rng.choice(_LOOP_WEIGHTS) for v in cuts}
            arcs = [(u, v, w) for u, v, w in G.arcs() if u != v or u not in loops]
            H = build(G.n, arcs + [(v, v, w) for v, w in loops.items() if w])
            assert_gain(G, H, 0, dense)
            ran += 1
    assert ran


@pytest.mark.parametrize("family", R2_FAMILIES)
def test_r2_attachments_add_the_cr2_delta(family):
    ran = 0
    for G, cuts, rng, dense in r2_cases(family):
        for _ in range(3):
            kinds = [rng.choice(tuple(EdgeKind)) for _ in range(rng.randint(1, 4))]
            adds = [
                EdgeAddition(
                    rng.choice(cuts),
                    k,
                    tuple(rng.choice(DEFAULT_POOL) for _ in range(_weight_count(k))),
                    rng.random() < 0.5,
                )
                for k in kinds
            ]
            try:
                delta = rank_delta_cr2(G, adds)
            except PreconditionViolated:
                continue
            assert_gain(G, apply_additions(G, adds), delta, dense)
            ran += 1
    assert ran
