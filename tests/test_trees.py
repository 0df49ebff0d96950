"""Tree-shaped digraphs: matching numbers and the two closed rank forms."""

import random
from fractions import Fraction

import pytest

from digrank import (
    TreeKind,
    WeightedDigraph,
    build,
    classify_tree,
    count_loop_attachments,
    gen,
    GenSpec,
    is_forest,
    is_r2_tree_digraph,
    is_tree,
    max_matching,
    oracle_rank,
    rank_r2_tree,
    rank_recursive,
    rank_tree,
    tree_summary,
)
from digrank.errors import NotAForest, PreconditionViolated
from digrank.generate import random_digraph
from oracles import max_matching_brute, max_matching_networkx, rank_of_digraph


def biarc_path(n, w=1):
    arcs = []
    for i in range(n - 1):
        arcs += [(i, i + 1, w), (i + 1, i, w)]
    return build(n, arcs)


def test_forest_and_tree_predicates():
    assert is_tree(biarc_path(4))
    assert not is_tree(build(0, []))
    assert is_forest(build(3, []))
    assert not is_tree(build(3, []))  # disconnected
    tri = build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert not is_forest(tri)  # direction is ignored; the cycle counts


def test_max_matching_small():
    m = max_matching(biarc_path(2))
    assert m.size == 1 and m.edges == frozenset({(0, 1)})
    assert max_matching(biarc_path(5)).size == 2
    assert max_matching(build(1, [])).size == 0
    with pytest.raises(NotAForest):
        max_matching(build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]))


@pytest.mark.parametrize("seed", range(60))
def test_max_matching_agrees_with_oracles(seed):
    rng = random.Random(f"match:{seed}")
    G = gen(GenSpec("loopless-biarc-tree", n=rng.randint(2, 12), seed=seed))
    m = max_matching(G)
    edges = G.underlying_edges()
    assert m.size == max_matching_brute(edges)
    assert m.size == max_matching_networkx(edges)
    # reported edge set is a real matching of the reported size
    used = [v for e in m.edges for v in e]
    assert len(used) == len(set(used)) == 2 * m.size
    assert set(m.edges) <= set(edges)


def test_classify_precedence():
    P = biarc_path(3)
    assert classify_tree(P) is TreeKind.LOOPLESS_BI_ARC
    # loop at the cut vertex: still a bi-arc tree, no longer loopless
    assert classify_tree(P.with_loop(1, Fraction(1))) is TreeKind.CUT_LOOP_BI_ARC
    # one looped leaf is fine while the centre keeps a plain leaf ...
    assert classify_tree(P.with_loop(0, Fraction(1))) is TreeKind.R2_TREE
    assert rank_r2_tree(P.with_loop(0, Fraction(1))) == 3
    # ... but loops on both leaves starve the centre of plain leaves
    both = P.with_loop(0, Fraction(1)).with_loop(2, Fraction(1))
    assert classify_tree(both) is None
    # a one-directional edge breaks the bi-arc requirement
    assert classify_tree(build(2, [(0, 1, 1)])) is None
    assert classify_tree(build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])) is None


def test_r2_tree_fixture(r2_tree_10):
    assert classify_tree(r2_tree_10) is TreeKind.R2_TREE
    assert is_r2_tree_digraph(r2_tree_10)
    kind, q, s = tree_summary(r2_tree_10)
    assert (kind, q, s) == (TreeKind.R2_TREE, 4, 1)
    assert rank_r2_tree(r2_tree_10) == 9 == rank_of_digraph(r2_tree_10)


def test_cut_loops_need_plain_leaves():
    # bi-arc path on five vertices with loops at both internal neighbours of
    # the centre: vertex 2 is internal but keeps no loop-free leaf, so this
    # is not an r2-tree.
    G = biarc_path(5).with_loop(1, Fraction(1)).with_loop(3, Fraction(1))
    assert classify_tree(G) is TreeKind.CUT_LOOP_BI_ARC
    assert not is_r2_tree_digraph(G)
    with pytest.raises(PreconditionViolated):
        rank_r2_tree(G)


def test_rank_tree_requires_loopless():
    G = biarc_path(3).with_loop(1, Fraction(1))
    with pytest.raises(PreconditionViolated):
        rank_tree(G)


@pytest.mark.parametrize("seed", range(80))
def test_loopless_rank_is_twice_matching(seed):
    G = gen(GenSpec("loopless-biarc-tree", n=(seed % 11) + 2, seed=seed))
    q = max_matching(G).size
    assert rank_tree(G) == 2 * q == rank_of_digraph(G)


@pytest.mark.parametrize("seed", range(80))
def test_r2_tree_rank_counts_looped_leaves(seed):
    G = gen(GenSpec("r2-tree", n=(seed % 9) + 4, seed=seed))
    assert is_r2_tree_digraph(G)
    q = max_matching(G).size
    s = count_loop_attachments(G)
    assert rank_r2_tree(G) == 2 * q + s == rank_of_digraph(G)


def test_rank_constant_under_weight_rerandomization():
    """The loopless closed form depends on shape only, never on weights."""
    rng = random.Random("shapes")
    for seed in range(10):
        G = gen(GenSpec("loopless-biarc-tree", n=9, seed=seed))
        base = rank_of_digraph(G)
        for _ in range(10):
            arcs = [
                (u, v, Fraction(rng.randint(1, 60), rng.randint(1, 9)))
                for u, v, _ in G.arcs()
            ]
            assert rank_of_digraph(build(G.n, arcs)) == base


# -- tree_summary turns other graphs away before building neighbour sets -------


def counted_adjacency(monkeypatch):
    """A list that gets one entry per underlying_adjacency call."""
    calls = []
    real = WeightedDigraph.underlying_adjacency
    monkeypatch.setattr(
        WeightedDigraph, "underlying_adjacency", lambda self: calls.append(1) or real(self)
    )
    return calls


def triangle_chain(k):
    """k directed triangles, each glued to the next at one vertex: 3k
    edges on 2k + 1 vertices."""
    arcs = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        arcs += [(a, b, 1), (b, c, 1), (c, a, 1)]
    return build(2 * k + 1, arcs)


def two_paths():
    """A forest of two bi-arc paths: n - 2 edges."""
    arcs = [(u, v, w) for u, v, w in biarc_path(4).arcs()]
    arcs += [(u + 4, v + 4, w) for u, v, w in biarc_path(3).arcs()]
    return build(7, arcs)


# (graph, whether its arc count alone exceeds a tree's 3n - 2)
NOT_TREES = {
    "dense-random": (lambda: random_digraph(30, random.Random(0), p=0.4), True),
    "triangle-chain": (lambda: triangle_chain(6), False),
    "two-component-forest": (two_paths, False),
}


@pytest.mark.parametrize("name", NOT_TREES)
def test_tree_summary_builds_no_neighbour_set_for_a_non_tree(monkeypatch, name):
    make, too_many_arcs = NOT_TREES[name]
    G = make()
    assert (G.arc_count > 3 * G.n - 2) is too_many_arcs
    calls = counted_adjacency(monkeypatch)
    assert tree_summary(G) == (None, 0, 0)
    assert calls == []


def test_n_minus_one_edges_with_a_cycle_is_not_a_tree(monkeypatch):
    """A bi-arc triangle plus an isolated vertex has n - 1 edges, so its
    neighbour sets are built, once, and the forest test turns it away."""
    G = build(4, [(u, v, 1) for a, b in [(0, 1), (1, 2), (2, 0)] for u, v in [(a, b), (b, a)]])
    calls = counted_adjacency(monkeypatch)
    assert tree_summary(G) == (None, 0, 0)
    assert calls == [1]
    monkeypatch.undo()
    assert rank_recursive(G).rank == oracle_rank(G) == 3
