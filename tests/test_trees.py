"""Tree-shaped digraphs: matching numbers and the two closed rank forms."""

import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digrank import (
    TreeKind,
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
from digrank import trees
from digrank.errors import NotAForest, PreconditionViolated
from digrank.generate import random_digraph
from oracles import (
    max_matching_brute,
    max_matching_networkx,
    rank_of_digraph,
    tree_summary_reference,
)


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


# One arc each way, or one arc either way; any vertex may also carry a loop.
# Together these give the five shapes a leaf can hang by.
SHAPES = ("both", "both", "down", "up")


def shaped_arcs(edges, shapes):
    """Unit arcs of the underlying edges (parent, child), each in its shape."""
    arcs = []
    for (a, b), shape in zip(edges, shapes):
        if shape != "up":
            arcs.append((a, b, 1))
        if shape != "down":
            arcs.append((b, a, 1))
    return arcs


def random_forest(rng):
    """A disjoint union of 1-4 random trees (a one-vertex tree is an
    isolated vertex), with relabelled vertices, random shapes and loops."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    edges, base = [], 0
    for size in sizes:
        edges += [(perm[base + rng.randrange(i)], perm[base + i]) for i in range(1, size)]
        base += size
    arcs = shaped_arcs(edges, [rng.choice(SHAPES) for _ in edges])
    arcs += [(v, v, 1) for v in perm if rng.random() < 0.3]
    return build(len(perm), arcs)


def cycle_and_tree(rng):
    """A cycle with branches, beside a separate tree: n - 1 underlying
    edges, but not a tree."""
    k, m, t = rng.randint(3, 5), rng.randint(0, 3), rng.randint(1, 3)
    perm = list(range(k + m + t))
    rng.shuffle(perm)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(rng.randrange(i), i) for i in range(k, k + m)]
    edges += [(k + m + rng.randrange(i), k + m + i) for i in range(1, t)]
    edges = [(perm[a], perm[b]) for a, b in edges]
    return build(len(perm), shaped_arcs(edges, [rng.choice(SHAPES) for _ in edges]))


@pytest.mark.parametrize("seed", range(60))
def test_forests_and_near_trees_against_networkx(seed):
    rng = random.Random(f"forest:{seed}")
    for G in (random_forest(rng), cycle_and_tree(rng)):
        edges = G.underlying_edges()
        H = nx.Graph(edges)
        H.add_nodes_from(range(G.n))
        assert is_forest(G) == nx.is_forest(H)
        assert is_tree(G) == nx.is_tree(H)
        if not is_forest(G):
            with pytest.raises(NotAForest):
                max_matching(G)
            continue
        m = max_matching(G)
        assert m.size == max_matching_brute(edges) == max_matching_networkx(edges)
        used = [v for e in m.edges for v in e]
        assert len(used) == len(set(used)) == 2 * m.size
        assert set(m.edges) <= edges


@st.composite
def labelled_trees(draw):
    """Small trees with relabelled vertices, every attachment shape, random
    weights and random loops (a loop on one vertex in four).  An edge
    between two cut-vertices is bi-arc but for one time in eight, so that
    r2-trees are common."""
    n = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)]
    deg = Counter(v for e in edges for v in e)
    shapes = [
        draw(st.sampled_from(SHAPES))
        if 1 in (deg[a], deg[b]) or draw(st.integers(0, 7)) == 0
        else "both"
        for a, b in edges
    ]
    weights = st.sampled_from([1, -1, 2, Fraction(1, 2), 3])
    arcs = [(u, v, draw(weights)) for u, v, _ in shaped_arcs(edges, shapes)]
    arcs += [(v, v, draw(weights)) for v in range(n) if draw(st.integers(0, 3)) == 0]
    return build(n, arcs)


@settings(max_examples=300, deadline=None)
@given(labelled_trees())
def test_tree_summary_matches_its_literal_definition(G):
    kind, q, s = tree_summary(G)
    assert (kind and kind.value, q, s) == tree_summary_reference(G)
    if kind in (TreeKind.LOOPLESS_BI_ARC, TreeKind.R2_TREE):
        assert 2 * q + s == oracle_rank(G)


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


# -- tree_summary turns other graphs away before it walks them ----------------


def counted_walks(monkeypatch):
    """A list that gets one entry per walk of the underlying graph."""
    calls = []
    real = trees._walk
    monkeypatch.setattr(trees, "_walk", lambda G: calls.append(1) or real(G))
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
    calls = counted_walks(monkeypatch)
    assert tree_summary(G) == (None, 0, 0)
    assert calls == []


def test_n_minus_one_edges_with_a_cycle_is_not_a_tree(monkeypatch):
    """A bi-arc triangle plus an isolated vertex has n - 1 edges, so it is
    walked, once, and the walk's edge count turns it away."""
    G = build(4, [(u, v, 1) for a, b in [(0, 1), (1, 2), (2, 0)] for u, v in [(a, b), (b, a)]])
    calls = counted_walks(monkeypatch)
    assert tree_summary(G) == (None, 0, 0)
    assert calls == [1]
    monkeypatch.undo()
    assert rank_recursive(G).rank == oracle_rank(G) == 3
