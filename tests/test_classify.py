"""The bordered-matrix trichotomy and cut-vertex splits.

`classify_cut` internally double-checks memberships against the literal rank
difference, so every call here that returns at all is already a consistency
proof; the tests additionally pin concrete cases and validate split
plumbing.
"""

import random
from fractions import Fraction

import pytest

from digrank import (
    CutVertexCase,
    RationalMatrix,
    build,
    classify_bordered,
    classify_cut,
    decompose,
    make_split,
    side_components,
)
from digrank.errors import InvalidSplit, VertexOutOfRange
from digrank.linalg import bordered, rank
from oracles import naive_rank

I, II, III = CutVertexCase.RANK_PLUS_2, CutVertexCase.RANK_PLUS_0, CutVertexCase.RANK_PLUS_1


def test_case_metadata():
    assert (I.delta, I.label) == (2, "I")
    assert (II.delta, II.label) == (0, "II")
    assert (III.delta, III.label) == (1, "III")


@pytest.mark.parametrize(
    "alpha,x,y,B,case",
    [
        # x outside the rows AND y outside the columns: +2
        (0, (1,), (1,), [[0]], I),
        (5, (1, 0), (0, 1), [[0, 0], [0, 0]], I),
        # everything inside, alpha consistent: +0
        (0, (0,), (0,), [[0]], II),
        (1, (1,), (1,), [[1]], II),  # alpha = x B^{-1} y
        (4, (2, 4), (2, 2), [[1, 2], [1, 2]], II),
        # one-sided membership, or residue alpha: +1
        (0, (1,), (0,), [[0]], III),  # x outside, y (=0) inside
        (1, (0,), (1,), [[0]], III),
        (3, (1,), (1,), [[1]], III),  # alpha != x B^{-1} y
        (1, (0, 0), (0, 0), [[0, 0], [0, 0]], III),  # loop alone adds 1
    ],
)
def test_frozen_trichotomy_cases(alpha, x, y, B, case):
    Bm = RationalMatrix(B)
    cls = classify_bordered(alpha, x, y, Bm)
    assert cls.case is case
    # agree with the naive rank difference
    M = bordered(alpha, x, y, Bm)
    assert cls.delta == naive_rank(M.to_lists()) - naive_rank(B)


def test_empty_b_degenerates_on_loop():
    B0 = RationalMatrix([], cols=0)
    assert classify_bordered(0, (), (), B0).case is II
    assert classify_bordered(7, (), (), B0).case is III


@pytest.mark.parametrize("seed", range(150))
def test_random_bordered_agrees_with_rank_difference(seed):
    rng = random.Random(f"tri:{seed}")
    k = rng.randint(0, 4)
    vals = (0, 0, 1, -1, 2, Fraction(1, 2))
    B = RationalMatrix([[Fraction(rng.choice(vals)) for _ in range(k)] for _ in range(k)])
    x = tuple(Fraction(rng.choice(vals)) for _ in range(k))
    y = tuple(Fraction(rng.choice(vals)) for _ in range(k))
    alpha = Fraction(rng.choice(vals))
    cls = classify_bordered(alpha, x, y, B)
    M = bordered(alpha, x, y, B)
    assert cls.delta == rank(M).rank - rank(B).rank
    # CASE I and CASE II exclude each other by construction
    m1, m2, m3, m4 = cls.memberships
    if cls.case is I:
        assert not m1 and not m2
    if cls.case is II:
        assert m3 and m4


# -- splits on graphs ---------------------------------------------------------


def _p3():
    # 0 - 1 - 2 bi-directed path, cut at 1
    return build(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])


def test_side_components_and_split():
    G = _p3()
    sides = side_components(G, 1)
    assert sides == [frozenset({0, 1}), frozenset({1, 2})]
    split = make_split(G, 1, {0, 1})
    assert classify_cut(G, split).case is I  # loopless bi-arc leaf


def test_side_components_rejects_vertices_outside_the_graph():
    G = _p3()
    for v in (3, 7, -1):
        with pytest.raises(VertexOutOfRange):
            side_components(G, v)


def test_make_split_rejects_leaky_side():
    G = _p3()
    with pytest.raises(InvalidSplit):
        make_split(G, 0, {0, 1})  # edge (1, 2) crosses away from 0
    with pytest.raises(InvalidSplit):
        make_split(G, 1, {0})  # v outside its side
    with pytest.raises(InvalidSplit):
        make_split(G, 1, {1, 7})


def test_whole_graph_split_compares_against_vertex_deletion():
    G = _p3().with_loop(1, Fraction(3))
    split = make_split(G, 1, range(3))
    cls = classify_cut(G, split)
    A = G.adjacency_matrix().to_lists()
    full = naive_rank(A)
    minus = naive_rank([row[0::2] for row in A[0::2]])
    assert cls.delta == full - minus


def test_singleton_side():
    G = _p3()
    assert classify_cut(G, make_split(G, 0, {0})).case is II  # no loop
    H = G.with_loop(0, Fraction(2))
    assert classify_cut(H, make_split(H, 0, {0})).case is III  # loop alone


@pytest.mark.parametrize("seed", range(60))
def test_random_cut_splits_all_classified(seed):
    """Every (cut, side) pair on random graphs classifies without mismatch."""
    rng = random.Random(f"splits:{seed}")
    n = rng.randint(3, 9)
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.22:
                arcs[(u, v)] = rng.choice((1, -1, 2))
        if rng.random() < 0.3:
            arcs[(u, u)] = rng.choice((1, -1))
    G = build(n, [(u, v, w) for (u, v), w in arcs.items()])
    d = decompose(G)
    hit = 0
    for v in sorted(d.cut_vertices):
        for side in side_components(G, v):
            cls = classify_cut(G, make_split(G, v, side))
            assert cls.case in (I, II, III)
            hit += 1
    if d.cut_vertices:
        assert hit >= 2  # a cut vertex has at least two sides
