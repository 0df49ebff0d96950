"""Graph value semantics, the text format, and vertex attachments."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digrank import (
    EdgeKind,
    ParseError,
    WeightedDigraph,
    build,
    format_digraph,
    parse_digraph,
)
from digrank.errors import DimensionMismatch, DuplicateArc, VertexOutOfRange, ZeroWeight


@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    pairs = draw(
        st.sets(st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))))
        if n
        else st.just(set())
    )
    weights = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return build(n, [(u, v, draw(weights)) for (u, v) in sorted(pairs)])


def test_build_rejects_bad_arcs():
    with pytest.raises(ZeroWeight):
        build(2, [(0, 1, 0)])
    with pytest.raises(DuplicateArc):
        build(2, [(0, 1, 1), (0, 1, 2)])
    with pytest.raises(VertexOutOfRange):
        build(2, [(0, 2, 1)])
    with pytest.raises(VertexOutOfRange):
        build(-1, [])


def test_adjacency_and_vectors():
    G = build(3, [(0, 1, Fraction(1, 2)), (1, 0, -2), (2, 2, 3), (0, 2, 1)])
    A = G.adjacency_matrix()
    assert A.to_lists() == [
        [0, Fraction(1, 2), 1],
        [-2, 0, 0],
        [0, 0, 3],
    ]
    assert G.loop_weight(2) == 3 and G.loop_weight(0) == 0
    assert G.has_loop(2) and not G.has_loop(1)
    assert G.out_vector(0, [1, 2]) == (Fraction(1, 2), 1)
    assert G.in_vector(0, [1, 2]) == (-2, 0)


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_out_rows_hold_every_arc_and_are_fresh(G):
    """out_rows()[u][v] is the weight of u -> v, loops included; each call
    returns new dicts, so writing into one changes neither G nor a later
    call."""
    W = G.out_rows()
    assert len(W) == G.n
    assert sorted((u, v, w) for u, row in enumerate(W) for v, w in row.items()) == list(
        G.arcs()
    )
    before = G.adjacency_matrix().to_lists()
    again = G.out_rows()
    assert again == W and all(a is not b for a, b in zip(again, W))
    for v, row in enumerate(W):
        row[v] = Fraction(0)
        row[(v + 1) % G.n] = Fraction(7)
    assert G.out_rows() == again
    assert G.adjacency_matrix().to_lists() == before


def test_out_rows_of_a_small_graph():
    G = build(3, [(0, 1, Fraction(1, 2)), (1, 0, -2), (2, 2, 3), (0, 2, 1)])
    assert G.out_rows() == [{1: Fraction(1, 2), 2: 1}, {0: -2}, {2: 3}]
    assert build(0, []).out_rows() == []


def test_induced_with_labels_remaps_sorted():
    G = build(4, [(3, 1, 5), (1, 1, 2), (0, 3, 7)])
    H, labels = G.induced_with_labels([3, 1])
    assert labels == (1, 3)
    assert H.n == 2
    assert H.arc_weight(1, 0) == 5  # 3->1 became 1->0
    assert H.loop_weight(0) == 2
    assert G.delete_vertices([0, 2]) == H


def test_delete_vertices_rejects_ids_outside_the_graph():
    G = build(3, [(0, 1, 1), (1, 2, 1)])
    for S in ([3], [99], [-1], [0, 5]):
        with pytest.raises(VertexOutOfRange):
            G.delete_vertices(S)
    assert G.delete_vertices([]) == G
    assert G.delete_vertices([0, 1, 2]) == build(0, [])


def test_round_trip_fixture(mixed_arc_digraph_14):
    text = format_digraph(mixed_arc_digraph_14)
    assert parse_digraph(text) == mixed_arc_digraph_14
    # canonical form is stable
    assert format_digraph(parse_digraph(text)) == text


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_round_trip_random(G):
    assert parse_digraph(format_digraph(G)) == G


def test_parse_accepts_comments_and_blanks():
    G = parse_digraph(
        """
        # a tiny example
        digraph 3

        a 0 1 2/4   # reduced on output
        a 1 0 -1
        """
    )
    assert G.arc_weight(0, 1) == Fraction(1, 2)
    assert "a 0 1 1/2" in format_digraph(G)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", None, "missing header"),
        ("graph 3", 1, "expected header"),
        ("digraph x", 1, "not an integer"),
        ("digraph -2", 1, "negative"),
        ("digraph 2\nb 0 1 1", 2, "expected arc line"),
        ("digraph 2\na 0 1", 2, "expected arc line"),
        ("digraph 2\na 0 q 1", 2, "endpoints must be integers"),
        ("digraph 2\na 0 5 1", 2, "outside 0..1"),
        ("digraph 2\na 0 1 1.5", 2, "malformed weight"),
        ("digraph 2\na 0 1 1/0", 2, "zero denominator"),
        ("digraph 2\na 0 1 0", 2, "zero weight"),
        ("digraph 2\na 0 1 0/3", 2, "zero weight"),
        ("digraph 2\na 0 1 1\na 0 1 2", 3, "duplicate arc"),
        ("digraph +3", 1, "not an integer"),
        ("digraph \u0663", 1, "not an integer"),  # ARABIC-INDIC DIGIT THREE
        ("digraph 3\na +1 2 1", 2, "endpoints must be integers"),
        ("digraph 11\na 1_0 2 1", 2, "endpoints must be integers"),
        ("digraph 3\na \u0661 \u0662 1/\u0662", 2, "endpoints must be integers"),
        ("digraph 3\na 1 2 1/\u0662", 2, "malformed weight"),
        ("digraph 2\na -1 0 1", 2, "outside 0..1"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_digraph(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


# -- the five attachment shapes ---------------------------------------------


def _base():
    return build(2, [(0, 1, 1), (1, 0, 1)])


def test_attach_simple_edge():
    G = _base().attach_edge(1, EdgeKind.SIMPLE_EDGE, (Fraction(3),))
    assert G.n == 3
    assert G.arc_weight(2, 1) == 3 and G.arc_weight(1, 2) == 3
    assert not G.has_loop(2)


def test_attach_nc_tilde_edge():
    G = _base().attach_edge(0, EdgeKind.NC_TILDE_EDGE, (2, 5))
    assert G.arc_weight(2, 0) == 2 and G.arc_weight(0, 2) == 5
    assert not G.has_loop(2)


@pytest.mark.parametrize("toward,arc", [(True, (0, 2)), (False, (2, 0))])
def test_attach_nc_tilde_arc(toward, arc):
    G = _base().attach_edge(0, EdgeKind.NC_TILDE_ARC, (7,), toward_new=toward)
    assert G.arc_weight(*arc) == 7
    assert G.arc_weight(*arc[::-1]) is None
    assert not G.has_loop(2)


def test_attach_nc_edge_and_arc_carry_loops():
    G = _base().attach_edge(0, EdgeKind.NC_EDGE, (1, 2, Fraction(1, 3)))
    assert G.arc_weight(2, 0) == 1 and G.arc_weight(0, 2) == 2
    assert G.loop_weight(2) == Fraction(1, 3)

    H = _base().attach_edge(1, EdgeKind.NC_ARC, (4, -1), toward_new=False)
    assert H.arc_weight(2, 1) == 4 and H.arc_weight(1, 2) is None
    assert H.loop_weight(2) == -1


def _added(toward):
    """Per shape: the weights it takes and the arcs it adds at 0 of
    _base(), in insertion order (the order `trees` walks them in)."""
    there, back = (0, 2), (2, 0)
    arc = there if toward else back
    return {
        EdgeKind.SIMPLE_EDGE: ((3,), [(back, 3), (there, 3)]),
        EdgeKind.NC_TILDE_EDGE: ((3, 5), [(back, 3), (there, 5)]),
        EdgeKind.NC_TILDE_ARC: ((3,), [(arc, 3)]),
        EdgeKind.NC_EDGE: ((3, 5, 7), [(back, 3), (there, 5), ((2, 2), 7)]),
        EdgeKind.NC_ARC: ((3, 7), [(arc, 3), ((2, 2), 7)]),
    }


@pytest.mark.parametrize("toward", [True, False])
@pytest.mark.parametrize("kind", list(EdgeKind))
def test_attach_adds_its_arcs_in_order_and_takes_its_weight_count(kind, toward):
    weights, arcs = _added(toward)[kind]
    G = _base().attach_edge(0, kind, weights, toward_new=toward)
    assert list(G._arcs.items())[2:] == arcs
    for wrong in (weights[:-1], weights + (1,)):
        with pytest.raises(DimensionMismatch):
            _base().attach_edge(0, kind, wrong, toward_new=toward)


def test_attach_validates():
    with pytest.raises(VertexOutOfRange):
        _base().attach_edge(9, EdgeKind.SIMPLE_EDGE, (1,))
    with pytest.raises(DimensionMismatch):
        _base().attach_edge(0, EdgeKind.NC_TILDE_EDGE, (1,))
    with pytest.raises(ZeroWeight):
        _base().attach_edge(0, EdgeKind.SIMPLE_EDGE, (0,))


def test_with_loop_sets_and_clears():
    G = _base().with_loop(0, Fraction(5))
    assert G.loop_weight(0) == 5
    assert G.with_loop(0, 0).loop_weight(0) == 0
    assert G.with_loop(0, 0).arc_count == G.arc_count - 1


def test_connectivity_helpers():
    G = build(5, [(0, 1, 1), (1, 0, 1), (3, 4, 2)])
    assert not G.is_connected()
    assert G.connected_components() == [(0, 1), (2,), (3, 4)]
    assert sorted(G.underlying_edges()) == [(0, 1), (3, 4)]
