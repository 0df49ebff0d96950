"""Rank, solving and membership over exact rationals.

The Bareiss elimination in ``digrank.linalg`` is cross-checked against a
naive fraction-based Gauss (``oracles.naive_rank``) and, on a subsample,
against sympy.  Frozen values below were computed with the naive oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digrank.classify import classify_bordered
from digrank.errors import DimensionMismatch
from digrank import linalg
from digrank.linalg import (
    RationalMatrix,
    bordered,
    dot,
    in_column_space,
    in_row_space,
    int_rank,
    leaf_rank,
    rank,
    schur_peel,
    vector,
)
from oracles import naive_rank, sympy_rank

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, ents=entries):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    data = [[draw(ents) for _ in range(c)] for _ in range(r)]
    return RationalMatrix(data, cols=c)


# -- frozen examples --------------------------------------------------------

FROZEN = [
    ([[1, 2], [2, 4]], 1),
    ([[1, 2], [3, 4]], 2),
    ([[0, 0], [0, 0]], 0),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], 1),
    ([[1, 1, 0], [1, 2, 1], [0, 1, 1]], 2),
    ([[2, 0, 1], [0, 3, 0], [1, 0, 2], [1, 3, 1]], 3),
    ([[1, -1, 0, 2], [2, -2, 0, 4], [0, 0, 1, 1]], 2),
]


@pytest.mark.parametrize("rows,expected", FROZEN)
def test_rank_frozen(rows, expected):
    assert rank(RationalMatrix(rows)).rank == expected
    assert naive_rank(rows) == expected


def test_empty_matrix_conventions():
    assert rank(RationalMatrix([], cols=0)).rank == 0
    assert rank(RationalMatrix([], cols=3)).rank == 0
    assert rank(RationalMatrix([[], []], cols=0)).rank == 0
    assert RationalMatrix([], cols=3).transpose().rows == 3


def test_identity_and_zeros():
    assert rank(RationalMatrix.identity(4)).rank == 4
    assert rank(RationalMatrix.zeros(3, 5)).rank == 0


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_naive_gauss(M):
    assert rank(M).rank == naive_rank(M.to_lists())


@given(matrices(max_rows=4, max_cols=4))
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(M):
    assert rank(M).rank == sympy_rank(M.to_lists())


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_invariant_under_transpose(M):
    assert rank(M).rank == rank(M.transpose()).rank


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_pivot_columns_carry_full_rank(M):
    res = rank(M)
    assert len(res.pivot_columns) == res.rank
    sub = M.submatrix(range(M.rows), res.pivot_columns)
    assert rank(sub).rank == res.rank


def test_int_rank_plain():
    assert int_rank([[2, 4], [1, 2]]) == 1
    assert int_rank([[2, 4], [1, 3]]) == 2
    assert int_rank([]) == 0


# -- membership and witnesses ------------------------------------------------


@given(matrices(max_rows=4, max_cols=4), st.lists(entries, min_size=0, max_size=4))
@settings(max_examples=200, deadline=None)
def test_row_membership_iff_rank_unchanged(M, raw):
    v = vector(raw[: M.cols] + [Fraction(0)] * (M.cols - len(raw)))
    member, witness = in_row_space(v, M)
    appended = rank(M.with_row_appended(v)).rank
    assert member == (appended == rank(M).rank)
    if member:
        # witness really combines the rows of M into v
        combo = [
            sum((witness[i] * M[(i, j)] for i in range(M.rows)), Fraction(0))
            for j in range(M.cols)
        ]
        assert tuple(combo) == v
    else:
        assert witness is None


@given(matrices(max_rows=4, max_cols=4), st.lists(entries, min_size=0, max_size=4))
@settings(max_examples=200, deadline=None)
def test_column_membership_iff_rank_unchanged(M, raw):
    v = vector(raw[: M.rows] + [Fraction(0)] * (M.rows - len(raw)))
    member, witness = in_column_space(v, M)
    grown = rank(M.transpose().with_row_appended(v)).rank
    assert member == (grown == rank(M).rank)
    if member:
        combo = [
            sum((M[(i, j)] * witness[j] for j in range(M.cols)), Fraction(0))
            for i in range(M.rows)
        ]
        assert tuple(combo) == v


def test_zero_vector_is_always_member():
    M = RationalMatrix([[1, 2], [3, 4], [5, 6]])
    assert in_row_space((0, 0), M)[0]
    assert in_column_space((0, 0, 0), M)[0]
    # even in the row space of a zero matrix
    assert in_row_space((0,), RationalMatrix.zeros(2, 1))[0]


def test_membership_dimension_errors():
    M = RationalMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        in_row_space((1, 2, 3), M)
    with pytest.raises(DimensionMismatch):
        in_column_space((1, 2), M)
    with pytest.raises(DimensionMismatch):
        M.with_row_appended((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        dot((1,), (1, 2))


# -- bordering ---------------------------------------------------------------


@given(matrices(max_rows=3, max_cols=3))
@settings(max_examples=150, deadline=None)
def test_appending_a_row_changes_rank_by_at_most_one(M):
    rng = random.Random(17)
    v = vector([Fraction(rng.randint(-2, 2)) for _ in range(M.cols)])
    delta = rank(M.with_row_appended(v)).rank - rank(M).rank
    assert delta in (0, 1)


@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            entries,
            st.lists(entries, min_size=k, max_size=k),
            st.lists(entries, min_size=k, max_size=k),
            matrices(max_rows=0, max_cols=0).map(lambda _: k),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_bordered_rank_delta_at_most_two(args):
    alpha, x, y, k = args
    rng = random.Random(str((alpha, tuple(x), tuple(y))))
    B = RationalMatrix([[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)])
    M = bordered(alpha, x, y, B)
    assert M.rows == M.cols == k + 1
    assert M[(0, 0)] == alpha
    delta = rank(M).rank - rank(B).rank
    assert 0 <= delta <= 2


def test_bordered_layout():
    B = RationalMatrix([[5, 6], [7, 8]])
    M = bordered(1, (2, 3), (4, 9), B)
    assert M.to_lists() == [
        [1, 2, 3],
        [4, 5, 6],
        [9, 7, 8],
    ]
    with pytest.raises(DimensionMismatch):
        bordered(1, (2,), (4, 9), B)


# -- the Schur peel ----------------------------------------------------------


@st.composite
def borders(draw):
    """(alpha, x, y, B) with B of any shape, 0 x k and k x 0 included; x and
    y are often combinations of B's rows and columns so memberships hold."""
    B = draw(matrices())
    coeffs = st.lists(entries, min_size=B.rows, max_size=B.rows)
    if draw(st.booleans()):
        c = draw(coeffs)
        x = [dot(c, B.column(j)) for j in range(B.cols)]
    else:
        x = draw(st.lists(entries, min_size=B.cols, max_size=B.cols))
    if draw(st.booleans()):
        d = draw(st.lists(entries, min_size=B.cols, max_size=B.cols))
        y = [dot(B.row(i), d) for i in range(B.rows)]
    else:
        y = draw(coeffs)
    return draw(entries), x, y, B


@given(borders())
@settings(max_examples=400, deadline=None)
def test_schur_peel_matches_memberships_ranks_and_residue(border):
    alpha, x, y, B = border
    peel = schur_peel(alpha, x, y, B)
    cls = classify_bordered(alpha, x, y, B)
    assert peel.rank == rank(B).rank
    assert (peel.x_in, peel.y_in) == cls.memberships[:2]
    assert peel.delta == cls.delta
    assert peel.delta == rank(bordered(alpha, x, y, B)).rank - rank(B).rank
    y_in, d = in_column_space(y, B)
    if y_in:
        assert peel.residue == alpha - dot(x, d)
    else:
        assert peel.residue is None


def test_schur_peel_dimension_errors():
    B = RationalMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        schur_peel(0, (1,), (1,), B)
    with pytest.raises(DimensionMismatch):
        schur_peel(0, (1, 2), (1, 2), B)


# -- the leaf rank: full rank proved mod p, Bareiss for the rest --------------

P = linalg._P

# multiples of P, and denominators of P, make minors vanish mod P only
mod_p_entries = st.one_of(
    entries, st.sampled_from([P, -P, 2 * P, P + 1, Fraction(1, P), Fraction(P, 2)])
)


@given(matrices(ents=mod_p_entries))
@settings(max_examples=400, deadline=None)
def test_leaf_rank_matches_rank(M):
    assert leaf_rank(M.to_lists()) == rank(M).rank


def _counting_bareiss(monkeypatch):
    calls = []
    real = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda *a: calls.append(1) or real(*a))
    return calls


FALLBACK = [
    ([[P]], 1),
    ([[P, 0], [0, 1]], 2),
    ([[1, 1], [1, P + 1]], 2),  # determinant P
    ([[1, Fraction(1, P)], [0, 1]], 2),  # first row scales to (P, 1)
    ([[Fraction(1, P), 1], [1, 0]], 2),  # first row scales to (1, P)
]


@pytest.mark.parametrize("rows, expected", FALLBACK)
def test_leaf_rank_falls_back_when_p_divides_a_minor(monkeypatch, rows, expected):
    assert naive_rank(rows) == expected
    calls = _counting_bareiss(monkeypatch)
    assert leaf_rank(rows) == expected
    assert calls == [1]


def test_leaf_rank_of_full_rank_needs_no_bareiss(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    assert leaf_rank([[1, 2], [3, 4]]) == 2
    assert leaf_rank([[1, 2, Fraction(1, 3)]]) == 1
    assert leaf_rank([[2], [Fraction(1, 2)]]) == 1
    assert leaf_rank([]) == 0 and leaf_rank([[], []]) == 0
    assert calls == []
