"""Rank, solving and membership over exact rationals.

The Bareiss elimination in ``digrank.linalg`` is cross-checked against a
naive fraction-based Gauss (``oracles.naive_rank``) and, on a subsample,
against sympy.  Frozen values below were computed with the naive oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from oracles import naive_rank, rank_mod_p_reference, sympy_rank

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, ents=entries):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    data = [[draw(ents) for _ in range(c)] for _ in range(r)]
    return RationalMatrix(data, cols=c)


def with_row(M, v):
    """M with the row v appended below it."""
    return RationalMatrix(M.to_lists() + [list(v)], cols=M.cols)


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
    assert rank(RationalMatrix([[int(i == j) for j in range(4)] for i in range(4)])).rank == 4
    assert rank(RationalMatrix([[0] * 5 for _ in range(3)])).rank == 0


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
    sub = RationalMatrix(
        [[M[(i, j)] for j in res.pivot_columns] for i in range(M.rows)],
        cols=len(res.pivot_columns),
    )
    assert rank(sub).rank == res.rank


def test_int_rank_plain():
    assert int_rank([[2, 4], [1, 2]]) == 1
    assert int_rank([[2, 4], [1, 3]]) == 2
    assert int_rank([]) == 0


# -- the engine's Bareiss loop against the oracle's ----------------------------


@st.composite
def kernel_inputs(draw):
    """An integer matrix, with some columns made zero, and pivot bounds at
    or below its dimensions.  Entries 1 and -1 make unit pivots common,
    so the skipped divisions and the real ones both run."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    ints = st.sampled_from([0, 0, 0, 1, 1, -1, 2, -3, 5, 7, 2**40 + 1])
    a = [[draw(ints) for _ in range(ncols)] for _ in range(nrows)]
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in a:
            if j < ncols:
                row[j] = 0
    return a, draw(st.integers(0, nrows)), draw(st.integers(0, ncols))


@given(kernel_inputs())
@example(([[1, 1, 1], [1, 2, 3], [1, 3, 6]], 3, 3))  # unit pivots throughout
@example(([[2, 1, 1], [4, 3, 3], [6, 5, 8]], 3, 3))  # a pivot 2, then divisions
@example(([[0, 1, 2], [0, 3, 4], [0, 5, 7]], 2, 3))  # a zero column, a row below prows
@example(([[1, 2], [2, 4], [3, 7]], 3, 1))  # pcols below the columns
@example(([], 0, 0))
@settings(max_examples=400, deadline=None)
def test_engine_bareiss_is_the_oracle_bareiss(case):
    """`_engine_bareiss` returns the pivots `_bareiss` returns and leaves
    the matrix `_bareiss` leaves, whatever the pivots and bounds."""
    a, prows, pcols = case
    b = [row[:] for row in a]
    assert linalg._engine_bareiss(b, prows, pcols) == linalg._bareiss(a, prows, pcols)
    assert b == a


# -- membership and witnesses ------------------------------------------------


@given(matrices(max_rows=4, max_cols=4), st.lists(entries, min_size=0, max_size=4))
@settings(max_examples=200, deadline=None)
def test_row_membership_iff_rank_unchanged(M, raw):
    v = vector(raw[: M.cols] + [Fraction(0)] * (M.cols - len(raw)))
    member, witness = in_row_space(v, M)
    appended = rank(with_row(M, v)).rank
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
    grown = rank(with_row(M.transpose(), v)).rank
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
    assert in_row_space((0,), RationalMatrix([[0], [0]]))[0]


def test_membership_dimension_errors():
    M = RationalMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        in_row_space((1, 2, 3), M)
    with pytest.raises(DimensionMismatch):
        in_column_space((1, 2), M)
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1, 2], [1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        dot((1,), (1, 2))


# -- bordering ---------------------------------------------------------------


@given(matrices(max_rows=3, max_cols=3))
@settings(max_examples=150, deadline=None)
def test_appending_a_row_changes_rank_by_at_most_one(M):
    rng = random.Random(17)
    v = vector([Fraction(rng.randint(-2, 2)) for _ in range(M.cols)])
    delta = rank(with_row(M, v)).rank - rank(M).rank
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
        x = [dot(c, column) for column in B.transpose().to_lists()]
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
    entries,
    st.sampled_from(
        [P, -P, 2 * P, P + 1, Fraction(1, P), Fraction(P, 2), Fraction(5, 2 * P)]
    ),
)


def sparse(rows):
    """Dense rows as leaf_rank's arguments: the {(i, j): Fraction} dict,
    zeros kept as explicit entries, and the shape."""
    ncols = len(rows[0]) if rows else 0
    entries = {(i, j): Fraction(x) for i, row in enumerate(rows) for j, x in enumerate(row)}
    return entries, len(rows), ncols


@st.composite
def sparse_matrices(draw):
    """A matrix of any shape, 0 x k and k x 0 included, and its entry
    dict, each zero entry left out or kept."""
    M = draw(matrices(ents=mod_p_entries))
    entries = {
        (i, j): x
        for i, row in enumerate(M.to_lists())
        for j, x in enumerate(row)
        if x or draw(st.booleans())
    }
    return M, entries


def _counting_engine_bareiss(monkeypatch):
    """A list that gets one entry per call of `leaf_rank`'s fallback."""
    calls = []
    real = linalg._engine_bareiss
    monkeypatch.setattr(linalg, "_engine_bareiss", lambda *a: calls.append(1) or real(*a))
    return calls


def arc_case(M):
    """M with its nonzero entries as an entry dict, as a digraph's arc
    dict holds them."""
    return M, {(i, j): M[i, j] for i in range(M.rows) for j in range(M.cols) if M[i, j]}


@given(sparse_matrices())
@example((RationalMatrix([[0, 0], [0, 0]]), {(0, 0): Fraction(0)}))
@example((RationalMatrix([[], []], cols=0), {}))
@example((RationalMatrix([], cols=3), {}))
@example(
    (RationalMatrix([[Fraction(1, P), 0], [0, 1]]), {(0, 0): Fraction(1, P), (1, 1): Fraction(1)})
)
@example(
    (RationalMatrix([[0, Fraction(5, 2 * P)]]), {(0, 0): Fraction(0), (0, 1): Fraction(5, 2 * P)})
)
@example(
    (
        RationalMatrix([[Fraction(-(2**70), 3), Fraction(P + 1)], [Fraction(-P - 1, 7), 1]]),
        {
            (0, 0): Fraction(-(2**70), 3),
            (0, 1): Fraction(P + 1),
            (1, 0): Fraction(-P - 1, 7),
            (1, 1): Fraction(1),
        },
    )
)
@example(
    (
        RationalMatrix([[Fraction(-P - 1, 7), Fraction(-(2**70), 3)], [Fraction(-2 * P - 2, 7), 0]]),
        {
            (0, 0): Fraction(-P - 1, 7),
            (0, 1): Fraction(-(2**70), 3),
            (1, 0): Fraction(-2 * P - 2, 7),
        },
    )
)
@example(arc_case(RationalMatrix([[Fraction(1, P), 1], [1, 0]])))
@example(arc_case(RationalMatrix([[1, 1], [1, P + 1]])))
@example(arc_case(RationalMatrix([[-P - 1, 0], [0, Fraction(P, 2)]])))
@example(arc_case(RationalMatrix([], cols=0)))
@settings(max_examples=400, deadline=None)
def test_leaf_rank_matches_rank(case):
    """Exact on an entry dict of any shape; Bareiss runs at most once, and
    exactly once when the rank is not full or P divides a denominator."""
    M, entries = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_engine_bareiss(mp)
        got = leaf_rank(entries, M.rows, M.cols)
    expected = rank(M).rank
    assert got == expected
    assert len(calls) <= 1
    if expected < min(M.rows, M.cols) or any(x.denominator % P == 0 for x in entries.values()):
        assert calls == [1]


FALLBACK = [
    ([[P]], 1),
    ([[P, 0], [0, 1]], 2),
    ([[1, 1], [1, P + 1]], 2),  # determinant P
    ([[1, Fraction(1, P)], [0, 1]], 2),  # denominator P: no residue mod P
    ([[Fraction(1, P), 1], [1, 0]], 2),  # the same, in the first entry
]


@pytest.mark.parametrize("rows, expected", FALLBACK)
def test_leaf_rank_falls_back_when_p_divides_a_minor(monkeypatch, rows, expected):
    assert naive_rank(rows) == expected
    calls = _counting_engine_bareiss(monkeypatch)
    assert leaf_rank(*sparse(rows)) == expected
    assert calls == [1]


def test_leaf_rank_of_full_rank_needs_no_bareiss(monkeypatch):
    calls = _counting_engine_bareiss(monkeypatch)
    assert leaf_rank(*sparse([[1, 2], [3, 4]])) == 2
    assert leaf_rank(*sparse([[1, 2, Fraction(1, 3)]])) == 1
    assert leaf_rank(*sparse([[2], [Fraction(1, 2)]])) == 1
    assert leaf_rank(*sparse([])) == 0 and leaf_rank(*sparse([[], []])) == 0
    assert calls == []


@given(
    st.dictionaries(
        st.integers(0, 12),
        st.fractions(max_denominator=12) | st.sampled_from([Fraction(0), Fraction(5, 32749)]),
    ),
    st.lists(st.integers(0, 15), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_int_row_is_the_scaled_dense_row(out, labels):
    """The weight-store row reader: absent labels are 0, stored zeros stay
    0, and the scale is the lcm of the denominators it reads."""
    assert linalg._int_row(out, labels) == linalg._scaled_int_row(
        [out.get(t, Fraction(0)) for t in labels]
    )


# -- the packed mod-p kernel against the list-of-lists reference --------------

# 0, multiples of P and residues -1 / 1 by large and negative representatives;
# the kernel takes residues, so each matrix is reduced mod P before the check
residue_entries = st.one_of(
    st.sampled_from([0, 1, -1, P, -P, P - 1, -P - 1, 2 * P + 1]),
    st.integers(-(2**200), -(2**64)),
    st.integers(-3, 3),
)


@st.composite
def int_matrices(draw, max_rows=8, max_cols=8):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    return [[draw(residue_entries) for _ in range(c)] for _ in range(r)]


def check_against_reference(a):
    """The packed kernel finds full rank exactly when the reference does;
    when it does not, it may stop early, with no more pivots than that."""
    full = min(len(a), len(a[0]) if a else 0)
    got, ref = linalg._rank_mod_p(a), rank_mod_p_reference(a, P)
    assert (got == full) == (ref == full)
    assert got <= ref


@given(int_matrices())
@example([])
@example([[], [], []])
@example([[P - 1]])
@example([[1, -P, 2 * P + 1, -(2**70)]])
@example([[-1], [P], [-(2**70)]])
@settings(max_examples=600, deadline=None)
def test_packed_mod_p_kernel_matches_reference(a):
    a = [[x % P for x in row] for row in a]
    before = [row[:] for row in a]
    check_against_reference(a)
    assert a == before


def residue_sweep():
    """100 seeded residue matrices of order 16-60: full-rank square
    ones, dense and sparse; ones with duplicated rows (copies and multiples
    mod P); and rectangular ones with up to 5 rows or columns to spare."""
    rng = random.Random("mod-p-sweep")
    out = []
    for i in range(100):
        n = rng.randint(16, 60)
        rows, cols = n, n
        if i % 4 == 3:
            rows, cols = (n, n + rng.randint(1, 5)) if i % 8 == 3 else (n + rng.randint(1, 5), n)
        density = rng.choice((0.1, 0.3, 1.0))
        a = [
            [rng.choice((rng.randrange(P), 1, P - 1)) if rng.random() < density else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if i % 4 == 2:
            for _ in range(rng.randint(1, 4)):
                src, dst = rng.sample(range(rows), 2)
                m = rng.choice((1, P - 1, rng.randrange(1, P)))
                a[dst] = [x * m % P for x in a[src]]
        out.append(a)
    return out


def test_packed_mod_p_kernel_matches_reference_on_large_matrices():
    """Hypothesis draws at most 8 x 8; these run the folded pivot rows over
    many more steps.  Full rank is found exactly when the reference finds
    it, and a deficient matrix never gets more pivots than it has."""
    full = deficient = 0
    for a in residue_sweep():
        check_against_reference(a)
        if rank_mod_p_reference(a, P) == min(len(a), len(a[0])):
            full += 1
        else:
            deficient += 1
    assert full >= 50 and deficient >= 20


def test_fold_constant_is_two_to_the_15_minus_p():
    """The fold relies on 2**15 = P + 19: a new prime needs a new constant."""
    assert linalg._FOLD == 2**15 - P


# The field widths at 1, 255, 256 and 1025 rows: 32 + rows.bit_length()
# bits rounded up to whole bytes.
@pytest.mark.parametrize("rows, w", [(1, 40), (255, 40), (256, 48), (1025, 48)])
def test_fold_brings_every_field_below_2_16_and_keeps_its_residue(rows, w):
    """Fields of any value below 2**w, all 2**w - 1 among them, come out of
    the pivot row's folds below 2**16 and congruent mod P; times the
    largest inverse, P - 1, two more folds take them below 2**16 again.
    No fold carries into the next field."""
    assert (32 + rows.bit_length() + 7) // 8 * 8 == w
    k = 9
    hi, lo, folds = linalg._fold_masks(w, k)
    rng = random.Random(f"fold:{rows}")
    cases = [[(1 << w) - 1] * k, [0] * k]
    cases += [[rng.randrange(1 << rng.randint(1, w)) for _ in range(k)] for _ in range(300)]

    def fields(x):
        assert x >> (w * k) == 0
        return [(x >> (w * i)) & ((1 << w) - 1) for i in range(k)]

    for case in cases:
        x = sum(f << (w * i) for i, f in enumerate(case))
        once = fields(linalg._fold(x, hi, lo, folds))
        assert all(g < 2**16 and (g - f) % P == 0 for f, g in zip(case, once))
        y = sum(f * (P - 1) << (w * i) for i, f in enumerate(once))
        twice = fields(linalg._fold(y, hi, lo, 2))
        assert all(g < 2**16 and (g - f * (P - 1)) % P == 0 for f, g in zip(once, twice))


def inverse_heavy(n):
    """Rows of L * U mod P for L unit lower triangular with -1 below the
    diagonal and U upper triangular with -1 on and above it, in n - 1 rows
    of n columns, then the sum of the last two as row n: rank n - 1.  Every
    pivot is -1 and so is every other field of its row, so the pivot's
    inverse is P - 1, its folded fields times that come near 2**30, and
    every multiplier is 1 or 2."""
    a = [[(i - 1) % P if j >= i else (j + 1) % P for j in range(n)] for i in range(n - 1)]
    a.append([(x + y) % P for x, y in zip(a[-1], a[-2])])
    return a


def test_every_fold_of_the_kernel_ends_below_2_16(monkeypatch):
    """Each `_fold` call `_rank_mod_p` makes, on the pivot row before and
    after the multiply by its inverse, returns fields all below 2**16."""
    real, results = linalg._fold, []

    def checked(x, hi, lo, folds):
        y = real(x, hi, lo, folds)
        results.append(y & ~(lo // 0x7FFF * 0xFFFF) == 0)
        return y

    monkeypatch.setattr(linalg, "_fold", checked)
    for n in (16, 60, 255, 256):
        assert linalg._rank_mod_p(inverse_heavy(n)) == n - 1
    assert rank_mod_p_reference(inverse_heavy(60), P) == 59
    for a in residue_sweep()[:20]:
        linalg._rank_mod_p(a)
    assert len(results) > 1000 and all(results)


def worst_carry(rows, cols):
    """Row i holds 1 - j in columns j <= i and -1 - i after, in all columns
    but the last, which repeats column 0 (all ones); the last row is the
    sum of the two before it.  At every step the pivot is the next row,
    every other row but the last has residue 1 under it, so it takes the
    largest multiplier, P - 1, and each of its fields grows by P - 1 times
    the pivot's folded field, which is below 2**16 (P - 1 itself here, so
    the growth is (P - 1)**2).  For rows >= cols the rank is cols - 1: a
    carry into a higher field turns into a pivot the last column or the
    last row should not have."""
    a = [
        [(1 - j) % P if j <= i else (-1 - i) % P for j in range(cols - 1)] + [1]
        for i in range(rows)
    ]
    a[-1] = [(x + y) % P for x, y in zip(a[-2], a[-3])]
    return a


# Fields are 32 + rows.bit_length() bits rounded up to bytes: 5 bytes for
# 255 rows, 6 from 256 rows on (1025 rows: 43 bits).  Each addition is
# below P * 2**16 < 2**31.  The square case gives a row one addition per
# column but the last.
@pytest.mark.parametrize(
    "rows, cols", [(255, 24), (256, 24), (1025, 24), (2000, 24), (160, 160)]
)
def test_packed_mod_p_kernel_has_no_carry(rows, cols):
    a = worst_carry(rows, cols)
    assert linalg._rank_mod_p(a) == rank_mod_p_reference(a, P) == cols - 1


def test_packed_mod_p_fields_widen_past_1024_additions():
    """In the 1030 x 1030 case, column 1028 of the last row takes 1028
    additions of (P - 1)**2, past 2**40 in all, so 5-byte fields would
    carry.  The reference would take minutes here; the rank 1029 holds by
    construction (worst_carry, checked against the reference above)."""
    assert linalg._rank_mod_p(worst_carry(1030, 1030)) == 1029


def test_mod_p_pass_stops_once_full_rank_is_out_of_reach():
    zero_first = [[0] + [1 if i == j else 0 for j in range(19)] for i in range(20)]
    # square: one pivot-less column is one too many, so no pivot is tried
    assert linalg._rank_mod_p(zero_first) == 0
    assert rank_mod_p_reference(zero_first, P) == 19
    # 3 x 4: one column may go without a pivot, a second may not
    assert linalg._rank_mod_p([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 3
    assert linalg._rank_mod_p([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]]) == 0


def test_rank_deficient_leaf_gets_its_exact_rank_from_bareiss(monkeypatch):
    rng = random.Random(3)
    rows = [[rng.choice([0, 1, -1, 2, Fraction(1, 2)]) for _ in range(24)] for _ in range(24)]
    rows[5] = [2 * x for x in rows[0]]
    expected = naive_rank(rows)
    assert expected < 24
    calls = _counting_engine_bareiss(monkeypatch)
    assert leaf_rank(*sparse(rows)) == expected
    assert calls == [1]


def test_a_declared_width_must_match_the_rows():
    assert RationalMatrix([[1, 2]], cols=2).cols == 2
    assert RationalMatrix([], cols=3).cols == 3
    for k in (0, 1, 3):
        with pytest.raises(DimensionMismatch, match=f"expected {k} columns, got 2"):
            RationalMatrix([[1, 2], [3, 4]], cols=k)


def test_bordered_rejects_a_y_of_the_wrong_length():
    B = RationalMatrix([[5, 6], [7, 8]])
    for y in ((4,), (4, 9, 1)):
        with pytest.raises(DimensionMismatch, match="rows"):
            bordered(1, (2, 3), y, B)


def test_equal_matrices_compare_and_hash_equal():
    A = RationalMatrix([[1, 2], [3, 4]])
    same = RationalMatrix([(Fraction(2, 2), Fraction(4, 2)), [3, 4]], cols=2)
    assert A == same and hash(A) == hash(same)
    assert RationalMatrix([], cols=2) == RationalMatrix([], cols=2)
    for other in (
        RationalMatrix([[1, 2], [3, 5]]),
        RationalMatrix([[1, 2]]),
        A.transpose(),
        [[1, 2], [3, 4]],
    ):
        assert A != other
    assert RationalMatrix([], cols=2) != RationalMatrix([], cols=3)
