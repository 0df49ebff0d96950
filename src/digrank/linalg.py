"""Exact linear algebra over the rationals.

Dense matrices of `fractions.Fraction` entries.  Every exact elimination is
one fraction-free Bareiss loop on integers (each row is scaled by its
denominator lcm first, which changes neither rank nor pivot columns), so
arbitrarily large intermediate values stay exact.  Rank, row/column-space
membership with witness coefficients, and `schur_peel` -- what a bordering
row and column add to a matrix's rank -- are all read off that one loop.
`leaf_rank` takes sparse rows and maps each entry a/b straight to its
residue a * b^-1 modulo a small prime p; it needs no common denominator.
Such entries lie in Z_(p), the rationals whose denominator p does not
divide, and reduction mod p is a ring map from Z_(p) onto F_p, so a minor
that is nonzero mod p is nonzero over Q.  One elimination mod p, on rows
packed into one Python int each (one fixed-width field per column, so a row
update is one big-integer multiply-add), thus proves a lower bound on the
rank, which settles a matrix of full rank; it stops as soon as full rank is
out of reach and hands that matrix to Bareiss, as it does a matrix with a
denominator p divides.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalMismatch

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def vector(entries: Iterable) -> Vector:
    """Coerce an iterable of numbers/strings into a tuple of Fractions."""
    return tuple(_frac(e) for e in entries)


class RationalMatrix:
    """An immutable dense matrix of Fractions (rows × cols, either may be 0)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(_frac(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, got {width}")
        else:
            width = 0 if cols is None else cols
        self._data = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self._data)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def with_row_appended(self, v: Sequence) -> "RationalMatrix":
        v = vector(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"row of length {len(v)} vs {self.cols} columns")
        return RationalMatrix(list(self._data) + [v], cols=self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(
            [[self._data[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class RankResult:
    """Rank plus the (lexicographically first) independent column set."""

    rank: int
    pivot_columns: tuple[int, ...]


def _scaled_int_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    scale = 1
    for x in row:
        d = x.denominator
        if d != 1:
            scale = lcm(scale, d)
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _scaled_int_rows(M: RationalMatrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; rank-preserving."""
    return [_scaled_int_row(row)[0] for row in M._data]


def _bareiss(a: list[list[int]], prows: int, pcols: int) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free Bareiss (mutates `a`).

    Pivots come from the first `prows` rows and `pcols` columns only, but
    every row below a pivot is eliminated.  After r pivots (pivot k in row
    k), each entry j >= `pcols` of a row i >= r is the minor on the pivot
    rows plus row i and the pivot columns plus column j (Sylvester's
    identity); every other entry of such a row is zero exactly when the
    matching minor is.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    prev = 1
    pivots: list[int] = []
    for c in range(pcols):
        if r == prows:
            break
        p = -1
        for i in range(r, prows):
            if a[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            a[p], a[r] = a[r], a[p]
        row_r = a[r]
        piv = row_r[c]
        pivots.append(c)
        for i in range(r + 1, nrows):
            row_i = a[i]
            m = row_i[c]
            for j in range(c + 1, ncols):
                num = piv * row_i[j] - m * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalMismatch("Bareiss division must be exact")
                row_i[j] = q
            row_i[c] = 0
        prev = piv
        r += 1
    return pivots


# The largest prime below 2**15: a residue fits in 16 bits, and a product
# of two residues in 30.
_P = 32749

_BIG_ENDIAN = sys.byteorder == "big"


def _pack(residues: list[int], nb: int) -> bytearray:
    """Residues below 2**16 as little-endian nb-byte fields, in order."""
    h = array("H", residues)
    if _BIG_ENDIAN:
        h.byteswap()
    h = h.tobytes()
    buf = bytearray(len(residues) * nb)
    buf[0::nb] = h[0::2]
    buf[1::nb] = h[1::2]
    return buf


def _unpack(v: int, k: int, nb: int) -> array:
    """The k nb-byte fields of v (nb <= 8), the lowest first."""
    b = v.to_bytes(k * nb, "little")
    q = bytearray(8 * k)
    for t in range(nb):
        q[t::8] = b[t::nb]
    fields = array("Q", q)
    if _BIG_ENDIAN:
        fields.byteswap()
    return fields


def _rank_mod_p(a: list[list[int]]) -> int:
    """Rank modulo _P of a matrix of residues in [0, _P), or fewer once it
    cannot be full.

    It never exceeds the rank over Q: r pivots mod _P pick an r x r minor
    that is nonzero mod _P, hence nonzero over the integers.  It returns
    min(rows, cols) exactly when the rank mod _P is full; it stops, with
    the pivots found so far, as soon as more than cols - min(rows, cols)
    columns have no pivot.  `a` is not mutated.

    Each row is one int with one W-bit field per column, column 0 lowest,
    W = 32 + len(a).bit_length() rounded up to whole bytes (8 bytes while
    len(a) < 2**32).  Each step reads field 0 of every row mod _P, takes
    the first row nonzero there as pivot, reduces its other fields mod _P
    and scales them by the pivot's inverse, adds (_P - m) times that to
    every other row whose field 0 is m != 0, and shifts every row right
    by one field.  Fields start below _P and each addition is below
    _P**2 < 2**30; a row takes at most len(a) of them, so a field stays
    below 2**(30 + len(a).bit_length()) < 2**W: no carry ever crosses
    into the next field and no row needs reducing between steps.
    """
    p = _P
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    slack = ncols - min(nrows, ncols)
    nb = (32 + nrows.bit_length() + 7) // 8
    w = 8 * nb
    mask = (1 << w) - 1
    rb = ncols * nb
    flat = _pack([x for row in a for x in row], nb)
    rows = [int.from_bytes(flat[i * rb : (i + 1) * rb], "little") for i in range(nrows)]
    r = 0
    for k in range(ncols - 1, -1, -1):
        for i, row in enumerate(rows):
            if (row & mask) % p:
                break
        else:
            slack -= 1
            if slack < 0:
                return r
            rows = [row >> w for row in rows]
            continue
        piv = rows.pop(i)
        r += 1
        if not rows:
            break
        inv = pow((piv & mask) % p, -1, p)
        scaled = [x * inv % p for x in _unpack(piv >> w, k, nb)]
        tail = int.from_bytes(_pack(scaled, nb), "little")
        rows = [
            (row >> w) + (p - m) * tail if (m := (row & mask) % p) else row >> w
            for row in rows
        ]
    return r


def _residue_rows(rows: Sequence[dict], ncols: int) -> list[list[int]] | None:
    """Each entry a/b of the sparse rows as a * b^-1 mod _P, in dense rows;
    None when _P divides a denominator.  b^-1 is computed once per b."""
    p = _P
    inverse = {1: 1}
    out = []
    for row in rows:
        res = [0] * ncols
        for j, x in row.items():
            b = x.denominator
            inv = inverse.get(b)
            if inv is None:
                if b % p == 0:
                    return None
                inv = inverse[b] = pow(b, -1, p)
            res[j] = x.numerator * inv % p
        out.append(res)
    return out


def leaf_rank(rows: Sequence[dict], ncols: int) -> int:
    """Exact rank of a rational matrix with ncols columns, given as sparse
    rows {column: Fraction} (absent entries are zero).

    Every entry a/b whose denominator _P does not divide lies in Z_(p), and
    reduction mod _P is a ring map from Z_(p) onto F_p that takes each
    minor to the same minor of the residues.  So r pivots of one
    elimination on the residues a * b^-1 mod _P prove rank >= r, which is
    the rank when r = min(rows, cols).  Every other matrix goes to
    `_bareiss` on its rows scaled by their denominator lcm, as soon as the
    elimination has too many pivot-less columns for full rank, or at once
    when _P divides a denominator; so a prime that divides some minor costs
    time, never a wrong rank.
    """
    full = min(len(rows), ncols)
    residues = _residue_rows(rows, ncols)
    if residues is not None and _rank_mod_p(residues) == full:
        return full
    a = []
    for row in rows:
        dense = [_ZERO] * ncols
        for j, x in row.items():
            dense[j] = x
        a.append(_scaled_int_row(dense)[0])
    return int_rank(a)


def int_rank(a: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss (mutates `a`)."""
    return len(_bareiss(a, len(a), len(a[0]) if a else 0))


def rank(M: RationalMatrix) -> RankResult:
    """Exact rank with pivot columns, via integer Bareiss elimination."""
    pivots = _bareiss(_scaled_int_rows(M), M.rows, M.cols)
    return RankResult(len(pivots), tuple(pivots))


def in_column_space(v: Sequence, M: RationalMatrix) -> tuple[bool, Vector | None]:
    """Is v in the column space of M?  Returns (flag, witness d with M·d = v).

    Bareiss on [M | v] with pivots in M's columns: v is outside when a row
    past the rank keeps a nonzero v entry; otherwise back-substitution
    through the pivot rows, free variables 0, gives d.
    """
    v = vector(v)
    if len(v) != M.rows:
        raise DimensionMismatch(f"vector of length {len(v)} vs {M.rows} rows")
    a = [_scaled_int_row(M._data[i] + (v[i],))[0] for i in range(M.rows)]
    n = M.cols
    pivots = _bareiss(a, M.rows, n)
    r = len(pivots)
    if any(row[n] for row in a[r:]):
        return False, None
    d = [_ZERO] * n
    for k in range(r - 1, -1, -1):
        row = a[k]
        rhs = row[n] - sum((row[c] * d[c] for c in pivots[k + 1 :]), _ZERO)
        d[pivots[k]] = rhs / row[pivots[k]]
    return True, tuple(d)


def in_row_space(v: Sequence, M: RationalMatrix) -> tuple[bool, Vector | None]:
    """Is v in the row space of M?  Returns (flag, witness c with c·M = v)."""
    if len(v) != M.cols:
        raise DimensionMismatch(f"vector of length {len(v)} vs {M.cols} columns")
    return in_column_space(v, M.transpose())


@dataclass(frozen=True)
class SchurPeel:
    """What a border row x, column y and corner alpha add to B's rank."""

    rank: int  # r(B)
    x_in: bool  # x lies in B's row space
    y_in: bool  # y lies in B's column space
    residue: Fraction | None  # alpha - x.d with B d = y; None unless y_in
    delta: int  # r([[alpha, x], [y, B]]) - r(B): 2, 1 or 0


def schur_peel(alpha, x: Sequence, y: Sequence, B: RationalMatrix) -> SchurPeel:
    """Decide the border (alpha, x, y) of B: check the shapes, then
    `_peel_rows`, which callers holding Fraction rows call directly."""
    x, y = vector(x), vector(y)
    if len(x) != B.cols or len(y) != B.rows:
        raise DimensionMismatch(f"border {len(x)}, {len(y)} vs {B.rows}x{B.cols} B")
    return _peel_rows([B._data[i] + (y[i],) for i in range(B.rows)], x + (_frac(alpha),))


def _peel_rows(rows: Sequence[Sequence[Fraction]], last: Sequence[Fraction]) -> SchurPeel:
    """`schur_peel` on Fraction rows: rows are [B | y], last is [x, alpha].

    Each row is scaled to integers (the rows themselves are not touched)
    and `_bareiss` eliminates all of them with pivots in B only.  x lies in
    B's row space when the x row's B part ends up zero, y in its column
    space when the rows of B past its rank end up with zero y entries.  The
    x row's last entry is the pivot minor bordered by x and y (Sylvester's
    identity); over the last pivot and the x row's scale it is alpha - x.d,
    d the witness of `in_column_space(y, B)`.
    """
    n = len(last) - 1
    a = [_scaled_int_row(row)[0] for row in rows]
    border, scale = _scaled_int_row(last)
    a.append(border)
    pivots = _bareiss(a, len(rows), n)
    r = len(pivots)
    x_in = not any(border[:n])
    y_in = not any(row[n] for row in a[r:-1])
    residue = None
    if y_in:
        prev = a[r - 1][pivots[-1]] if r else 1
        residue = Fraction(border[n], prev * scale)
    delta = int(residue != 0) if x_in and y_in else 2 - x_in - y_in
    return SchurPeel(r, x_in, y_in, residue, delta)


def bordered(alpha, x: Sequence, y: Sequence, B: RationalMatrix) -> RationalMatrix:
    """The bordered matrix [[α, x], [y, B]].

    x is the new first row's tail (length = B.cols), y the new first
    column's tail (length = B.rows).
    """
    alpha = _frac(alpha)
    x = vector(x)
    y = vector(y)
    if len(x) != B.cols:
        raise DimensionMismatch(f"x of length {len(x)} vs {B.cols} columns")
    if len(y) != B.rows:
        raise DimensionMismatch(f"y of length {len(y)} vs {B.rows} rows")
    data = [(alpha,) + x]
    for i in range(B.rows):
        data.append((y[i],) + B._data[i])
    return RationalMatrix(data, cols=B.cols + 1)


def dot(u: Sequence, v: Sequence) -> Fraction:
    u = vector(u)
    v = vector(v)
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)
