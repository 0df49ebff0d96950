"""Exact linear algebra over the rationals.

Dense matrices of `fractions.Fraction` entries.  Rank is computed by
fraction-free Bareiss elimination on integers (rows are scaled by their
denominator lcm first, which changes neither rank nor pivot columns), so
arbitrarily large intermediate values stay exact.  Row/column-space
membership tests solve the defining linear system and hand back witness
coefficients.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

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

    def with_row_prepended(self, v: Sequence) -> "RationalMatrix":
        v = vector(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"row of length {len(v)} vs {self.cols} columns")
        return RationalMatrix([v] + list(self._data), cols=self.cols)

    def with_column_prepended(self, v: Sequence) -> "RationalMatrix":
        v = vector(v)
        if len(v) != self.rows:
            raise DimensionMismatch(f"column of length {len(v)} vs {self.rows} rows")
        return RationalMatrix(
            [(v[i],) + self._data[i] for i in range(self.rows)], cols=self.cols + 1
        )

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


def _scaled_int_rows(M: RationalMatrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; rank-preserving."""
    out = []
    for row in M._data:
        scale = 1
        for x in row:
            d = x.denominator
            if d != 1:
                scale = lcm(scale, d)
        if scale == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([int(x * scale) for x in row])
    return out


def _bareiss(a: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free Bareiss (mutates `a`)."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    prev = 1
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        p = -1
        for i in range(r, nrows):
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


def int_rank(a: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss (mutates `a`)."""
    return len(_bareiss(a))


def rank(M: RationalMatrix) -> RankResult:
    """Exact rank with pivot columns, via integer Bareiss elimination."""
    pivots = _bareiss(_scaled_int_rows(M))
    return RankResult(len(pivots), tuple(pivots))


def _solve(A: list[list[Fraction]], b: list[Fraction], unknowns: int) -> Vector | None:
    """One exact solution of A x = b (free variables 0), or None if inconsistent.

    A has len(b) rows and `unknowns` columns.  Plain fraction-ful
    Gauss-Jordan; this is the witness-producing path, not the rank oracle.
    """
    m = len(A)
    aug = [list(A[i]) + [b[i]] for i in range(m)]
    piv_cols: list[tuple[int, int]] = []  # (column, row)
    r = 0
    for c in range(unknowns):
        if r == m:
            break
        p = -1
        for i in range(r, m):
            if aug[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            aug[p], aug[r] = aug[r], aug[p]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [xi - f * xr for xi, xr in zip(aug[i], aug[r])]
        piv_cols.append((c, r))
        r += 1
    for i in range(r, m):
        if aug[i][unknowns]:
            return None
    x = [_ZERO] * unknowns
    for c, row in piv_cols:
        x[c] = aug[row][unknowns]
    return tuple(x)


def in_row_space(v: Sequence, M: RationalMatrix) -> tuple[bool, Vector | None]:
    """Is v in the row space of M?  Returns (flag, witness c with c·M = v)."""
    v = vector(v)
    if len(v) != M.cols:
        raise DimensionMismatch(f"vector of length {len(v)} vs {M.cols} columns")
    # Solve Mᵀ c = v; one equation per column of M, one unknown per row.
    A = [[M._data[i][j] for i in range(M.rows)] for j in range(M.cols)]
    sol = _solve(A, list(v), M.rows)
    return (sol is not None), sol


def in_column_space(v: Sequence, M: RationalMatrix) -> tuple[bool, Vector | None]:
    """Is v in the column space of M?  Returns (flag, witness d with M·d = v)."""
    v = vector(v)
    if len(v) != M.rows:
        raise DimensionMismatch(f"vector of length {len(v)} vs {M.rows} rows")
    A = [list(M._data[i]) for i in range(M.rows)]
    sol = _solve(A, list(v), M.cols)
    return (sol is not None), sol


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
