"""Exact linear algebra over the rationals.

Dense matrices of `fractions.Fraction` entries.  Every exact elimination is
a fraction-free Bareiss loop on integers (each row is scaled by its
denominator lcm first, which changes neither rank nor pivot columns), so
arbitrarily large intermediate values stay exact.  There are two such
loops with one contract.  `_bareiss` is the oracle's: `rank`, `int_rank`
and row/column-space membership with witness coefficients are read off
it, and through `rank` so is `digraph.oracle_rank`.  `_engine_bareiss` is
the engine's: `schur_peel` -- what a bordering row and column add to a
matrix's rank -- and `leaf_rank`'s fallback are read off it.  It skips the
division by the previous pivot while that pivot is 1, which the
unit-weight families make common.  Two loops keep the oracle apart from
the engine it checks: a fault in one cannot hide in both, and a change to
the engine's loop cannot move the oracle's timings.  (The engine's leaves
of order 2 to 15, other than 2 x 2, still go to `rank`.)

`leaf_rank` takes a matrix as a {(i, j): Fraction} dict (a digraph's
arc dict for a graph the engine ranks whole, or a leaf the engine cuts
from its weight store) and maps each entry a/b to a * b^-1 modulo a small
prime p, in one pass over the dict.  Such entries lie in Z_(p), the
rationals whose denominator p does not divide, and reduction mod p is a
ring map from Z_(p) onto F_p, so a minor nonzero mod p is nonzero over Q.
One elimination mod p, on rows packed into one Python int each (one field
per column: a row update is one big-integer multiply-add, and the pivot
row is reduced by folding all its fields at once), thus proves a lower
bound on the rank, which settles a full-rank matrix; it stops once full
rank is out of reach and hands that matrix to Bareiss, as it does one
with a denominator p divides.  No floating point.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, NamedTuple, Sequence

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

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
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
    ratios = [x.as_integer_ratio() for x in row]
    scale = 1
    for _, d in ratios:
        if d != 1:
            scale = lcm(scale, d)
    if scale == 1:
        return [n for n, _ in ratios], 1
    return [n * (scale // d) for n, d in ratios], scale


def _int_row(out: dict, labels: Sequence) -> tuple[list[int], int]:
    """`_scaled_int_row` of [out.get(t, 0) for t in labels], in one pass of
    one lookup and one `as_integer_ratio()` per entry.  The lcm is taken
    only over denominators other than 1, and only the entries with such a
    denominator are divided again, so a row of integers is its numerators
    as they stand."""
    nums: list[int] = []
    fracs: list[tuple[int, int]] = []
    scale = 1
    for t in labels:
        x = out.get(t)
        if x is None:
            nums.append(0)
        else:
            n, d = x.as_integer_ratio()
            if d != 1:
                scale = lcm(scale, d)
                fracs.append((len(nums), d))
            nums.append(n)
    if scale == 1:
        return nums, 1
    nums = [n * scale for n in nums]
    for j, d in fracs:
        nums[j] //= d
    return nums, scale


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


def _engine_bareiss(a: list[list[int]], prows: int, pcols: int) -> list[int]:
    """`_bareiss` for the engine's peels and leaves: the same pivots and
    the same final matrix, but no division while the previous pivot is 1.

    Bareiss divides each update piv * a[i][j] - m * a[r][j] by the
    previous pivot, which is 1 at the first pivot and after every unit
    pivot; there the update is taken as it stands, and a row with m = 0 is
    only multiplied by piv (or left alone when piv is 1).  Every other
    division keeps its exactness check.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    prev = 1
    pivots: list[int] = []
    for c in range(pcols):
        if r == prows:
            break
        for p in range(r, prows):
            if a[p][c]:
                break
        else:
            continue
        if p != r:
            a[p], a[r] = a[r], a[p]
        row_r = a[r]
        piv = row_r[c]
        pivots.append(c)
        tail = range(c + 1, ncols)
        for i in range(r + 1, nrows):
            row_i = a[i]
            m = row_i[c]
            if prev != 1:
                for j in tail:
                    q, rem = divmod(piv * row_i[j] - m * row_r[j], prev)
                    if rem:
                        raise InternalMismatch("Bareiss division must be exact")
                    row_i[j] = q
                row_i[c] = 0
            elif m:
                for j in tail:
                    row_i[j] = piv * row_i[j] - m * row_r[j]
                row_i[c] = 0
            elif piv != 1:
                for j in tail:
                    row_i[j] *= piv
        prev = piv
        r += 1
    return pivots


# The largest prime below 2**15.  2**15 = _P + _FOLD, so a field f of a
# packed row is (f >> 15) * _FOLD + (f & 0x7FFF) mod _P (`_fold`).
_P = 32749
_FOLD = 19


def _fold_masks(w: int, k: int) -> tuple[int, int, int]:
    """(hi, lo, folds) for k fields of w bits: the low w - 15 and the low 15
    bits of every field, and how many folds take fields below 2**w to
    fields below 2**16."""
    ones = ((1 << w * k) - 1) // ((1 << w) - 1)
    bound, folds = (1 << w) - 1, 0
    while bound >> 16:
        bound = (bound >> 15) * _FOLD + 0x7FFF
        folds += 1
    return ones * ((1 << w - 15) - 1), ones * 0x7FFF, folds


def _fold(x: int, hi: int, lo: int, folds: int) -> int:
    """x with each field f replaced `folds` times by (f >> 15) * _FOLD +
    (f & 0x7FFF), which keeps f mod _P and never carries."""
    for _ in range(folds):
        x = ((x >> 15) & hi) * _FOLD + (x & lo)
    return x


def _rank_mod_p(a: list[list[int]]) -> int:
    """Rank modulo _P of a matrix of residues in [0, _P), or fewer once it
    cannot be full.

    It never exceeds the rank over Q: r pivots mod _P pick an r x r minor
    that is nonzero mod _P, hence nonzero over the integers.  It returns
    min(rows, cols) exactly when the rank mod _P is full; it stops, with
    the pivots found so far, as soon as more than cols - min(rows, cols)
    columns have no pivot.  `a` is not mutated.

    Each row is one int with one w-bit field per column, column 0 lowest,
    w = 32 + len(a).bit_length() rounded up to whole bytes.  Each step
    takes the first row whose field 0 is nonzero mod _P as pivot, folds
    the rest of it in place (`_fold`) until every field is below 2**16,
    multiplies that by the pivot's inverse and folds twice more (from
    below 2**16 * _P < 2**31 back below 2**16), adds (_P - m) times it to
    every other row whose field 0 is m != 0 mod _P, and shifts every row
    right by one field.  Fields start below _P and each addition is below
    _P * 2**16 < 2**31; a row takes fewer than len(a) of them, so a field
    stays below 2**(31 + len(a).bit_length()) < 2**w: no carry ever
    crosses into the next field and no row needs reducing between steps.
    """
    p = _P
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    slack = ncols - min(nrows, ncols)
    nb = (32 + nrows.bit_length() + 7) // 8
    w = 8 * nb
    mask = (1 << w) - 1
    hi, lo, folds = _fold_masks(w, ncols)
    # each residue's two little-endian bytes open its nb-byte field
    h = struct.pack(f"<{nrows * ncols}H", *chain.from_iterable(a))
    flat = bytearray(nrows * ncols * nb)
    flat[0::nb], flat[1::nb] = h[0::2], h[1::2]
    rb = ncols * nb
    rows = [int.from_bytes(flat[i * rb : (i + 1) * rb], "little") for i in range(nrows)]
    r = 0
    for _ in range(ncols):
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
        tail = _fold(_fold(piv >> w, hi, lo, folds) * inv, hi, lo, 2)
        rows = [
            (row >> w) + (p - m) * tail if (m := (row & mask) % p) else row >> w
            for row in rows
        ]
    return r


def leaf_rank(entries: dict, nrows: int, ncols: int) -> int:
    """Exact rank of the nrows x ncols rational matrix with entry (i, j)
    entries[(i, j)], absent entries zero: a digraph's arc dict, or a leaf
    the engine reads from its weight store.

    Every entry a/b whose denominator _P does not divide lies in Z_(p), and
    reduction mod _P is a ring map from Z_(p) onto F_p that takes each
    minor to the same minor of the residues a * b^-1 mod _P, read here in
    one pass over the entries (an integer a goes in as a mod _P, with no
    inverse lookup and no multiply).  So r pivots of one elimination on
    them (`_rank_mod_p`: packed rows, each pivot row folded in place so an
    update adds below _P * 2**16 to a field) prove rank >= r, which is the
    rank when r = min(nrows, ncols).  Every other matrix goes to
    `_engine_bareiss` on rows built from the entries and scaled by their
    denominator lcm (`_int_row`), as soon as the elimination has too many
    pivot-less columns for full rank, or at once when _P divides a
    denominator; so a prime that divides some minor costs time, never a
    wrong rank.  No matrix is eliminated mod _P twice.
    """
    p = _P
    res = [[0] * ncols for _ in range(nrows)]
    inverse = {}
    for (i, j), x in entries.items():
        a, b = x.as_integer_ratio()
        if b == 1:
            res[i][j] = a % p
            continue
        inv = inverse.get(b)
        if inv is None:
            if b % p == 0:
                break  # no residue: straight to Bareiss
            inv = inverse[b] = pow(b, -1, p)
        res[i][j] = a * inv % p
    else:
        full = min(nrows, ncols)
        if _rank_mod_p(res) == full:
            return full
    rows: list[dict] = [{} for _ in range(nrows)]
    for (i, j), x in entries.items():
        rows[i][j] = x
    cols = range(ncols)
    return len(_engine_bareiss([_int_row(row, cols)[0] for row in rows], nrows, ncols))


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


class SchurPeel(NamedTuple):
    """What a border row x, column y and corner alpha add to B's rank."""

    rank: int  # r(B)
    x_in: bool  # x lies in B's row space
    y_in: bool  # y lies in B's column space
    residue: Fraction | None  # alpha - x.d with B d = y; None unless y_in
    delta: int  # r([[alpha, x], [y, B]]) - r(B): 2, 1 or 0


def schur_peel(alpha, x: Sequence, y: Sequence, B: RationalMatrix) -> SchurPeel:
    """Decide the border (alpha, x, y) of B: check the shapes, scale each
    row of [B | y] and [x, alpha] to integers and hand them to `_peel_rows`."""
    x, y = vector(x), vector(y)
    if len(x) != B.cols or len(y) != B.rows:
        raise DimensionMismatch(f"border {len(x)}, {len(y)} vs {B.rows}x{B.cols} B")
    a = [_scaled_int_row(B._data[i] + (y[i],))[0] for i in range(B.rows)]
    return _peel_rows(a, *_scaled_int_row(x + (_frac(alpha),)))


def _peel_rows(a: list[list[int]], border: list[int], scale: int) -> SchurPeel:
    """`schur_peel` on integer rows: a holds the rows of [B | y], each
    times any nonzero factor, and border is [x, alpha] times scale.

    `_engine_bareiss` eliminates all of them, border appended to a, with
    pivots in B only.  x lies in B's row space when the border's B part
    ends up zero, y in its column space when the rows of B past its rank
    end up with zero y entries.  The border's last entry is the pivot minor
    bordered by x and y (Sylvester's identity); over the last pivot and
    scale it is alpha - x.d, d the witness of `in_column_space(y, B)`, so
    it is zero exactly when the residue is, which is then the shared
    Fraction(0).
    """
    n = len(border) - 1
    a.append(border)
    pivots = _engine_bareiss(a, len(a) - 1, n)
    r = len(pivots)
    x_in = not any(border[:n])
    if any(row[n] for row in a[r:-1]):
        return SchurPeel(r, x_in, False, None, 2 - x_in)
    prev = a[r - 1][pivots[-1]] if r else 1
    delta = int(border[n] != 0) if x_in else 1
    residue = Fraction(border[n], prev * scale) if border[n] else _ZERO
    return SchurPeel(r, x_in, True, residue, delta)


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
