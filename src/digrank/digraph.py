"""Weighted digraphs with exact rational arc weights.

Vertices are 0..n-1.  An arc (u, v) carries a nonzero Fraction weight; a
loop is an arc (v, v) and supplies the diagonal entry of the adjacency
matrix.  A missing loop means a zero diagonal entry.  Graph values are
immutable -- every "mutator" returns a fresh graph -- so they can be hashed,
compared and shared freely.

The plain-text interchange format::

    digraph <n>
    a <u> <v> <weight>      # weight is  -?d+  or  -?d+/d+ , never 0
    # comments and blank lines are ignored

`parse_digraph` rejects malformed input with ParseError (carrying a line
number); `format_digraph` emits a canonical, byte-deterministic form
(header, then arcs sorted by (u, v), weights in lowest terms).
"""

from __future__ import annotations

import math
import operator
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    DigraphError,
    DimensionMismatch,
    DuplicateArc,
    InvalidSpec,
    ParseError,
    VertexOutOfRange,
    ZeroWeight,
)
from .linalg import RationalMatrix, Vector, rank


class EdgeKind(Enum):
    """The five single-vertex attachment shapes.

    A new vertex u is joined to an existing vertex v by:

    - SIMPLE_EDGE: arcs u->v and v->u of one common weight, no loop at u
    - NC_TILDE_EDGE: arcs u->v and v->u with independent weights, no loop
    - NC_TILDE_ARC: one arc (either direction), no loop at u
    - NC_EDGE: arcs both ways with independent weights, plus a loop at u
    - NC_ARC: one arc (either direction), plus a loop at u

    `_SHAPE_ARCS` lists the arcs each shape adds, in the order `_attach`
    inserts them (`WeightedDigraph.attach_edge` is its one-attachment
    case), as (end, index of the weight it takes): "out" is u->v, "in" is
    v->u, "loop" is u->u, and "arc" is v->u or u->v as `toward_new` picks.
    A shape takes one more weight than its largest index (`_weight_count`).
    """

    SIMPLE_EDGE = "simple-edge"
    NC_TILDE_EDGE = "nc-tilde-edge"
    NC_TILDE_ARC = "nc-tilde-arc"
    NC_EDGE = "nc-edge"
    NC_ARC = "nc-arc"


_SHAPE_ARCS: dict[EdgeKind, tuple[tuple[str, int], ...]] = {
    EdgeKind.SIMPLE_EDGE: (("out", 0), ("in", 0)),
    EdgeKind.NC_TILDE_EDGE: (("out", 0), ("in", 1)),
    EdgeKind.NC_TILDE_ARC: (("arc", 0),),
    EdgeKind.NC_EDGE: (("out", 0), ("in", 1), ("loop", 2)),
    EdgeKind.NC_ARC: (("arc", 0), ("loop", 1)),
}


def _weight_count(kind: EdgeKind) -> int:
    """The number of weights the attachment shape kind takes."""
    return 1 + max(i for _, i in _SHAPE_ARCS[kind])


class WeightedDigraph:
    """A digraph on {0..n-1} with nonzero rational weights on its arcs."""

    __slots__ = ("n", "_arcs")

    def __init__(self, n: int, arcs: dict[tuple[int, int], Fraction]):
        # Unchecked: outside input goes through build() or another caller
        # of _grow, which validate; the parser and the generators write a
        # store they have checked.
        self.n = n
        self._arcs = arcs

    # -- construction -------------------------------------------------

    @property
    def arc_count(self) -> int:
        return len(self._arcs)

    def arcs(self) -> Iterator[tuple[int, int, Fraction]]:
        """All arcs as (u, v, weight), sorted by (u, v)."""
        for (u, v) in sorted(self._arcs):
            yield u, v, self._arcs[(u, v)]

    def out_rows(self) -> list[dict[int, Fraction]]:
        """Fresh per-vertex dicts: out_rows()[u][v] is the weight of arc
        u -> v, loops included."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for (u, v), w in self._arcs.items():
            rows[u][v] = w
        return rows

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arcs

    def arc_weight(self, u: int, v: int) -> Fraction | None:
        return self._arcs.get((u, v))

    def loop_weight(self, v: int) -> Fraction:
        """Diagonal entry at v (0 when no loop is present)."""
        return self._arcs.get((v, v), Fraction(0))

    def has_loop(self, v: int) -> bool:
        return (v, v) in self._arcs

    # -- matrices and slices -------------------------------------------

    def adjacency_matrix(self) -> RationalMatrix:
        zero = Fraction(0)
        rows = [[zero] * self.n for _ in range(self.n)]
        for (u, v), w in self._arcs.items():
            rows[u][v] = w
        return RationalMatrix(rows, cols=self.n)

    def out_vector(self, v: int, targets: Sequence[int]) -> Vector:
        """Weights of arcs v -> t for t in targets (0 where absent)."""
        zero = Fraction(0)
        return tuple(self._arcs.get((v, t), zero) for t in targets)

    def in_vector(self, v: int, sources: Sequence[int]) -> Vector:
        """Weights of arcs s -> v for s in sources (0 where absent)."""
        zero = Fraction(0)
        return tuple(self._arcs.get((s, v), zero) for s in sources)

    # -- derived graphs -------------------------------------------------

    def induced_with_labels(self, S: Iterable[int]) -> tuple["WeightedDigraph", tuple[int, ...]]:
        """Induced subdigraph on S; labels[i] is the original id of new vertex i.

        Vertices of the result are 0..|S|-1 in increasing order of original id.
        """
        keep = sorted({_id(v, self.n) for v in _iter(S, VertexOutOfRange)})
        pos = {v: i for i, v in enumerate(keep)}
        arcs = {
            (pos[u], pos[v]): w
            for (u, v), w in self._arcs.items()
            if u in pos and v in pos
        }
        return WeightedDigraph(len(keep), arcs), tuple(keep)

    def induced_subdigraph(self, S: Iterable[int]) -> "WeightedDigraph":
        return self.induced_with_labels(S)[0]

    def delete_vertices(self, S: Iterable[int]) -> "WeightedDigraph":
        drop = {_id(v, self.n) for v in _iter(S, VertexOutOfRange)}
        return self.induced_subdigraph(v for v in range(self.n) if v not in drop)

    def with_loop(self, v: int, weight) -> "WeightedDigraph":
        """Copy with the loop at v set to `weight` (removed when weight == 0)."""
        v, w = _id(v, self.n), _weight(weight, None)  # a zero weight removes the loop
        arcs = dict(self._arcs)
        if w:
            arcs[v, v] = w
        else:
            arcs.pop((v, v), None)
        return WeightedDigraph(self.n, arcs)

    def attach_edge(
        self,
        at: int,
        kind: EdgeKind,
        weights: Sequence,
        toward_new: bool = True,
    ) -> "WeightedDigraph":
        """Attach a fresh vertex u = n to `at` by one of the five shapes.

        `weights` supplies, in order, the weights the shape consumes:

        - SIMPLE_EDGE: (w,) used for both arcs
        - NC_TILDE_EDGE: (w_uv, w_vu) for u->at and at->u
        - NC_TILDE_ARC: (w,) for the single arc; `toward_new` picks at->u
        - NC_EDGE: (w_uv, w_vu, loop)
        - NC_ARC: (w, loop); `toward_new` picks at->u
        """
        return _attach(self, [(at, kind, weights, toward_new)])

    # -- underlying simple graph ----------------------------------------

    def underlying_adjacency(self) -> list[set[int]]:
        """Neighbour sets of the underlying simple graph (loops dropped)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, v) in self._arcs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def underlying_edges(self) -> set[tuple[int, int]]:
        """Edges {u, v} of the underlying simple graph as sorted pairs."""
        return {(min(u, v), max(u, v)) for (u, v) in self._arcs if u != v}

    def connected_components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the underlying graph's components, sorted."""
        adj = self.underlying_adjacency()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        stack.append(y)
            comps.append(tuple(sorted(comp)))
        comps.sort()
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- misc -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self.n == other.n
            and self._arcs == other._arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._arcs.items())))

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, arcs={self.arc_count})"


def oracle_rank(G: WeightedDigraph) -> int:
    """Rank of the adjacency matrix by dense exact elimination."""
    return rank(G.adjacency_matrix()).rank


def _attach(G: WeightedDigraph, attachments: Iterable[tuple]) -> WeightedDigraph:
    """G with one fresh vertex per (at, kind, weights, toward_new), in order,
    as `attach_edge` would attach them one at a time: the i-th gets id
    G.n + i and may attach to any vertex before it.  Each shape's arcs go
    to `_grow` in `_SHAPE_ARCS` order, which reads their weights, so the
    arc order is that of the one-at-a-time chain too."""
    arcs, n = [], G.n
    for at, kind, weights, toward_new in attachments:
        at, kind, ws = _id(at, n), _kind(kind), tuple(_iter(weights))
        need = _weight_count(kind)
        if len(ws) != need:
            raise DimensionMismatch(f"{kind.value} takes {need} weights, got {len(ws)}")
        ends = {"out": (n, at), "in": (at, n), "loop": (n, n)}
        ends["arc"] = ends["in"] if toward_new else ends["out"]
        arcs += [(*ends[end], ws[i]) for end, i in _SHAPE_ARCS[kind]]
        n += 1
    return _grow(G, n - G.n, arcs)


def _id(i, n: float, error: type[DigraphError] = VertexOutOfRange, least: int = 0) -> int:
    """A vertex id (or block index) as `operator.index` reads it, so True
    is 1 and 2.0 or "3" is refused, and no store holds a float or a bool
    key; `error` unless least <= i < n."""
    try:
        k = operator.index(i)
    except TypeError:
        raise error(f"{i!r} is not an integer") from None
    if not least <= k < n:
        raise error(f"{k} not in {least}..{n - 1}")
    return k


def _count(n, least: int = 0, error: type[DigraphError] = VertexOutOfRange) -> int:
    """A count of vertices: `_id` with no upper end."""
    return _id(n, math.inf, error, least)


def _iter(xs, error: type[DigraphError] = InvalidSpec) -> Iterator:
    """iter(xs) for a container a caller passed; `error` when xs is not
    iterable."""
    try:
        return iter(xs)
    except TypeError:
        raise error(f"{xs!r} is not iterable") from None


def _kind(kind) -> EdgeKind:
    """An attachment shape: InvalidSpec for anything but an EdgeKind, its
    value string included."""
    if not isinstance(kind, EdgeKind):
        raise InvalidSpec(f"{kind!r} is not an EdgeKind")
    return kind


def _weight(w, zero: type[DigraphError] | None = ZeroWeight) -> Fraction:
    """An arc weight as a Fraction: InvalidSpec when Fraction cannot read it
    ("x", None, NaN, inf), and `zero` when it is 0 unless zero is None."""
    if type(w) is not Fraction:
        try:
            w = Fraction(w)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
            raise InvalidSpec(f"weight {w!r} is not a rational number: {e}") from None
    if zero is not None and not w:
        raise zero("weights must be nonzero")
    return w


def _grow(G: WeightedDigraph, k: int, arcs: Iterable[tuple]) -> WeightedDigraph:
    """G with k fresh vertices G.n..G.n+k-1 and the arcs of `arcs`, the one
    writer of a digraph built from another.  G's store is copied once and
    each (u, v, weight) triple is read once, by `_id` and `_weight` against
    the new order: DuplicateArc for an arc G or an earlier triple has, and
    InvalidSpec when arcs is not an iterable of triples."""
    n, store = G.n + k, dict(G._arcs)
    for t in _iter(arcs):
        try:
            u, v, w = t
        except (TypeError, ValueError):
            raise InvalidSpec(f"arc {t!r} is not a (u, v, weight) triple") from None
        u, v, w = _id(u, n), _id(v, n), _weight(w)
        if (u, v) in store:
            raise DuplicateArc(f"arc ({u}, {v}) given twice")
        store[u, v] = w
    return WeightedDigraph(n, store)


def build(n: int, arcs: Iterable[tuple]) -> WeightedDigraph:
    """The validating constructor for a caller's graph: `_grow` of the empty
    digraph by n vertices, n read by `_count`.  A non-integer or negative n
    and an endpoint outside 0..n-1 raise VertexOutOfRange, a weight
    Fraction cannot read InvalidSpec, a zero weight ZeroWeight, a second arc
    (u, v) DuplicateArc, and arcs that are not an iterable of (u, v, weight)
    triples InvalidSpec.  The parser and the generators check what they
    read and write the store directly.
    """
    return _grow(WeightedDigraph(0, {}), _count(n), arcs)


_INT_RE = re.compile(r"-?[0-9]+")
_WEIGHT_RE = re.compile(r"^-?\d+(/\d+)?$", re.ASCII)


def _parse_int(tok: str) -> int:
    """The integer an ASCII token -?[0-9]+ spells; ValueError for any other
    token, such as '+3', '1_0' or non-ASCII digits, which int() accepts."""
    if not _INT_RE.fullmatch(tok):
        raise ValueError(tok)
    return int(tok)


def parse_digraph(text: str) -> WeightedDigraph:
    """Parse the plain-text digraph format; ParseError carries a line number."""
    n: int | None = None
    store: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "digraph":
                raise ParseError("expected header 'digraph <n>'", lineno)
            try:
                n = _parse_int(fields[1])
            except ValueError:
                raise ParseError(f"vertex count {fields[1]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError(f"vertex count {n} is negative", lineno)
            continue
        if fields[0] != "a" or len(fields) != 4:
            raise ParseError("expected arc line 'a <u> <v> <weight>'", lineno)
        try:
            u = _parse_int(fields[1])
            v = _parse_int(fields[2])
        except ValueError:
            raise ParseError("arc endpoints must be integers", lineno)
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"arc ({u}, {v}) outside 0..{n - 1}", lineno)
        tok = fields[3]
        if not _WEIGHT_RE.match(tok):
            raise ParseError(f"malformed weight {tok!r}", lineno)
        try:
            w = Fraction(tok)
        except ZeroDivisionError:
            raise ParseError(f"weight {tok!r} has zero denominator", lineno)
        if w == 0:
            raise ParseError(f"arc ({u}, {v}) has zero weight", lineno)
        if (u, v) in store:
            raise ParseError(f"duplicate arc ({u}, {v})", lineno)
        store[u, v] = w
    if n is None:
        raise ParseError("missing header 'digraph <n>'")
    return WeightedDigraph(n, store)


def format_digraph(G: WeightedDigraph) -> str:
    """Canonical text form: header, then arcs sorted by (u, v)."""
    lines = [f"digraph {G.n}"]
    for u, v, w in G.arcs():
        lines.append(f"a {u} {v} {w}")
    return "\n".join(lines) + "\n"
