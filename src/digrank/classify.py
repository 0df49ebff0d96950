"""Cut-vertex classification via the bordered-matrix trichotomy.

Adding one vertex v to a digraph H\\v changes the adjacency rank by 0, 1
or 2.  Writing the adjacency of H with v first,

    M = [[alpha, x], [y, B]]

where alpha is v's loop weight, x the out-weights of v into H\\v, y the
in-weights, and B = A(H\\v), the increment is decided by four membership
tests:

    m1 = x in rowspace(B)
    m2 = y in colspace(B)
    m3 = [alpha, x] in rowspace([y B])
    m4 = [alpha; y] in colspace([x; B])

CASE I (+2) iff not m1 and not m2; CASE II (+0) iff m3 and m4; CASE III
(+1) otherwise.  `classify_cut` applies this to a cut-vertex v of G with a
chosen side H, and independently verifies the answer against the actual
rank difference r(H) - r(H\\v), raising InconsistentClassification if the
two routes ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .digraph import WeightedDigraph, _id, _iter
from .errors import InconsistentClassification, InvalidSplit
from .linalg import (
    RationalMatrix,
    _scaled_int_rows,
    bordered,
    int_rank,
    rank,
)


class CutVertexCase(Enum):
    """The three possible rank increments when a border vertex is added."""

    RANK_PLUS_2 = (2, "I")
    RANK_PLUS_0 = (0, "II")
    RANK_PLUS_1 = (1, "III")

    @property
    def delta(self) -> int:
        return self.value[0]

    @property
    def label(self) -> str:
        return self.value[1]


_BY_DELTA = {c.delta: c for c in CutVertexCase}


@dataclass(frozen=True)
class Classification:
    """Case plus the four membership bits (m1, m2, m3, m4) that decide it."""

    case: CutVertexCase
    memberships: tuple[bool, bool, bool, bool]

    @property
    def delta(self) -> int:
        return self.case.delta

    @property
    def label(self) -> str:
        return self.case.label


def classify_bordered(alpha, x, y, B: RationalMatrix) -> Classification:
    """Classify the bordered matrix [[alpha, x], [y, B]] by memberships only.

    Appending a vector to a matrix leaves the rank unchanged exactly when
    the vector already lies in the corresponding space, so each membership
    is a rank comparison — and the two augmented matrices of m3/m4 are row
    and column permutations of M itself:

        m1 = r([B; x]) == r(B)        m3 = r(M) == r([y | B])
        m2 = r([B | y]) == r(B)       m4 = r(M) == r([x; B])

    Four integer Bareiss eliminations on the scaled rows of M; no witness
    extraction (callers needing coefficients use in_row_space directly).
    """
    M = bordered(alpha, x, y, B)  # validates the dimensions
    a = _scaled_int_rows(M)
    rB = int_rank([row[1:] for row in a[1:]])
    r1 = int_rank([row[1:] for row in a])
    r2 = int_rank([row[:] for row in a[1:]])
    rM = int_rank([row[:] for row in a])
    m1, m2 = r1 == rB, r2 == rB
    m3, m4 = rM == r2, rM == r1
    if not m1 and not m2:
        case = CutVertexCase.RANK_PLUS_2
    elif m3 and m4:
        case = CutVertexCase.RANK_PLUS_0
    else:
        case = CutVertexCase.RANK_PLUS_1
    return Classification(case, (m1, m2, m3, m4))


@dataclass(frozen=True)
class CutSplit:
    """A cut-vertex v of G together with one side H of the separation.

    H must contain v, and no arc may join H \\ {v} to the rest of the graph
    in either direction (v is the only door).  H = V(G) is allowed: the
    classification then compares r(G) with r(G - v).
    """

    v: int
    side: frozenset[int]


def make_split(G: WeightedDigraph, v: int, side: Iterable[int]) -> CutSplit:
    """Validated CutSplit; raises InvalidSplit when H leaks around v."""
    v = _id(v, G.n, InvalidSplit)
    side_set = frozenset(_id(u, G.n, InvalidSplit) for u in _iter(side, InvalidSplit))
    if v not in side_set:
        raise InvalidSplit(f"vertex {v} not in its own side")
    inner = side_set - {v}
    for (a, b) in G.underlying_edges():
        if (a in inner) != (b in inner) and v not in (a, b):
            raise InvalidSplit(f"edge ({a}, {b}) crosses the split away from {v}")
    return CutSplit(v, side_set)


def side_components(G: WeightedDigraph, v: int) -> list[frozenset[int]]:
    """All sides {v} + C for C a component of G - v, sorted by vertex list.

    For a cut-vertex these are the minimal valid splits at v.
    """
    v = _id(v, G.n)
    rest = [u for u in range(G.n) if u != v]
    H, labels = G.induced_with_labels(rest)
    sides = []
    for comp in H.connected_components():
        sides.append(frozenset(labels[i] for i in comp) | {v})
    sides.sort(key=lambda s: tuple(sorted(s)))
    return sides


def classify_cut(G: WeightedDigraph, split: CutSplit) -> Classification:
    """Classify v with respect to its side H, double-checked both routes."""
    return _classify_cut(G, split)[0]


def _classify_cut(G: WeightedDigraph, split: CutSplit) -> tuple[Classification, int]:
    """`classify_cut`, and r(H - v) as its literal route ranked it."""
    split = make_split(G, split.v, split.side)  # revalidate defensively
    v = split.v
    rest = sorted(split.side - {v})
    B = G.induced_subdigraph(rest).adjacency_matrix()
    alpha = G.loop_weight(v)
    x = G.out_vector(v, rest)
    y = G.in_vector(v, rest)
    cls = classify_bordered(alpha, x, y, B)

    # Independent route: the literal rank difference r(H) - r(H \ v).
    H = G.induced_subdigraph(split.side)
    r_inner = rank(B).rank
    delta = rank(H.adjacency_matrix()).rank - r_inner
    expected = _BY_DELTA.get(delta)
    if expected is not cls.case:
        raise InconsistentClassification(
            f"membership route says case {cls.label} but rank difference is {delta} "
            f"(v={v}, side={sorted(split.side)})"
        )
    return cls, r_inner
