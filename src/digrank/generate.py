"""Seeded generators for the digraph families used by the verifier.

Everything is driven by `random.Random(seed)` plus the family name, so a
GenSpec pins the output byte-for-byte (the text serialization of the result
is deterministic).  Each generator re-validates its own output against the
matching recognizer predicate and raises InternalMismatch if it ever breaks
its own promise - that is a bug canary, not an expected failure.

The generators do not go through `build`; they check what they make in
three places instead.  Each entry point (`gen`, `random_digraph`,
`extend_to_r2`) reads its order, block sizes and weight pool once, where
they enter, with `build`'s readers (`digraph._count`, `_weight`), and
rejects a bad one, sizes of the wrong shape, an empty pool and a
`random_digraph` arc probability outside [0, 1] before anything is drawn.
Each generator then writes its own `{(u, v): weight}` store, whose
endpoints are vertices it made; where an edge list or the block growth
could write an arc twice, it compares the store's size with the writes it
counted, so a rewrite raises InternalMismatch instead of overwriting the
arc.  Last, `_require` runs the family's recogniser on the finished graph.

Every generator runs in time linear in its output, give or take a sorted
insertion.  The block-graph families grow one block at a time in `_Growth`,
which keeps its attachment options as two sorted lists (the cut-vertices,
then the non-cut vertices whose group can still spare one) updated as each
block is added, so a draw reads them without a scan.  Leaves hung on an
existing graph (the r2-tree's plain leaves and extras, `extend_to_r2`) are
collected first and attached with one copy of the arcs (`_attach`), in the
order and with the arc order that attaching them one at a time gives.

Every per-arc and per-vertex draw (the Pruefer sequence, the arc and loop
weights, the hung leaves' weights) goes through `_picks`, which draws an
entry of a sequence as CPython 3.11's `Random.choice` does: the first
`rng.getrandbits(k)` below its length, k the length's bit length.  It runs
one Python frame per draw instead of two and consumes the same stream, so
every graph and arc order is the one `rng.choice` gives.  One-off draws,
per graph or per block, call `rng.choice`, `randrange` or `randint`.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable, Sequence

from .blocks import decompose
from .digraph import EdgeKind, WeightedDigraph, _attach, _count, _weight, _weight_count
from .engine import _r2_block, is_r2_digraph
from .errors import InternalMismatch, InvalidSpec, ZeroWeight
from .theorems import _complete_blocks, is_r0_biblock_graph, is_r2_biblock_graph, is_r2_block_graph
from .trees import TreeKind, classify_tree, is_r2_tree_digraph

DEFAULT_POOL: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
)
_ONE = Fraction(1)

FAMILIES = (
    "loopless-biarc-tree",
    "cutloop-biarc-tree",
    "r2-tree",
    "block-graph",
    "biblock-graph",
    "r2-block-graph",
    "r2-biblock-graph",
    "random-digraph",
    "r2-extension",
)


@dataclass(frozen=True)
class GenSpec:
    """Everything a generator needs; same spec, same digraph, always."""

    family: str
    n: int = 8
    seed: int = 0
    weight_pool: tuple[Fraction, ...] = DEFAULT_POOL
    sizes: tuple | None = None
    base: WeightedDigraph | None = None


def gen(spec: GenSpec) -> WeightedDigraph:
    if spec.family not in FAMILIES:
        raise InvalidSpec(f"unknown family {spec.family!r}")
    n = spec.n if spec.family == "r2-extension" else _count(spec.n, 1, InvalidSpec)
    pool = _read_pool(spec.weight_pool)
    rng = random.Random(f"{spec.family}:{n}:{spec.seed}")
    if spec.family == "loopless-biarc-tree":
        G = _biarc_tree(n, rng, pool)
        _require(classify_tree(G) is TreeKind.LOOPLESS_BI_ARC, spec)
    elif spec.family == "cutloop-biarc-tree":
        G = _cutloop_tree(n, rng, pool)
        kind = classify_tree(G)
        _require(
            kind in (TreeKind.CUT_LOOP_BI_ARC, TreeKind.LOOPLESS_BI_ARC), spec
        )
    elif spec.family == "r2-tree":
        G = _r2_tree(n, rng, pool)
        _require(is_r2_tree_digraph(G), spec)
    elif spec.family == "block-graph":
        G = _block_graph(n, rng, spec.sizes, min_size=2, managed=False)
        _require(_complete_blocks(G) is not None, spec)
    elif spec.family == "r2-block-graph":
        G = _block_graph(n, rng, spec.sizes, min_size=3, managed=True)
        _require(is_r2_block_graph(G), spec)
    elif spec.family == "biblock-graph":
        G = _biblock_graph(n, rng, spec.sizes, pendants=False)
        _require(is_r0_biblock_graph(G), spec)
    elif spec.family == "r2-biblock-graph":
        G = _biblock_graph(n, rng, spec.sizes, pendants=True)
        _require(is_r2_biblock_graph(G), spec)
    elif spec.family == "random-digraph":
        G = random_digraph(n, rng, pool)
    else:  # r2-extension
        if spec.base is None:
            raise InvalidSpec("r2-extension needs a base digraph")
        G = _extend_to_r2(spec.base, spec.seed, pool)
        _require(is_r2_digraph(G), spec)
    return G


def _read_pool(weights: Sequence, zero: type[Exception] = InvalidSpec) -> tuple[Fraction, ...]:
    """The weight pool as a tuple of Fractions, each entry read once where
    it enters by `_weight`: an unreadable entry raises InvalidSpec and a
    zero entry `zero`, and an empty pool InvalidSpec, before any draw."""
    if not isinstance(weights, Iterable):
        raise InvalidSpec(f"weight pool {weights!r} is not a sequence")
    pool = tuple(_weight(w, zero) for w in weights)
    if not pool:
        raise InvalidSpec("weight pool must be nonempty")
    return pool


def _picks(rng: random.Random, seq: Sequence):
    """A function that draws `seq[r]`, r the first `rng.getrandbits(k)` below n = len(seq) > 0,
    k = n.bit_length(): `rng.choice(seq)`'s and `randrange(n)`'s draw, in one frame."""
    n = len(seq)
    k, bits = n.bit_length(), rng.getrandbits

    def pick():
        r = bits(k)
        while r >= n:
            r = bits(k)
        return seq[r]

    return pick


def _require(ok: bool, spec: GenSpec) -> None:
    if not ok:
        raise InternalMismatch(
            f"generator for {spec.family!r} produced a non-member (seed {spec.seed})"
        )


# -- trees ---------------------------------------------------------------


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on 0..n-1 via a Pruefer sequence."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    pick = _picks(rng, range(n))
    seq = [pick() for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[leaf] -= 1
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _biarc_arcs(edges, rng, pool) -> dict[tuple[int, int], Fraction]:
    """The arc store of both arcs of every edge, in edge order, with the
    weights drawn from pool; InternalMismatch if an arc is written twice."""
    pick = _picks(rng, pool)
    store = {}
    for (u, v) in edges:
        store[u, v] = pick()
        store[v, u] = pick()
    if len(store) != 2 * len(edges):
        raise InternalMismatch("the tree's edges write an arc twice")
    return store


def _biarc_tree(n: int, rng: random.Random, pool) -> WeightedDigraph:
    return WeightedDigraph(n, _biarc_arcs(_prufer_tree(n, rng), rng, pool))


def _internal_vertices(n: int, edges) -> set[int]:
    deg = [0] * n
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    return {v for v in range(n) if deg[v] >= 2}


def _cutloop_tree(n: int, rng: random.Random, pool) -> WeightedDigraph:
    edges = _prufer_tree(n, rng)
    store = _biarc_arcs(edges, rng, pool)
    internal = sorted(_internal_vertices(n, edges))
    looped = [v for v in internal if rng.random() < 0.6]
    if internal and not looped:
        looped = [rng.choice(internal)]
    pick = _picks(rng, pool)
    for v in looped:  # distinct vertices, and no edge is a loop
        store[v, v] = pick()
    return WeightedDigraph(n, store)


def _r2_tree(n, rng, pool) -> WeightedDigraph:
    G = _cutloop_tree(n, rng, pool)
    adj = G.underlying_adjacency()
    internal = [v for v in range(G.n) if len(adj[v]) >= 2]
    # Every cut-vertex needs a plain leaf: loop-free, joined both ways.
    # The leaves attached here touch no arc among G's vertices, so every
    # test reads G itself, and all attachments go on in one copy.
    leaves, pick = [], _picks(rng, pool)
    for c in internal:
        plain = any(
            len(adj[u]) == 1 and not G.has_loop(u) and G.has_arc(c, u) and G.has_arc(u, c)
            for u in adj[c]
        )
        if not plain:
            leaves.append((c, EdgeKind.NC_TILDE_EDGE, (pick(), pick()), True))
    kinds = (EdgeKind.NC_TILDE_ARC, EdgeKind.NC_ARC, EdgeKind.NC_EDGE)
    for _ in range(rng.randint(1, 3) if internal else 0):
        at = rng.choice(internal)
        kind = rng.choice(kinds)
        ws = tuple(rng.choice(pool) for _ in range(_weight_count(kind)))
        leaves.append((at, kind, ws, rng.random() < 0.5))
    return _attach(G, leaves)


# -- random digraphs ---------------------------------------------------------


def random_digraph(
    n: int,
    rng: random.Random,
    pool: Sequence = DEFAULT_POOL,
    p: float | None = None,
) -> WeightedDigraph:
    """A random digraph on n vertices, drawn from rng alone: the same rng
    state, n, pool and p give the same digraph, arc order included.

    Each arc u -> v (u != v) is present with probability p (when p is None,
    p is drawn first from 0.15, 0.25 and 0.4) and each loop with
    probability 0.15.  The pairs are drawn in row-major order, one
    `rng.random()` each, and a present arc's weight right after it, as
    `rng.choice(pool)` draws it: the first `rng.getrandbits(k)` below
    len(pool), k = len(pool).bit_length() (`_picks`).  An n that is not a
    nonnegative integer raises VertexOutOfRange, a p that is not a real
    number in [0, 1] ("0.5" and NaN included) InvalidSpec, and the pool
    is checked as `gen` checks it, except that a zero entry raises
    ZeroWeight; all before any draw."""
    n = _count(n)
    pool = _read_pool(pool, ZeroWeight)
    if p is not None and not (isinstance(p, Real) and 0 <= p <= 1):
        raise InvalidSpec(f"arc probability must be a number in [0, 1], got {p!r}")
    if p is None:
        p = rng.choice((0.15, 0.25, 0.4))
    draw, pick = rng.random, _picks(rng, pool)
    store = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                if draw() < 0.15:
                    store[u, u] = pick()
            elif draw() < p:
                store[u, v] = pick()
    return WeightedDigraph(n, store)


# -- block graphs -------------------------------------------------------------


class _Growth:
    """Incremental unit-weight simple graph with per-block bookkeeping.

    A vertex's group is its home block (the one it was created in), and
    its side there for biblock graphs; a vertex leaves its group when it
    becomes a cut-vertex.  Two sorted lists are kept up to date as blocks
    are added: `cuts`, the cut-vertices, and `open`, the non-cut vertices
    whose group holds at least `min_noncut` of them.  A new block may be
    glued at any of `cuts + open`, so `eligible` draws from them with no
    scan.  Each new block costs O(its size) plus one sorted-list insertion
    or deletion per vertex that joins or leaves the lists.
    """

    def __init__(self, min_noncut: int):
        self.n = 0
        self.arcs: dict[tuple[int, int], Fraction] = {}
        self.writes = 0  # arcs written, so that graph() sees a rewrite
        self.min_noncut = min_noncut
        self.cuts: list[int] = []
        self.open: list[int] = []
        self.group_of: dict[int, list[int]] = {}  # non-cut vertex -> its group

    def fresh(self, k: int) -> list[int]:
        vs = list(range(self.n, self.n + k))
        self.n += k
        return vs

    def add_edge(self, u: int, v: int) -> None:
        self.arcs[u, v] = _ONE
        self.arcs[v, u] = _ONE
        self.writes += 2

    def new_block(self, groups: Sequence[list[int]], attach: int | None) -> None:
        """Record a block made of groups (its sides, or one group for a
        complete block), glued at attach unless it is None; attach lies
        in one of the groups and becomes a cut-vertex."""
        group = self.group_of.pop(attach, None)
        if group is not None:
            if len(group) >= self.min_noncut:
                gone = group if len(group) - 1 < self.min_noncut else [attach]
                for v in gone:
                    del self.open[bisect_left(self.open, v)]
            group.remove(attach)
            insort(self.cuts, attach)
        for members in groups:
            group = [v for v in members if v != attach]
            for v in group:
                self.group_of[v] = group
            if len(group) >= self.min_noncut:
                for v in group:
                    insort(self.open, v)

    def eligible(self, rng) -> int:
        """A vertex a new block may be glued to: a cut-vertex, or a non-cut
        vertex whose group keeps at least min_noncut - 1 non-cut vertices
        after losing it.  `rng.randrange(k)` is the draw `rng.choice` makes
        from a k-long list (the rule `_picks` states), so this returns
        `rng.choice(self.cuts + self.open)` without building that list."""
        k = len(self.cuts) + len(self.open)
        if not k:
            raise InvalidSpec("no eligible attachment vertex; sizes too small")
        i = rng.randrange(k)
        return self.cuts[i] if i < len(self.cuts) else self.open[i - len(self.cuts)]

    def pendant_edges(self) -> None:
        """Hang one new leaf on each cut-vertex, in vertex order."""
        for v in self.cuts:
            (leaf,) = self.fresh(1)
            self.add_edge(v, leaf)

    def graph(self) -> WeightedDigraph:
        if len(self.arcs) != self.writes:
            raise InternalMismatch("block growth wrote an arc twice")
        return WeightedDigraph(self.n, self.arcs)


def _requested(sizes, width: int, least: int) -> list[tuple[int, ...]]:
    """One `width`-tuple of sizes per block (a biblock's pair of sides), each read by `_count`
    (2.9 is refused, not rounded down); InvalidSpec unless every size >= least."""
    try:
        blocks = [tuple(s) if width > 1 else (s,) for s in sizes]
    except TypeError:
        blocks = []
    if not blocks or any(len(b) != width for b in blocks):
        raise InvalidSpec(f"sizes {sizes!r}: want a nonempty sequence of sizes (biblocks: pairs)")
    return [tuple(_count(s, least, InvalidSpec) for s in b) for b in blocks]


def _block_sizes(n: int, rng, sizes, min_size: int) -> list[int]:
    if sizes is not None:
        return [s for (s,) in _requested(sizes, 1, min_size)]
    out = [rng.randint(min_size, max(min_size, 4))]
    total = out[0]
    while total < n:
        s = rng.randint(min_size, max(min_size, 4))
        out.append(s)
        total += s - 1
    return out


def _block_graph(n, rng, sizes, min_size, managed) -> WeightedDigraph:
    """Complete blocks glued at vertices.  With managed=True the growth keeps
    every non-pendant block holding >= 2 non-cut vertices and finishes by
    hanging exactly one pendant edge on each cut-vertex."""
    plan = _block_sizes(n, rng, sizes, min_size)
    g = _Growth(3)
    first = g.fresh(plan[0])
    for a, b in _pairs(first):
        g.add_edge(a, b)
    g.new_block([first], None)
    for s in plan[1:]:
        at = g.eligible(rng) if managed else rng.randrange(g.n)
        members = [at] + g.fresh(s - 1)
        for a, b in _pairs(members):
            g.add_edge(a, b)
        g.new_block([members], at)
    if managed:
        g.pendant_edges()
    return g.graph()


def _pairs(vs):
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            yield vs[i], vs[j]


def _biblock_graph(n, rng, sizes, pendants) -> WeightedDigraph:
    """Complete bipartite blocks K_{a,b} (a, b >= 2), glued so every block
    keeps a non-cut vertex on each side; optionally one pendant edge per
    cut-vertex afterwards."""
    if sizes is not None:
        plan = _requested(sizes, 2, 2)
    else:
        plan = [(rng.randint(2, 3), rng.randint(2, 3))]
        total = sum(plan[0])
        while total < n:
            a, b = rng.randint(2, 3), rng.randint(2, 3)
            plan.append((a, b))
            total += a + b - 1
    g = _Growth(2)

    def add_block(a_side: list[int], b_side: list[int], attach: int | None) -> None:
        for x in a_side:
            for y in b_side:
                g.add_edge(x, y)
        g.new_block([a_side, b_side], attach)

    a0, b0 = plan[0]
    add_block(g.fresh(a0), g.fresh(b0), None)
    for (a, b) in plan[1:]:
        at = g.eligible(rng)
        if rng.random() < 0.5:
            add_block([at] + g.fresh(a - 1), g.fresh(b), at)
        else:
            add_block(g.fresh(a), [at] + g.fresh(b - 1), at)
    if pendants:
        g.pendant_edges()
    return g.graph()


# -- r2 extension -------------------------------------------------------------


def extend_to_r2(
    G: WeightedDigraph,
    seed: int = 0,
    weight_pool: Sequence = DEFAULT_POOL,
) -> WeightedDigraph:
    """Attach a loop-free bi-arc leaf at every cut-vertex lacking an
    r2-block.  Cut-vertices already served are left alone, so the operation
    is idempotent; a digraph without cut-vertices comes back unchanged.
    The pool is checked as `gen` checks it, before any draw."""
    out = _extend_to_r2(G, seed, _read_pool(weight_pool))
    if not is_r2_digraph(out):
        raise InternalMismatch("extension failed to produce an r2-digraph")
    return out


def _extend_to_r2(G: WeightedDigraph, seed: int, pool: tuple[Fraction, ...]) -> WeightedDigraph:
    """`extend_to_r2` on a pool already read, without its recogniser check."""
    d = decompose(G)
    rng = random.Random(f"extend:{seed}")
    W, peels, pick = G.out_rows(), {}, _picks(rng, pool)
    leaves = [
        (v, EdgeKind.NC_TILDE_EDGE, (pick(), pick()), True)
        for v in sorted(d.cut_vertices)
        if not any(_r2_block(W, d, peels, i) for i in d.membership[v])
    ]
    return _attach(G, leaves)
