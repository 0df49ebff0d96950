"""Hostile inputs through `rank_recursive`: weights that defeat the mod-p
leaf rank, thousand-digit numerators, and thousands of isolated vertices.
The weight tests each rank a block with a pendant, which the peel pass
reaches, and a block on its own, which is ranked from its arcs.

Then hostile arguments to every entry point that takes a vertex count, a
vertex id, a block index or a weight from its caller: each is refused with
its own DigraphError subclass before any work, and an integer-like value
(True, an object with `__index__`) is read as the int it indexes to."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from digrank import (
    DigraphAttachment,
    EdgeAddition,
    EdgeKind,
    GenSpec,
    apply_additions,
    block_subdigraph,
    build,
    build_genr2,
    check_lemma_2rin,
    decompose,
    engine,
    extend_to_r2,
    gen,
    generate,
    is_r2_block,
    loop_invariance_check,
    make_split,
    oracle_rank,
    random_digraph,
    rank_delta_cr2,
    rank_recursive,
    run_suite,
    side_components,
    theorems,
)
from digrank import linalg
from digrank.errors import (
    IndexOutOfRange,
    InvalidSpec,
    InvalidSplit,
    UnknownSuite,
    VertexOutOfRange,
)


def one_block(rng, n, p, weights):
    """A digraph on n vertices with arc density p, weights drawn from
    `weights`, that is one block."""
    arcs = [(u, v, weights(rng)) for u in range(n) for v in range(n) if rng.random() < p]
    G = build(n, arcs)
    assert decompose(G).block_count == 1
    return G


def block_with_pendant(rng, n, p, weights):
    """`one_block` plus an arc pendant on vertex 0."""
    G = one_block(rng, n, p, weights)
    G = G.attach_edge(0, EdgeKind.NC_TILDE_ARC, (weights(rng),), toward_new=True)
    d = decompose(G)
    assert d.block_count == 2 and sorted(map(len, d.blocks)) == [2, n]
    return G


def recorded(calls, name, real):
    """real, appending (name, its result) to calls at each call."""

    def call(*args):
        out = real(*args)
        calls.append((name, out))
        return out

    return call


def test_denominators_of_the_mod_p_prime_take_the_bareiss_fallback(monkeypatch):
    """The one leaf's residue read stops at a denominator P divides and no
    mod-p pass runs: its rank is one Bareiss's.  (The r2 test's peel of
    the block with a pendant is a Bareiss of its own.)"""
    P = linalg._P
    pool = [Fraction(k, P) for k in (1, -2, 5)] + [Fraction(k, 2 * P) for k in (1, -3, 7)]
    for make, n in ((block_with_pendant, 17), (one_block, engine._MOD_P_MIN_ORDER)):
        G = make(random.Random("mod-p"), n, 0.3, lambda rng: rng.choice(pool))
        calls = []
        with monkeypatch.context() as m:
            for name in ("_engine_bareiss", "_rank_mod_p"):
                m.setattr(linalg, name, recorded(calls, name, getattr(linalg, name)))
            m.setattr(engine, "leaf_rank", recorded(calls, "leaf_rank", engine.leaf_rank))
            cert = rank_recursive(G)
        names = [name for name, _ in calls]
        assert "_rank_mod_p" not in names and names.count("leaf_rank") == 1
        assert names[-2:] == ["_engine_bareiss", "leaf_rank"]
        assert cert.rank == oracle_rank(G)


def test_thousand_digit_numerators():
    def weight(rng):
        return rng.choice((1, -1)) * rng.randrange(10**999, 10**1000)

    for make in (block_with_pendant, one_block):
        G = make(random.Random("digits"), 16, 0.2, weight)
        assert rank_recursive(G).rank == oracle_rank(G)


def test_five_thousand_isolated_vertices():
    G = build(5000, [(v, v, 1) for v in range(0, 5000, 7)])
    assert rank_recursive(G).rank == 715


# -- hostile arguments to the entry points ------------------------------------


class Index:
    """An integer-like object that only `operator.index` reads."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


class NoDraws(random.Random):
    """A stream that fails the test on any draw."""

    def random(self):
        pytest.fail("drew from the stream before rejecting the input")

    def getrandbits(self, k):
        pytest.fail("drew from the stream before rejecting the input")


NOT_INTEGERS = {
    "2.5": 2.5, "7.5": 7.5, "1.0": 1.0, "str": "3", "None": None, "nan": math.nan, "inf": math.inf
}
NOT_WEIGHTS = {"x": "x", "None": None, "nan": math.nan, "inf": math.inf}

P3 = build(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
BLOCKS = gen(GenSpec("r2-block-graph", n=12, seed=0))


def attachment(at=1, w_vertex=0, into_w=1):
    return [DigraphAttachment(P3, w_vertex, at, into_w, 2)]


# Each entry point with its argument x: the call, and the error x must raise.
TAKES_AN_INTEGER = {
    "build-n": (lambda x: build(x, [(0, 0, 1)]), VertexOutOfRange),
    "build-u": (lambda x: build(3, [(x, 1, 1)]), VertexOutOfRange),
    "build-v": (lambda x: build(3, [(0, x, 1)]), VertexOutOfRange),
    "with_loop": (lambda x: P3.with_loop(x, 2), VertexOutOfRange),
    "attach_edge": (lambda x: P3.attach_edge(x, EdgeKind.NC_EDGE, (1, 2, 3)), VertexOutOfRange),
    "induced_subdigraph": (lambda x: P3.induced_subdigraph([0, x, 2]), VertexOutOfRange),
    "delete_vertices": (lambda x: P3.delete_vertices([x]), VertexOutOfRange),
    "side_components": (lambda x: side_components(BLOCKS, x), VertexOutOfRange),
    "make_split-v": (lambda x: make_split(P3, x, [x, 0, 1, 2]), InvalidSplit),
    "make_split-side": (lambda x: make_split(P3, 2, [2, x]), InvalidSplit),
    "build_genr2-at": (lambda x: build_genr2(P3, attachment(at=x)), VertexOutOfRange),
    "build_genr2-w_vertex": (lambda x: build_genr2(P3, attachment(w_vertex=x)), VertexOutOfRange),
    "block_subdigraph": (lambda x: block_subdigraph(BLOCKS, decompose(BLOCKS), x), IndexOutOfRange),
    "is_r2_block": (lambda x: is_r2_block(BLOCKS, decompose(BLOCKS), x), IndexOutOfRange),
    "gen-n": (lambda x: gen(GenSpec("loopless-biarc-tree", n=x)), InvalidSpec),
    "gen-size": (lambda x: gen(GenSpec("block-graph", sizes=(3, x))), InvalidSpec),
    "gen-biblock-size": (
        lambda x: gen(GenSpec("r2-biblock-graph", sizes=((2, 2), (x, 2)))),
        InvalidSpec,
    ),
    "random_digraph-n": (lambda x: random_digraph(x, NoDraws(0)), VertexOutOfRange),
    "run_suite-count": (lambda x: run_suite("thm-tt", count=x), UnknownSuite),
    "run_suite-max_n": (lambda x: run_suite("thm-tt", count=1, max_n=x), UnknownSuite),
}
# run_suite reads None as "the suite's default".
NONE_IS_DEFAULT = {"run_suite-count", "run_suite-max_n"}

TAKES_A_WEIGHT = {
    "build": (lambda w: build(2, [(0, 1, w)]), InvalidSpec),
    "with_loop": (lambda w: P3.with_loop(1, w), InvalidSpec),
    "attach_edge": (lambda w: P3.attach_edge(0, EdgeKind.NC_TILDE_EDGE, (1, w)), InvalidSpec),
    "build_genr2": (lambda w: build_genr2(P3, attachment(into_w=w)), InvalidSpec),
    "extend_to_r2-pool": (lambda w: extend_to_r2(BLOCKS, weight_pool=(1, w)), InvalidSpec),
}


@pytest.mark.parametrize(
    "call,error,x",
    [
        pytest.param(call, error, x, id=f"{name}-{label}")
        for name, (call, error) in TAKES_AN_INTEGER.items()
        for label, x in NOT_INTEGERS.items()
        if not (x is None and name in NONE_IS_DEFAULT)
    ],
)
def test_a_non_integer_count_id_or_index_is_refused(monkeypatch, call, error, x):
    """A float, in range or not and even 1.0, a numeric string, None, NaN
    and inf are refused where an integer is wanted: `operator.index` reads
    none of them as an integer.  `gen` and `random_digraph` refuse before
    any draw."""
    monkeypatch.setattr(generate, "random", SimpleNamespace(Random=NoDraws))
    with pytest.raises(error):
        call(x)


@pytest.mark.parametrize("w", NOT_WEIGHTS.values(), ids=NOT_WEIGHTS.keys())
@pytest.mark.parametrize("call,error", TAKES_A_WEIGHT.values(), ids=TAKES_A_WEIGHT.keys())
def test_a_weight_fraction_cannot_read_is_refused(call, error, w):
    with pytest.raises(error):
        call(w)


# Each entry point given a container that is not one (not iterable, or an
# arc that is not a (u, v, weight) triple) or a kind that is not an
# EdgeKind: the call, and the error it must raise.
MALFORMED = {
    "build-None": (lambda: build(3, None), InvalidSpec),
    "build-pair": (lambda: build(3, [(0, 1)]), InvalidSpec),
    "build-quadruple": (lambda: build(3, [(0, 1, 1, 1)]), InvalidSpec),
    "build-int-arc": (lambda: build(3, [5]), InvalidSpec),
    "attach_edge-weights": (lambda: P3.attach_edge(0, EdgeKind.NC_ARC, 5), InvalidSpec),
    "attach_edge-kind": (lambda: P3.attach_edge(0, "nc-arc", (1, 1)), InvalidSpec),
    "apply_additions-weights": (
        lambda: apply_additions(P3, [EdgeAddition(1, EdgeKind.NC_ARC, 5)]),
        InvalidSpec,
    ),
    "apply_additions-kind": (
        lambda: apply_additions(P3, [EdgeAddition(1, "nc-arc", (1, 1))]),
        InvalidSpec,
    ),
    "apply_additions-None": (lambda: apply_additions(P3, None), InvalidSpec),
    "build_genr2-None": (lambda: build_genr2(P3, None), InvalidSpec),
    "rank_delta_cr2-int": (lambda: rank_delta_cr2(P3, 5), InvalidSpec),
    "rank_delta_cr2-kind": (
        lambda: rank_delta_cr2(P3, [EdgeAddition(1, "nc-arc", (1, 1))]),
        InvalidSpec,
    ),
    "induced_subdigraph-None": (lambda: P3.induced_subdigraph(None), VertexOutOfRange),
    "delete_vertices-None": (lambda: P3.delete_vertices(None), VertexOutOfRange),
    "make_split-int": (lambda: make_split(P3, 1, 5), InvalidSplit),
    "check_lemma_2rin-int": (lambda: check_lemma_2rin(P3, 5), VertexOutOfRange),
    "random_digraph-p-str": (lambda: random_digraph(3, NoDraws(0), p="0.5"), InvalidSpec),
    "loop_invariance_check-trials": (lambda: loop_invariance_check(P3, trials=2.5), InvalidSpec),
}


@pytest.mark.parametrize("call,error", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_container_or_kind_is_refused(monkeypatch, call, error):
    """Refused with the class the entry point raises for a bad value of that
    argument, before any decomposition, oracle rank or draw."""

    def no_work(*args, **kwargs):
        pytest.fail("did work before rejecting the input")

    for name in ("decompose", "oracle_rank", "_r2_decomposition"):
        monkeypatch.setattr(theorems, name, no_work)
    with pytest.raises(error):
        call()


def test_a_pool_that_is_not_a_sequence_is_refused():
    with pytest.raises(InvalidSpec):
        extend_to_r2(BLOCKS, weight_pool=None)


@pytest.mark.parametrize(
    "family,sizes",
    [
        ("biblock-graph", (3,)),
        ("biblock-graph", ((2, 2, 2),)),
        ("biblock-graph", 5),
        ("r2-biblock-graph", ((2, 2), 3)),
        ("block-graph", 5),
        ("r2-block-graph", ((3, 3),)),
    ],
)
def test_sizes_of_the_wrong_shape_are_refused(monkeypatch, family, sizes):
    """A biblock family takes a sequence of pairs, the others a sequence
    of sizes; anything else is refused before any draw."""
    monkeypatch.setattr(generate, "random", SimpleNamespace(Random=NoDraws))
    with pytest.raises(InvalidSpec):
        gen(GenSpec(family, sizes=sizes))


@pytest.mark.parametrize("one", [True, Index(1)], ids=["True", "__index__"])
def test_integer_like_arguments_read_as_the_int(one):
    """Every store key, order and id comes out an exact int."""
    two, three = Index(2), Index(3)
    G = build(three, [(one, two, 1), (two, one, 1), (0, one, 1), (one, 0, 1), (one, one, 5)])
    assert G == build(3, [(1, 2, 1), (2, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 5)])
    assert type(G.n) is int and all(type(u) is int is type(v) for (u, v) in G._arcs)
    assert P3.with_loop(one, 2) == P3.with_loop(1, 2)
    H = P3.with_loop(one, 2).attach_edge(one, EdgeKind.NC_ARC, (3, 4))
    assert H == P3.with_loop(1, 2).attach_edge(1, EdgeKind.NC_ARC, (3, 4))
    assert all(type(u) is int is type(v) for (u, v) in H._arcs)
    assert P3.induced_with_labels([0, one])[1] == (0, 1)
    assert P3.delete_vertices([one]) == P3.delete_vertices([1])
    assert side_components(P3, one) == side_components(P3, 1)
    split = make_split(P3, one, [0, one])
    assert split == make_split(P3, 1, [0, 1]) and type(split.v) is int
    assert all(type(u) is int for u in split.side)
    glued = build_genr2(P3, attachment(at=one, w_vertex=one))
    assert glued == build_genr2(P3, attachment(at=1, w_vertex=1))
    d = decompose(BLOCKS)
    assert block_subdigraph(BLOCKS, d, one) == block_subdigraph(BLOCKS, d, 1)
    assert is_r2_block(BLOCKS, d, one) == is_r2_block(BLOCKS, d, 1)
    eight = Index(8)
    for family, sizes in (("block-graph", (3, three)), ("biblock-graph", ((2, three), (three, 2)))):
        G = gen(GenSpec(family, n=eight, sizes=sizes))
        assert G == gen(GenSpec(family, n=8, sizes=tuple(map(_ints, sizes))))
    assert gen(GenSpec("r2-tree", n=eight)) == gen(GenSpec("r2-tree", n=8))
    R = random_digraph(Index(6), random.Random(1))
    assert R == random_digraph(6, random.Random(1)) and type(R.n) is int
    assert run_suite("thm-tt", count=one, max_n=Index(5)).instances == 1


def _ints(size):
    return tuple(map(int, size)) if isinstance(size, tuple) else int(size)
