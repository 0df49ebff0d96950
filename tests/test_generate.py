"""Seeded generator families: determinism and membership in the family."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digrank import (
    FAMILIES,
    GenSpec,
    TreeKind,
    classify_tree,
    decompose,
    extend_to_r2,
    format_digraph,
    gen,
    is_r0_biblock_graph,
    is_r2_biblock_graph,
    is_r2_block_graph,
    is_r2_digraph,
    is_r2_tree_digraph,
    is_tree,
)
from digrank import generate
from digrank.errors import InternalMismatch, InvalidSpec, VertexOutOfRange, ZeroWeight
from digrank.generate import DEFAULT_POOL, _Growth, random_digraph


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "r2-extension"])
def test_every_family_is_deterministic(family):
    a = gen(GenSpec(family, n=9, seed=5))
    b = gen(GenSpec(family, n=9, seed=5))
    assert format_digraph(a) == format_digraph(b)
    c = gen(GenSpec(family, n=9, seed=6))
    assert format_digraph(c) != format_digraph(a)  # seeds matter


def test_membership_loopless_tree():
    for seed in range(15):
        G = gen(GenSpec("loopless-biarc-tree", n=seed % 10 + 2, seed=seed))
        assert is_tree(G)
        assert classify_tree(G) is TreeKind.LOOPLESS_BI_ARC


def test_membership_cutloop_tree():
    kinds = set()
    for seed in range(15):
        G = gen(GenSpec("cutloop-biarc-tree", n=8, seed=seed))
        kinds.add(classify_tree(G))
    assert kinds <= {TreeKind.CUT_LOOP_BI_ARC, TreeKind.LOOPLESS_BI_ARC}
    assert TreeKind.CUT_LOOP_BI_ARC in kinds


def test_membership_r2_tree():
    for seed in range(15):
        G = gen(GenSpec("r2-tree", n=7, seed=seed))
        assert is_r2_tree_digraph(G)


def test_membership_simple_families():
    for seed in range(10):
        assert is_r2_block_graph(gen(GenSpec("r2-block-graph", n=11, seed=seed)))
        assert is_r2_biblock_graph(gen(GenSpec("r2-biblock-graph", n=12, seed=seed)))
        assert is_r0_biblock_graph(gen(GenSpec("biblock-graph", n=12, seed=seed)))


def test_block_graph_respects_requested_sizes():
    G = gen(GenSpec("block-graph", n=10, seed=1, sizes=(4, 4, 4)))
    d = decompose(G)
    assert sorted(len(b) for b in d.blocks) == [4, 4, 4]


def test_random_digraph_is_seed_stable():
    a = random_digraph(8, random.Random("x"), p=0.3)
    b = random_digraph(8, random.Random("x"), p=0.3)
    assert format_digraph(a) == format_digraph(b)


def test_weight_pool_is_respected():
    pool = (Fraction(7), Fraction(-7))
    G = gen(GenSpec("loopless-biarc-tree", n=10, seed=2, weight_pool=pool))
    assert {w for _, _, w in G.arcs()} <= set(pool)


def test_gen_validates_specs():
    with pytest.raises(InvalidSpec):
        gen(GenSpec("no-such-family"))
    with pytest.raises(InvalidSpec):
        gen(GenSpec("loopless-biarc-tree", n=0))
    with pytest.raises(InvalidSpec):
        gen(GenSpec("r2-extension", n=8))  # needs a base digraph


def test_extend_to_r2_fixture(mixed_arc_digraph_14):
    G = extend_to_r2(mixed_arc_digraph_14, seed=0)
    assert is_r2_digraph(G)
    assert G.n > mixed_arc_digraph_14.n
    # the base digraph survives untouched inside the extension
    for u, v, w in mixed_arc_digraph_14.arcs():
        assert G.arc_weight(u, v) == w


def test_extend_to_r2_is_idempotent_on_r2_digraphs():
    base = gen(GenSpec("loopless-biarc-tree", n=7, seed=3))
    once = extend_to_r2(base, seed=9)
    twice = extend_to_r2(once, seed=10)
    assert format_digraph(once) == format_digraph(twice)


def test_r2_extension_family_wraps_extend():
    base = gen(GenSpec("loopless-biarc-tree", n=6, seed=8))
    G = gen(GenSpec("r2-extension", seed=8, base=base))
    assert is_r2_digraph(G)


# sha256 prefixes of `format_digraph(G)` and `repr(list(G._arcs))`, the
# arc order included, over every (n, seed) of GEN_GRID, computed with the
# generators as they were before `_Growth` kept its options sorted and the
# leaf attachments were batched.  r2-extension extends the block-graph of
# the same n and seed.
GEN_DIGESTS = {
    "loopless-biarc-tree": "3b620173d81dbc49",
    "cutloop-biarc-tree": "bf7ffc7add9b8f5f",
    "r2-tree": "0007e25ccff82c65",
    "block-graph": "6c7509baeb1d57ff",
    "biblock-graph": "60aa7438a2a973c4",
    "r2-block-graph": "0ac31e15f729a3be",
    "r2-biblock-graph": "16b4325e439b0abb",
    "random-digraph": "890e44aa95af8b5f",
    "r2-extension": "9bae039b0116dfe6",
}
GEN_GRID = [(n, seed) for n in range(1, 41) for seed in range(4)] + [(500, 0)]


def _spec(family, n, seed):
    if family == "r2-extension":
        return GenSpec(family, seed=seed, base=gen(GenSpec("block-graph", n=n, seed=seed)))
    return GenSpec(family, n=n, seed=seed)


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_output_bytes_are_pinned(family):
    h = hashlib.sha256()
    for n, seed in GEN_GRID:
        G = gen(_spec(family, n, seed))
        h.update(format_digraph(G).encode())
        h.update(repr(list(G._arcs)).encode())
    assert h.hexdigest()[:16] == GEN_DIGESTS[family]


@given(
    min_noncut=st.sampled_from((2, 3)),
    sides=st.booleans(),
    plan=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6), st.booleans()),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=200, deadline=None)
def test_growth_keeps_its_options_up_to_date(min_noncut, sides, plan):
    """After every block, `cuts + open` is what a recomputation from
    scratch gives: the sorted cut-vertices, then the sorted non-cut
    vertices whose group (home block, and side with sides) holds at least
    min_noncut non-cut vertices; and `eligible` draws as `rng.choice`
    over that list does.  Blocks are glued at any vertex, as the
    unmanaged block graph does."""
    g = _Growth(min_noncut)
    home: dict[int, int] = {}  # vertex -> the group it was created in
    cuts: set[int] = set()
    groups = 0
    for i, (a, b, pick, attach_in_a) in enumerate(plan):
        at = None if i == 0 else pick % g.n
        if at is not None and attach_in_a:
            a_side, b_side = [at] + g.fresh(a - 1), g.fresh(b)
        elif at is not None:
            a_side, b_side = g.fresh(a), [at] + g.fresh(b - 1)
        else:
            a_side, b_side = g.fresh(a), g.fresh(b)
        block = [a_side, b_side] if sides else [a_side + b_side]
        g.new_block(block, at)
        if at is not None:
            cuts.add(at)
        for members in block:
            home.update((v, groups) for v in members if v != at)
            groups += 1
        noncut = [v for v in home if v not in cuts]
        size = Counter(home[v] for v in noncut)
        want = sorted(cuts) + sorted(v for v in noncut if size[home[v]] >= min_noncut)
        assert g.cuts + g.open == want
        if want:
            assert g.eligible(random.Random(pick)) == random.Random(pick).choice(want)
        else:
            with pytest.raises(InvalidSpec):
                g.eligible(random.Random(pick))


# -- what the generators check now that they write their stores directly ------

# The families whose arcs all weigh 1; every other family draws from its pool.
UNIT_FAMILIES = {"block-graph", "biblock-graph", "r2-block-graph", "r2-biblock-graph"}


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_arcs_are_in_range_and_weigh_what_the_pool_gives(family):
    """What `build` used to check on every generated arc: both ends in
    range(n), and a nonzero Fraction weight, here one from the pool (1 for
    the unit-weight families; r2-extension adds pool weights to a unit
    block graph, and 1 is in the pool)."""
    allowed = {Fraction(1)} if family in UNIT_FAMILIES else set(DEFAULT_POOL)
    for n, seed in GEN_GRID:
        G = gen(_spec(family, n, seed))
        for (u, v), w in G._arcs.items():
            assert 0 <= u < G.n and 0 <= v < G.n, (family, n, seed, u, v)
            assert type(w) is Fraction and w != 0 and w in allowed, (family, n, seed, w)


def _entry_points(pool):
    """Each entry point that takes a weight pool, called with pool."""
    base = gen(GenSpec("block-graph", n=9, seed=2))
    return {
        "gen": lambda: gen(GenSpec("cutloop-biarc-tree", n=9, seed=2, weight_pool=pool)),
        "gen-random-digraph": lambda: gen(GenSpec("random-digraph", n=9, seed=2, weight_pool=pool)),
        "gen-r2-extension": lambda: gen(
            GenSpec("r2-extension", seed=2, base=base, weight_pool=pool)
        ),
        "extend_to_r2": lambda: extend_to_r2(base, seed=2, weight_pool=pool),
        "random_digraph": lambda: random_digraph(9, random.Random(2), pool),
    }


@pytest.mark.parametrize(
    "pool,error",
    [
        ((), InvalidSpec),
        ((Fraction(1), Fraction(0)), InvalidSpec),
        ((1, "0/3"), InvalidSpec),
        (("abc",), InvalidSpec),
        ((1, "1/0"), InvalidSpec),
        ((2, None), InvalidSpec),
        ((float("inf"),), InvalidSpec),
    ],
    ids=["empty", "zero", "zero-string", "unreadable", "zero-denominator", "none", "inf"],
)
def test_bad_pools_are_rejected_before_any_draw(monkeypatch, pool, error):
    """Every entry point reads its pool before it makes a random stream,
    and random_digraph before it draws from the stream it is given; only
    random_digraph reports a zero entry as ZeroWeight."""
    calls = _entry_points(pool)

    def no_stream(*args):
        pytest.fail("a random stream was made before the pool was checked")

    monkeypatch.setattr(generate, "random", SimpleNamespace(Random=no_stream))
    for name, call in calls.items():
        if name == "random_digraph":
            continue
        with pytest.raises(error):
            call()
    monkeypatch.undo()
    rng = random.Random(2)
    state = rng.getstate()
    zero = any(w in (0, "0/3") for w in pool)
    with pytest.raises(ZeroWeight if zero else InvalidSpec):
        random_digraph(9, rng, pool)
    assert rng.getstate() == state


def test_random_digraph_rejects_a_zero_weight_it_never_draws():
    """p = 0 and a first draw above the loop chance: nothing is drawn from
    the pool, and the zero entry is still rejected."""
    with pytest.raises(ZeroWeight):
        random_digraph(1, random.Random(0), pool=(Fraction(0),), p=0.0)


def test_random_digraph_rejects_a_negative_order():
    with pytest.raises(VertexOutOfRange):
        random_digraph(-1, random.Random(0))


def test_a_pool_of_plain_numbers_and_strings_gives_the_same_graphs():
    """A pool is converted once, entry by entry, so (1, -1, 2, "1/2") draws
    exactly what DEFAULT_POOL draws: the same bytes and the same arc order,
    every weight a Fraction."""
    written = (1, -1, 2, "1/2")
    for name, call in _entry_points(written).items():
        G, H = call(), _entry_points(DEFAULT_POOL)[name]()
        assert format_digraph(G) == format_digraph(H), name
        assert list(G._arcs.items()) == list(H._arcs.items()), name
        assert all(type(w) is Fraction for w in G._arcs.values()), name
    for family in FAMILIES:
        for n, seed in [(1, 0), (7, 1), (30, 3)]:
            spec = _spec(family, n, seed)
            G = gen(GenSpec(family, n, seed, written, base=spec.base))
            assert format_digraph(G) == format_digraph(gen(spec)), (family, n, seed)


@pytest.mark.parametrize("family", ["loopless-biarc-tree", "cutloop-biarc-tree", "r2-tree"])
def test_a_repeated_tree_edge_is_caught(monkeypatch, family):
    """A tree whose edge list repeats an edge would overwrite an arc of
    the store; the generator's write count raises InternalMismatch instead.
    The message is matched because a repeated edge can also make the tree
    fail its recogniser (a leaf counted as internal gets a loop)."""
    prufer = generate._prufer_tree
    monkeypatch.setattr(generate, "_prufer_tree", lambda n, rng: (e := prufer(n, rng)) + e[:1])
    with pytest.raises(InternalMismatch, match="twice"):
        gen(GenSpec(family, n=8, seed=0))


@pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
def test_a_repeated_growth_edge_is_caught(pair):
    g = _Growth(2)
    g.fresh(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(*pair)
    with pytest.raises(InternalMismatch, match="twice"):
        g.graph()


# -- the draw rule of the per-arc loops ----------------------------------------


@pytest.mark.parametrize("length", [*range(1, 10), 16, 17, 1000])
def test_picks_draw_what_choice_draws(length):
    """`_picks(rng, seq)` draws what `rng.choice(seq)` (and, over a range,
    `rng.randrange(length)`) draws from an identically seeded stream, and
    leaves the stream in the same state."""
    seq = tuple(Fraction(i, 3) for i in range(length))
    for seed in (0, 1, 7, "x"):
        rng, ref = random.Random(seed), random.Random(seed)
        pick = generate._picks(rng, seq)
        assert [pick() for _ in range(500)] == [ref.choice(seq) for _ in range(500)]
        assert rng.getstate() == ref.getstate()
        pick = generate._picks(rng, range(length))
        assert [pick() for _ in range(500)] == [ref.randrange(length) for _ in range(500)]
        assert rng.getstate() == ref.getstate()


def _choice_loop_digraph(n, rng, pool, p):
    """random_digraph's documented draws, written with `rng.choice`."""
    store = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                if rng.random() < 0.15:
                    store[u, u] = rng.choice(pool)
            elif rng.random() < p:
                store[u, v] = rng.choice(pool)
    return store


@pytest.mark.parametrize("seed", [1, 2])
def test_random_digraph_draws_as_a_choice_loop(seed):
    """A 4-entry pool at p = 0.3, the dense random benchmark's call, for
    every n up to 70 from one stream: the same arcs in the same order, and
    the stream left where the reference loop leaves it."""
    pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
    rng, ref = random.Random(seed), random.Random(seed)
    for n in range(71):
        G = random_digraph(n, rng, pool, p=0.3)
        assert list(G._arcs.items()) == list(_choice_loop_digraph(n, ref, pool, 0.3).items())
        assert rng.getstate() == ref.getstate(), n


# -- malformed generator input -----------------------------------------------


class _NoDraws(random.Random):
    """A stream that fails the test on any draw."""

    def random(self):
        pytest.fail("drew from the stream before rejecting the input")

    def getrandbits(self, k):
        pytest.fail("drew from the stream before rejecting the input")


@pytest.mark.parametrize(
    "family,sizes",
    [
        ("block-graph", (2.9, 3.7)),
        ("block-graph", (3, 4.0)),
        ("r2-block-graph", (Fraction(3), 4)),
        ("biblock-graph", ((2.5, 3.2),)),
        ("r2-biblock-graph", ((2, 3), (2, "3"))),
    ],
)
def test_non_integer_block_sizes_are_rejected_before_any_draw(monkeypatch, family, sizes):
    """`int()` used to round a size down (2.9 built a block of 2);
    `operator.index` reads a size now, and anything it refuses is an
    InvalidSpec raised before the first draw."""
    monkeypatch.setattr(generate, "random", SimpleNamespace(Random=_NoDraws))
    with pytest.raises(InvalidSpec, match="not an integer"):
        gen(GenSpec(family, n=8, sizes=sizes))


@pytest.mark.parametrize("p", [float("nan"), -3, -0.01, 1.5, float("inf")])
def test_arc_probability_outside_0_1_is_rejected_before_any_draw(p):
    """A NaN or negative p used to give no arcs at all."""
    with pytest.raises(InvalidSpec, match="probability"):
        random_digraph(5, _NoDraws(0), p=p)


@pytest.mark.parametrize("p", [0, 0.0, 1, 1.0])
def test_arc_probability_at_its_ends_is_accepted(p):
    G = random_digraph(6, random.Random(0), p=p)
    assert sum(1 for u, v, _ in G.arcs() if u != v) == (30 if p else 0)
