"""Seeded generator families: determinism and membership in the family."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

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
from digrank.errors import InvalidSpec
from digrank.generate import _Growth, random_digraph


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
