"""The rank engine: closed forms, peel formulas, and the recursive driver.

Everything funnels into the same acceptance shape: whatever route the engine
picks, the certificate's arithmetic and the dense-elimination oracle must
agree.  Individual formulas are additionally pinned on planted instances
where the route is known.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digrank import (
    CutVertexCase,
    DigraphAttachment,
    EdgeAddition,
    EdgeKind,
    GenSpec,
    RuleTag,
    TreeKind,
    WeightedDigraph,
    apply_additions,
    block_subdigraph,
    build,
    build_genr2,
    check_lemma_2rin,
    classify_cut,
    classify_tree,
    decompose,
    format_digraph,
    gen,
    is_r0_biblock_graph,
    is_r0_block,
    is_r0_digraph,
    is_r2_biblock_graph,
    is_r2_block,
    is_r2_block_graph,
    is_r2_digraph,
    loop_invariance_check,
    make_split,
    oracle_rank,
    rank_case1_peel,
    rank_case2_peel,
    rank_case3_peel,
    rank_delta_cr2,
    rank_genr2,
    rank_mdt,
    rank_r0_biblock_graph,
    rank_r0_digraph,
    rank_r2_biblock_graph,
    rank_r2_block_graph,
    rank_r2_digraph,
    rank_recursive,
    render_certificate,
    side_components,
)
from digrank import engine, linalg, theorems
from digrank.cli import main
from digrank.errors import InternalMismatch, PreconditionViolated, VertexOutOfRange
from digrank.generate import FAMILIES, random_digraph
from digrank.linalg import RationalMatrix, rank, schur_peel
from oracles import breve_by_copy, naive_rank, rank_of_digraph


def biarc_path(n, w=1):
    arcs = []
    for i in range(n - 1):
        arcs += [(i, i + 1, w), (i + 1, i, w)]
    return build(n, arcs)


# -- recursive engine vs oracle ----------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_engine_matches_oracle_on_random_digraphs(seed):
    rng = random.Random(f"engine:{seed}")
    G = random_digraph(rng.randint(0, 9), rng)
    cert = rank_recursive(G, oracle_check=True)  # raises on any mismatch
    assert cert.rank == rank_of_digraph(G)
    assert cert.root.total == cert.rank


def test_engine_handles_trivial_graphs():
    assert rank_recursive(build(0, [])).rank == 0
    assert rank_recursive(build(1, [])).rank == 0
    assert rank_recursive(build(1, [(0, 0, 5)])).rank == 1
    cert = rank_recursive(build(4, []))
    assert cert.rank == 0 and RuleTag.COMPONENT_SUM in cert.rules_used()


def test_engine_on_fixtures(
    mixed_arc_digraph_14, r2_extended_digraph_19, r2_tree_10, block_graph_19, biblock_20
):
    for G, expected in [
        (mixed_arc_digraph_14, 12),
        (r2_extended_digraph_19, 15),
        (r2_tree_10, 9),
        (block_graph_19, 14),
        (biblock_20, 12),
    ]:
        cert = rank_recursive(G, oracle_check=True)
        assert cert.rank == expected == rank_of_digraph(G)


def test_certificates_are_deterministic(mixed_arc_digraph_14):
    a = render_certificate(rank_recursive(mixed_arc_digraph_14))
    b = render_certificate(rank_recursive(mixed_arc_digraph_14))
    assert a == b
    assert "contributes=" in a


def test_certificate_quotes_original_ids(r2_extended_digraph_19):
    cert = rank_recursive(r2_extended_digraph_19)
    seen = set()
    for node in cert.root.walk():
        if node.block_vertices:
            seen.update(node.block_vertices)
    assert seen <= set(range(19))
    assert max(seen) > 13  # the attached vertices appear under their own ids


def test_tree_leaves_of_the_engine(r2_tree_10):
    cert = rank_recursive(biarc_path(5))
    assert cert.rank == 4
    assert cert.rules_used() == {RuleTag.TREE_MATCHING}

    cert = rank_recursive(r2_tree_10)
    assert cert.rank == 9
    assert RuleTag.R2_TREE in cert.rules_used()


def test_r2_digraph_route(r2_extended_digraph_19):
    G = r2_extended_digraph_19
    cert = rank_recursive(G)
    assert RuleTag.R2_DIGRAPH in cert.rules_used()
    root = next(n for n in cert.root.walk() if n.rule is RuleTag.R2_DIGRAPH)
    assert root.contributed == 2 * len(decompose(G).cut_vertices)


def r2_summand_corpus():
    """r2-extensions of 120 random bases of 4-14 vertices, with weights 2,
    -3, 1/2 and 5/3 and loops, half of them at arc density 0.1 (sparse
    bases leave the rare unjoined pairs), and the r2 families at n = 6, 12
    and 30, with r2-extension's base a block graph."""
    pool = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))
    graphs = []
    for seed in range(120):
        rng = random.Random(f"breve:{seed}")
        base = random_digraph(rng.randint(4, 14), rng, pool, p=0.1 if seed % 2 else None)
        graphs.append(gen(GenSpec("r2-extension", seed=seed, weight_pool=pool, base=base)))
    for family in (f for f in FAMILIES if f.startswith("r2")):
        for n in (6, 12, 30):
            base = gen(GenSpec("block-graph", n=n)) if family == "r2-extension" else None
            graphs.append(gen(GenSpec(family, n=n, seed=n, base=base)))
    return graphs


def breve_kind(G, breve):
    """The shape of a summand that `_small_breve` tells apart, or "3+"."""
    if len(breve) > 2:
        return "3+"
    if len(breve) == 2:
        u, t = breve
        ways = G.has_arc(u, t) + G.has_arc(t, u)
        return ("unjoined", "one way", "both ways")[ways]
    if len(breve) == 1:
        return "loop" if G.has_loop(breve[0]) else "no loop"
    return "empty"


def test_small_summands_are_what_the_copy_gives():
    """Every R2_DIGRAPH summand, read in closed form or peeled from the
    shared copy, is the node the general route gives its breve alone
    (`oracles.breve_by_copy`), and every shape of summand occurs."""
    kinds = set()
    for G in r2_summand_corpus():
        cert, d = rank_recursive(G), decompose(G)
        assert cert.rank == oracle_rank(G)
        for node in cert.root.walk():
            if node.rule is not RuleTag.R2_DIGRAPH:
                continue
            for child in node.children:
                assert child == breve_by_copy(G, d, child.block_index), format_digraph(G)
                breve = [u for u in child.block_vertices if u not in d.cut_vertices]
                kinds.add(breve_kind(G, breve))
    assert kinds == {"empty", "loop", "no loop", "unjoined", "one way", "both ways", "3+"}


# -- planted peel instances ---------------------------------------------------


def test_case1_peel_formula():
    # loopless bi-arc leaf block is always case I
    G = biarc_path(4).with_loop(2, Fraction(2))
    split = make_split(G, 1, {0, 1})
    assert classify_cut(G, split).case is CutVertexCase.RANK_PLUS_2
    assert rank_case1_peel(G, split) == rank_of_digraph(G)
    with pytest.raises(PreconditionViolated):
        rank_case2_peel(G, split)


def test_case_peel_ranks_the_inside_once_more_than_classify_cut(monkeypatch):
    """r(H - v) comes from classify_cut's literal route: on the case I split
    above, the six eliminations of classify_cut (four memberships, r(H),
    r(H - v)) and one of G - H."""
    G = biarc_path(4).with_loop(2, Fraction(2))
    split = make_split(G, 1, {0, 1})
    sizes = []
    real = linalg._bareiss

    def counted(a, prows, pcols):
        sizes.append((prows, pcols))
        return real(a, prows, pcols)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    classify_cut(G, split)
    assert len(sizes) == 6
    sizes.clear()
    assert rank_case1_peel(G, split) == rank_of_digraph(G)
    assert len(sizes) == 7 and sizes.count((1, 1)) == 2


def test_case2_peel_formula():
    # a pendant bi-arc path of two vertices behind a loopless hinge
    G = build(
        5,
        [
            (0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1),
            (2, 3, 1), (3, 2, 1), (3, 4, 1), (4, 3, 1),
        ],
    )
    split = make_split(G, 2, {2, 3, 4})
    cls = classify_cut(G, split)
    assert cls.case is CutVertexCase.RANK_PLUS_0
    assert rank_case2_peel(G, split) == rank_of_digraph(G)


def test_case3_peel_single_membership():
    # one outgoing arc to a fresh leaf: x stands alone, y = 0 lies inside
    G = random_digraph(5, random.Random("c3"), p=0.6)
    at = 2
    H = G.attach_edge(at, EdgeKind.NC_TILDE_ARC, (Fraction(3),))
    split = make_split(H, at, {at, 5})
    cls = classify_cut(H, split)
    assert cls.case is CutVertexCase.RANK_PLUS_1
    assert rank_case3_peel(H, split) == rank_of_digraph(H)


def test_case3_peel_loop_residue():
    # bordered rows [[1,1,0],[1,2,1],[0,1,1]]: both memberships hold and the
    # residue 2 - 1 = 1 survives, so the peel moves the loop outward.
    G = build(
        3,
        [
            (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2),
            (1, 2, 1), (2, 1, 1), (2, 2, 1),
        ],
    )
    assert rank_of_digraph(G) == 2
    split = make_split(G, 1, {0, 1})
    cls = classify_cut(G, split)
    assert cls.case is CutVertexCase.RANK_PLUS_1
    assert cls.memberships[0] and cls.memberships[1]
    assert rank_case3_peel(G, split) == 2

    cert = rank_recursive(G)
    assert cert.rank == 2
    assert RuleTag.CASE_III_LT in cert.rules_used()
    note = next(n.note for n in cert.root.walk() if n.rule is RuleTag.CASE_III_LT)
    assert "loop residue" in note


def test_peels_on_every_side_of_random_cuts():
    rng = random.Random("peels")
    checked = 0
    for _ in range(60):
        G = random_digraph(rng.randint(4, 8), rng)
        d = decompose(G)
        for v in sorted(d.cut_vertices):
            for side in side_components(G, v):
                split = make_split(G, v, side)
                cls = classify_cut(G, split)
                if cls.case is CutVertexCase.RANK_PLUS_2:
                    assert rank_case1_peel(G, split) == rank_of_digraph(G)
                elif cls.case is CutVertexCase.RANK_PLUS_1:
                    assert rank_case3_peel(G, split) == rank_of_digraph(G)
                else:
                    try:
                        got = rank_case2_peel(G, split)
                    except PreconditionViolated:
                        continue  # formula honestly not claimed there
                    assert got == rank_of_digraph(G)
                checked += 1
    assert checked > 100


# -- closed-form sum rules ----------------------------------------------------


def test_rank_r2_digraph_fixture(r2_extended_digraph_19, mixed_arc_digraph_14):
    assert rank_r2_digraph(r2_extended_digraph_19) == 15
    assert not is_r2_digraph(mixed_arc_digraph_14)
    with pytest.raises(PreconditionViolated):
        rank_r2_digraph(mixed_arc_digraph_14)
    with pytest.raises(PreconditionViolated):
        rank_r2_digraph(build(3, []))  # disconnected


def test_is_r2_block_identifies_leaf_blocks(r2_extended_digraph_19):
    G = r2_extended_digraph_19
    d = decompose(G)
    flags = [is_r2_block(G, d, i) for i in range(d.block_count)]
    assert any(flags)
    # every cut-vertex sees at least one flagged block
    for v in sorted(d.cut_vertices):
        assert any(flags[i] for i in d.membership[v])


def test_rank_mdt_windmill():
    # two bi-arc pendant edges on a hub: both blocks drop by 2 at the hub
    G = build(3, [(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1)])
    assert rank_mdt(G) == 2 == rank_of_digraph(G)


def test_rank_mdt_rejects_all_cut_blocks():
    G = biarc_path(5)  # middle blocks consist of two cut-vertices
    with pytest.raises(PreconditionViolated) as exc:
        rank_mdt(G)
    assert "block" in str(exc.value)


def test_rank_r0_digraph_routes():
    # two unit 4-cycles sharing a vertex: removing the shared vertex turns a
    # C4 (rank 2) into a P3 (also rank 2), so both blocks are r0-blocks.
    cyc = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    arcs = []
    for u, v in cyc:
        arcs += [(u, v, 1), (v, u, 1)]
    G = build(7, arcs)
    d = decompose(G)
    assert is_r0_digraph(G, d)
    assert rank_r0_digraph(G, d) == rank_of_digraph(G) == 4

    # a loop on the shared cut-vertex voids the hypothesis
    H = G.with_loop(0, Fraction(1))
    with pytest.raises(PreconditionViolated):
        rank_r0_digraph(H)
    assert rank_recursive(H, oracle_check=True).rank == rank_of_digraph(H)


def test_lemma_subset_equivalence(r2_extended_digraph_19):
    G = r2_extended_digraph_19
    cuts = sorted(decompose(G).cut_vertices)
    # never raises InternalMismatch: the full-set and all-subset readings agree
    assert check_lemma_2rin(G, cuts[:3], all_subsets=True) in (True, False)
    with pytest.raises(PreconditionViolated):
        check_lemma_2rin(G, [0, 0])


def test_lemma_rejects_vertices_outside_the_graph():
    G = biarc_path(3)
    for vertices in ([99], [3], [-1], [0, 7]):
        with pytest.raises(VertexOutOfRange):
            check_lemma_2rin(G, vertices)
        with pytest.raises(VertexOutOfRange):
            check_lemma_2rin(G, vertices, all_subsets=True)


def test_loop_invariance_on_r2_fixture(r2_extended_digraph_19):
    assert loop_invariance_check(r2_extended_digraph_19, trials=8, seed=3)


# -- gluing and attachment deltas ---------------------------------------------


def _r2_base():
    G = gen(GenSpec("loopless-biarc-tree", n=6, seed=4))
    from digrank import extend_to_r2

    return extend_to_r2(G, seed=4)


def test_rank_genr2_matches_oracle():
    G = _r2_base()
    cuts = sorted(decompose(G).cut_vertices)
    W = build(2, [(0, 1, 2), (1, 0, 1), (0, 0, 1)])
    atts = [
        DigraphAttachment(W, 0, cuts[0], Fraction(1), Fraction(2)),
        DigraphAttachment(W, 1, cuts[-1], Fraction(1, 2), Fraction(1)),
    ]
    glued = build_genr2(G, atts)
    assert glued.n == G.n + 4
    assert rank_genr2(G, atts) == rank_of_digraph(glued)


def test_rank_genr2_tests_its_r2_precondition_once(monkeypatch):
    G = _r2_base()
    cuts = sorted(decompose(G).cut_vertices)
    atts = [DigraphAttachment(build(1, []), 0, cuts[0], Fraction(1), Fraction(2))]
    calls = []
    real = theorems.is_r2_digraph

    def counted(G, d=None):
        calls.append(G)
        return real(G, d)

    monkeypatch.setattr(theorems, "is_r2_digraph", counted)
    assert rank_genr2(G, atts) == rank_of_digraph(build_genr2(G, atts))
    assert len(calls) == 1


def test_rank_genr2_preconditions():
    G = _r2_base()
    d = decompose(G)
    noncut = next(v for v in range(G.n) if v not in d.cut_vertices)
    W = build(1, [])
    with pytest.raises(PreconditionViolated):
        rank_genr2(G, [DigraphAttachment(W, 0, noncut, Fraction(1), Fraction(1))])
    cut = sorted(d.cut_vertices)[0]
    with pytest.raises(PreconditionViolated):
        rank_genr2(G, [DigraphAttachment(build(0, []), 0, cut, Fraction(1), Fraction(1))])


def test_rank_delta_cr2_counts_loop_carriers():
    G = _r2_base()
    cuts = sorted(decompose(G).cut_vertices)
    adds = [
        EdgeAddition(cuts[0], EdgeKind.SIMPLE_EDGE, (Fraction(2),)),
        EdgeAddition(cuts[0], EdgeKind.NC_TILDE_ARC, (Fraction(1),), False),
        EdgeAddition(cuts[-1], EdgeKind.NC_EDGE, (1, 1, Fraction(3))),
        EdgeAddition(cuts[-1], EdgeKind.NC_ARC, (2, Fraction(-1))),
    ]
    delta = rank_delta_cr2(G, adds)
    assert delta == 2  # the two loop-carrying shapes
    grown = apply_additions(G, adds)
    assert rank_of_digraph(grown) == rank_of_digraph(G) + delta


# -- simple-graph families ----------------------------------------------------


def test_block_graph_formula_on_generated_instances():
    for seed in range(12):
        G = gen(GenSpec("r2-block-graph", n=10, seed=seed))
        assert is_r2_block_graph(G)
        cert = rank_r2_block_graph(G)
        assert cert.rank == G.n == rank_of_digraph(G)
        assert cert.root.rule is RuleTag.BLOCK_GRAPH_2K


def test_block_graph_formula_rejects_twin_leaves(block_graph_19):
    assert not is_r2_block_graph(block_graph_19)
    with pytest.raises(PreconditionViolated):
        rank_r2_block_graph(block_graph_19)
    assert rank_of_digraph(block_graph_19) == 14 < 19


def test_biblock_formulas():
    for seed in range(10):
        G = gen(GenSpec("r2-biblock-graph", n=12, seed=seed))
        assert is_r2_biblock_graph(G)
        k = decompose(G).block_count
        assert rank_r2_biblock_graph(G).rank == 2 * k == rank_of_digraph(G)

        H = gen(GenSpec("biblock-graph", n=12, seed=seed))
        assert is_r0_biblock_graph(H)
        kh = decompose(H).block_count
        assert rank_r0_biblock_graph(H).rank == 2 * kh == rank_of_digraph(H)


def test_biblock_fixture_fails_hypotheses(biblock_20):
    assert not is_r2_biblock_graph(biblock_20)
    assert not is_r0_biblock_graph(biblock_20)
    with pytest.raises(PreconditionViolated):
        rank_r2_biblock_graph(biblock_20)
    # 2k would be 14; the true rank is 12
    assert rank_of_digraph(biblock_20) == 12


def test_block_graph_instances_peel_through_case3():
    rng = random.Random("bg-route")
    for _ in range(15):
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        G = gen(GenSpec("block-graph", n=sum(sizes), seed=rng.randint(0, 999), sizes=tuple(sizes)))
        cert = rank_recursive(G, oracle_check=True)
        rules = cert.rules_used()
        assert RuleTag.CASE_III_LT in rules or RuleTag.CASE_III_PEEL in rules


# -- the peel pass at scale ---------------------------------------------------


def triangle_chain(k):
    """k directed triangles a -> b -> c -> a, each c glued to the next a."""
    arcs = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        arcs += [(a, b, 1), (b, c, 1), (c, a, 1)]
    return build(2 * k + 1, arcs)


def cert_depth(cert):
    depth, level = 0, [cert.root]
    while level:
        depth += 1
        level = [c for node in level for c in node.children]
    return depth


def test_triangle_chain_of_400_needs_no_recursion():
    # For k >= 2 every row but the last c-vertex's owns a private column.
    cert = rank_recursive(triangle_chain(400))
    assert cert.rank == cert.root.total == 800
    assert cert_depth(cert) <= 4


WEIGHTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
SHAPES = (
    (EdgeKind.SIMPLE_EDGE, 1),
    (EdgeKind.NC_TILDE_EDGE, 2),
    (EdgeKind.NC_TILDE_ARC, 1),
    (EdgeKind.NC_EDGE, 3),
    (EdgeKind.NC_ARC, 2),
)


def glued_blocks(rng, count):
    """`count` blocks of 3-5 vertices, each a bi-arc cycle plus random chords
    and loops, glued at a random earlier vertex; block 0 holds vertex 0."""
    arcs = {}
    n = 0
    for b in range(count):
        size = rng.randint(3, 5)
        if b == 0:
            vs = list(range(size))
        else:
            vs = [rng.randrange(n)] + list(range(n, n + size - 1))
        n = vs[-1] + 1
        for i in range(len(vs)):
            arcs[(vs[i], vs[i - 1])] = rng.choice(WEIGHTS)
            arcs[(vs[i - 1], vs[i])] = rng.choice(WEIGHTS)
        for u in vs:
            for v in vs:
                if rng.random() < 0.3:
                    arcs[(u, v)] = rng.choice(WEIGHTS)
    return build(n, [(u, v, w) for (u, v), w in arcs.items()])


@pytest.mark.parametrize("seed", range(8))
def test_pendant_star_on_one_hub_matches_oracle(seed):
    rng = random.Random(f"star:{seed}")
    G = glued_blocks(rng, rng.randint(2, 4))
    # every shape with its arcs both ways, four times over, all on vertex 0
    pendants = [(shape, toward_new) for shape in SHAPES for toward_new in (True, False)]
    pendants *= 4
    rng.shuffle(pendants)
    for (kind, need), toward_new in pendants:
        ws = tuple(rng.choice(WEIGHTS) for _ in range(need))
        G = G.attach_edge(0, kind, ws, toward_new)
    cert = rank_recursive(G)
    assert cert.rank == cert.root.total == oracle_rank(G)


def test_hub_loses_row_and_column_to_different_pendants():
    # Arc pendants only: the hub's out-arc leaf takes its row, the in-arc
    # leaf its column, and the block behind the hub sees neither.
    G = glued_blocks(random.Random("hub"), 3)
    for toward_new in (True, False):
        G = G.attach_edge(0, EdgeKind.NC_TILDE_ARC, (Fraction(3),), toward_new)
    cert = rank_recursive(G)
    assert cert.rank == oracle_rank(G)
    notes = {n.note for n in cert.root.walk() if n.cut_vertex == 0}
    assert {"out-row deleted", "in-column deleted"} <= notes


# -- r2 / r0 block predicates against their literal definitions ---------------


def predicate_corpus():
    """Seeded glued random blocks with pendants, plus every family at n <= 16."""
    rng = random.Random("predicates")
    for _ in range(40):
        G = glued_blocks(rng, rng.randint(2, 6))
        for _ in range(rng.randint(0, 4)):
            (kind, need), toward_new = rng.choice(SHAPES), rng.random() < 0.5
            ws = tuple(rng.choice(WEIGHTS) for _ in range(need))
            G = G.attach_edge(rng.randrange(G.n), kind, ws, toward_new)
        yield G
    for family in FAMILIES:
        for n in range(1, 17):
            for seed in range(2):
                base = None
                if family == "r2-extension":
                    base = gen(GenSpec("random-digraph", n=max(1, n // 2), seed=seed))
                yield gen(GenSpec(family, n=n, seed=seed, base=base))


def test_block_predicates_match_literal_rank_drops():
    seen = set()
    for G in predicate_corpus():
        A = G.adjacency_matrix().to_lists()
        d = decompose(G)
        for i, blk in enumerate(d.blocks):
            whole = naive_rank([[A[u][t] for t in blk] for u in blk])
            drops = []
            for v in d.cuts_in_block(i):
                rest = [u for u in blk if u != v]
                drops.append(whole - naive_rank([[A[u][t] for t in rest] for u in rest]))
            r2 = drops == [2]
            r0 = all(drop == 0 for drop in drops)
            assert is_r2_block(G, d, i) == r2, (format_digraph(G), i)
            assert is_r0_block(G, d, i) == r0, (format_digraph(G), i)
            seen.add((r2, r0))
    assert {(True, False), (False, True), (False, False)} <= seen


def test_cli_ranks_the_400_triangle_chain(tmp_path, capsys):
    path = tmp_path / "chain.dg"
    path.write_text(format_digraph(triangle_chain(400)))
    assert main(["rank", "--input", str(path), "--certify"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank 800"


# -- one decomposition per rank ------------------------------------------------


def traced_rank(monkeypatch, G):
    """rank_recursive(G) with the engine's decompose calls, the graph's
    induced copies and its weight stores (out_rows calls) counted:
    (certificate, decompose calls, copies, weight stores)."""
    counts = {"decompose": 0, "copies": 0, "stores": 0}
    decompose_, induced = engine.decompose, WeightedDigraph.induced_with_labels
    out_rows = WeightedDigraph.out_rows

    def counted_decompose(H):
        counts["decompose"] += 1
        return decompose_(H)

    def counted_induced(self, S):
        counts["copies"] += 1
        return induced(self, S)

    def counted_out_rows(self):
        counts["stores"] += 1
        return out_rows(self)

    with monkeypatch.context() as m:
        m.setattr(engine, "decompose", counted_decompose)
        m.setattr(WeightedDigraph, "induced_with_labels", counted_induced)
        m.setattr(WeightedDigraph, "out_rows", counted_out_rows)
        cert = rank_recursive(G)
    return cert, counts["decompose"], counts["copies"], counts["stores"]


def three_components():
    """A bi-arc path on 0-2, a triangle 3-5 with a pendant arc 3 -> 6, and a
    looped isolated vertex 7: two tree components and one peel component."""
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]
    arcs = [(u, v, 1) for a, b in edges for u, v in [(a, b), (b, a)]]
    return build(8, arcs + [(3, 6, 1), (7, 7, 2)])


def two_r2_components():
    """Two disjoint copies of a triangle with a bi-arc pendant at each
    vertex: each is an r2 component whose three cuts leave four summands."""
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]
    arcs = [(u, v, 1) for a, b in edges for u, v in [(a, b), (b, a)]]
    return build(12, arcs + [(u + 6, v + 6, w) for u, v, w in arcs])


def r2_square(big=False):
    """A bi-arc square 0-1-2-3 whose cuts 0 and 2 carry the bi-arc pendants
    0-4 and 2-5, and a bi-arc triangle 2-6-7 at 2 (with big=True, a square
    2-6-7-8): an r2 component whose summands are {1, 3} (no arc between
    them), {4}, {5} and {6, 7}, or {6, 7, 8}."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5), (2, 6), (6, 7)]
    edges += [(7, 8), (8, 2)] if big else [(7, 2)]
    arcs = [(u, v, w) for a, b in edges for u, v, w in [(a, b, 1), (b, a, 2)]]
    return build(9 if big else 8, arcs)


# (graph, root rule, decompositions, copies, weight stores); a connected
# tree-shaped graph that takes a tree form is read as itself, so it is
# neither decomposed nor given a store.  An r2 component's summands of at
# most two vertices are read from the store; those of three or more are
# one copy from it, decomposed once.
ROUTES = {
    "tree": (lambda f: biarc_path(6), RuleTag.TREE_MATCHING, 0, 0, 0),
    "r2-tree": (lambda f: f("r2_tree_10"), RuleTag.R2_TREE, 0, 0, 0),
    "peel": (lambda f: f("mixed_arc_digraph_14"), RuleTag.COMPONENT_SUM, 1, 0, 1),
    "r0": (lambda f: gen(GenSpec("biblock-graph", n=60, seed=1)), RuleTag.R0_DIGRAPH, 1, 0, 1),
    # 12 blocks, every breve of at most two vertices: no copy is decomposed
    "r2": (lambda f: f("r2_extended_digraph_19"), RuleTag.R2_DIGRAPH, 1, 0, 1),
    "r2-small-summands": (lambda f: r2_square(), RuleTag.R2_DIGRAPH, 1, 0, 1),
    "r2-big-summand": (lambda f: r2_square(big=True), RuleTag.R2_DIGRAPH, 1 + 1, 0, 1),
    "union": (lambda f: three_components(), RuleTag.COMPONENT_SUM, 1, 0, 1),
    # three tree components, and an R2 component of 2 blocks
    "every-route": (lambda f: f("every_route_union_29"), RuleTag.COMPONENT_SUM, 1, 0, 1),
    "two-r2": (lambda f: two_r2_components(), RuleTag.COMPONENT_SUM, 1, 0, 1),
    # one block of order >= _MOD_P_MIN_ORDER: ranked from its arcs, no store
    "one-block": (lambda f: dense_block(), RuleTag.DIRECT_RANK, 1, 0, 0),
}


@pytest.mark.parametrize("route", ROUTES)
def test_one_decomposition_per_rank(monkeypatch, request, route):
    """The graph is decomposed once and read in its own ids, unless it is
    a connected tree that takes a tree form, and nothing is an induced
    copy of G.  Each r2 component minus its cut-vertices is one
    copy of the rank's weight store, decomposed once for all its summands;
    a tree component of a disconnected graph is a copy of the store too, so
    there is at most one store per rank, and none when nothing reads it:
    a connected tree form, or one block ranked from its arcs."""
    make, root_rule, decomposes, copies, stores = ROUTES[route]
    G = make(request.getfixturevalue)
    cert, d_calls, c_calls, s_calls = traced_rank(monkeypatch, G)
    assert cert.root.rule is root_rule
    assert cert.rank == cert.root.total == oracle_rank(G)
    assert (d_calls, c_calls, s_calls) == (decomposes, copies, stores)


def reversed_union(parts):
    """The disjoint union of parts, every vertex id i renamed n - 1 - i, so
    that no part keeps its place and most are not a range of ids."""
    arcs, n = [], 0
    for H in parts:
        arcs += [(u + n, v + n, w) for u, v, w in H.arcs()]
        n += H.n
    return build(n, [(n - 1 - u, n - 1 - v, w) for u, v, w in arcs])


def copy_guard_corpus():
    """Every family at n = 8 and 30, seeds 0-3, and eight disjoint unions of
    three or four of them."""
    graphs = []
    for family in FAMILIES:
        for n in (8, 30):
            for seed in range(4):
                base = None
                if family == "r2-extension":
                    base = gen(GenSpec("random-digraph", n=n // 2, seed=seed))
                graphs.append(gen(GenSpec(family, n=n, seed=seed, base=base)))
    rng = random.Random("copy-guard")
    unions = [reversed_union(rng.sample(graphs, rng.randint(3, 4))) for _ in range(8)]
    return graphs + unions


def test_every_copy_is_cut_from_the_store(monkeypatch):
    """No rank makes an induced copy of G, and only an r2 component with a
    summand of three vertices or more is decomposed again, once:
    1 + (such R2_DIGRAPH nodes) decompositions.  There is one weight
    store, and neither a store nor a decomposition when a connected G
    takes a tree form.  A G that is one block of order _MOD_P_MIN_ORDER or
    more is decomposed once and gets no store.  The corpus holds r2
    components of both kinds."""
    trees = (RuleTag.TREE_MATCHING, RuleTag.R2_TREE)
    r2_ranks = r2_unions = tree_unions = storeless = one_blocks = 0
    r2_copied = r2_uncopied = 0
    for G in copy_guard_corpus():
        cert, d_calls, c_calls, stores = traced_rank(monkeypatch, G)
        rules = [node.rule for node in cert.root.walk()]
        d = decompose(G)
        copied = [
            any(len(set(c.block_vertices) - d.cut_vertices) > 2 for c in node.children)
            for node in cert.root.walk()
            if node.rule is RuleTag.R2_DIGRAPH
        ]
        decomposed = not (G.is_connected() and cert.root.rule in trees)
        one_block = decomposed and G.n >= engine._MOD_P_MIN_ORDER and d.block_count == 1
        store = decomposed and not one_block
        expect = ((1 + sum(copied)) * decomposed, 0, store)
        assert (d_calls, c_calls, stores) == expect, format_digraph(G)
        assert cert.rank == oracle_rank(G)
        r2_ranks += len(copied) > 0
        r2_unions += len(copied) > 1
        r2_copied += sum(copied)
        r2_uncopied += len(copied) - sum(copied)
        tree_unions += not G.is_connected() and any(r in trees for r in rules)
        storeless += not decomposed
        one_blocks += one_block
    assert r2_ranks >= 20 and r2_unions >= 2 and tree_unions >= 5 and storeless >= 10
    assert one_blocks == 4
    assert r2_copied >= 5 and r2_uncopied >= 5


def test_a_connected_tree_of_no_closed_form_is_summarised_once(monkeypatch):
    """A cut-loop bi-arc tree takes neither tree form: rank_recursive asks
    tree_summary about it once, then decomposes it once and peels it."""
    G = biarc_path(5).with_loop(1, Fraction(1)).with_loop(3, Fraction(1))
    assert classify_tree(G) is TreeKind.CUT_LOOP_BI_ARC
    calls = {"tree_summary": 0, "decompose": 0}

    def counted(name):
        real = getattr(engine, name)

        def wrapped(H):
            calls[name] += 1
            return real(H)

        return wrapped

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    cert = rank_recursive(G)
    assert calls == {"tree_summary": 1, "decompose": 1}
    assert cert.root.rule not in (RuleTag.TREE_MATCHING, RuleTag.R2_TREE)
    assert cert.rank == oracle_rank(G)


@pytest.mark.parametrize(
    "family, rule", [("loopless-biarc-tree", RuleTag.TREE_MATCHING), ("r2-tree", RuleTag.R2_TREE)]
)
def test_oracle_check_guards_the_tree_exit(monkeypatch, family, rule):
    """A connected tree is ranked before any decomposition, and the oracle
    check still runs on that exit."""
    G = gen(GenSpec(family, n=20, seed=0))
    assert rank_recursive(G, oracle_check=True).root.rule is rule
    real = engine.oracle_rank
    monkeypatch.setattr(engine, "oracle_rank", lambda H: real(H) + 1)
    with pytest.raises(InternalMismatch):
        rank_recursive(G, oracle_check=True)


# -- the r0 sum rule and the dense leaf ----------------------------------------


def test_r0_sum_rule_stops_at_the_second_failing_block(monkeypatch):
    """The sum rule needs all blocks but one to be r0, so its test visits
    the blocks in (size, index) order and stops at the second block that
    fails; the r2 rule is tried first and fails."""
    G = glued_blocks(random.Random("r0:0"), 30)
    G = build(G.n, [(u, v, w) for u, v, w in G.arcs() if u != v])
    d = decompose(G)
    order = sorted(range(d.block_count), key=lambda b: (len(d.blocks[b]), b))
    failing = [k for k, b in enumerate(order) if not is_r0_block(G, d, b)]
    assert d.block_count == 30 and len(failing) >= 2
    calls = []
    real = engine._r0_block
    monkeypatch.setattr(engine, "_r0_block", lambda *a: calls.append(a[3]) or real(*a))
    cert = rank_recursive(G)
    assert cert.root.rule is RuleTag.COMPONENT_SUM
    assert cert.rank == oracle_rank(G)
    assert calls == order[: failing[1] + 1] and len(calls) < d.block_count


def dense_block(n=40, singular=False):
    """A one-block random digraph (p=0.3); with singular=True, vertex 1's
    out-arcs copy vertex 0's, so its rank is n - 1."""
    G = random_digraph(n, random.Random(0), p=0.3)
    if singular:
        arcs = [(u, v, w) for u, v, w in G.arcs() if u != 1]
        G = build(n, arcs + [(1, v, w) for u, v, w in arcs if u == 0])
    assert decompose(G).block_count == 1
    assert oracle_rank(G) == n - singular
    return G


def test_nonsingular_dense_block_needs_no_bareiss(monkeypatch):
    """Its DIRECT_RANK leaf is proved full by the mod-p pass alone."""
    G = dense_block()
    calls = []
    real = linalg._engine_bareiss
    monkeypatch.setattr(linalg, "_engine_bareiss", lambda *a: calls.append(1) or real(*a))
    cert = rank_recursive(G)
    assert cert.root.rule is RuleTag.DIRECT_RANK and cert.rank == 40
    assert calls == []


@pytest.mark.parametrize("n", [engine._MOD_P_MIN_ORDER - 1, engine._MOD_P_MIN_ORDER])
def test_one_block_is_ranked_from_its_arcs_from_the_mod_p_order(monkeypatch, n):
    """A G that is one block below _MOD_P_MIN_ORDER keeps its weight store
    and its one `rank` call, whose spans perfbench's tracer reads; from
    that order up `leaf_rank` ranks its arc dict, with no store.  The
    block of order 16 is singular, so its rank comes from Bareiss."""
    G = random_digraph(n, random.Random(0), p=0.3)
    assert decompose(G).block_count == 1
    calls = count_eliminations(monkeypatch)
    real = engine.leaf_rank
    arcs = []
    monkeypatch.setattr(engine, "leaf_rank", lambda *a: arcs.append(a[0]) or real(*a))
    cert, d_calls, c_calls, stores = traced_rank(monkeypatch, G)
    big = n >= engine._MOD_P_MIN_ORDER
    assert calls == (["leaf"] if big else ["rank"])
    assert all(a is G._arcs for a in arcs) and len(arcs) == big
    assert (d_calls, c_calls, stores) == (1, 0, int(not big))
    assert cert.root.rule is RuleTag.DIRECT_RANK and cert.root.note == f"n={n}"
    monkeypatch.undo()
    assert cert.rank == oracle_rank(G) == n - big


def test_the_oracle_does_not_use_the_mod_p_pass(monkeypatch):
    """oracle_rank stays Bareiss: it works with the mod-p pass broken, and
    it catches a mod-p pass that claims full rank on a singular block."""
    G, S = dense_block(), dense_block(singular=True)

    def broken(a):
        raise RuntimeError("mod-p pass called")

    monkeypatch.setattr(linalg, "_rank_mod_p", broken)
    assert oracle_rank(G) == 40 and oracle_rank(S) == 39
    with pytest.raises(RuntimeError):
        rank_recursive(G)
    monkeypatch.setattr(linalg, "_rank_mod_p", lambda a: min(len(a), len(a[0])))
    assert rank_recursive(S).rank == 40  # the wrong claim reaches the engine
    with pytest.raises(InternalMismatch):
        rank_recursive(S, oracle_check=True)


PEEL_WRITTEN_LOOP = """\
ComponentSum contributes=0
  CaseIPeel block=1 v=18 contributes=2 [18,21]
  CaseIIILt block=2 v=19 contributes=1 [19,20] (loop residue -1/2)
  DirectRank contributes=19 (n=20)
"""


def peel_written_loop_graph():
    """A random block on 0-19 (seed 0 of a search for the first graph the
    test below accepts) where vertex 19 copies vertex 0's row and has no
    loop, with a bi-arc pendant 18-21 and a pendant 19-20 looped at 20."""
    G = random_digraph(20, random.Random("peel-loop:0"), p=0.4)
    arcs = [(u, t, w) for u, t, w in G.arcs() if u != 19 and (u, t) != (0, 19)]
    arcs += [(19, t, w) for u, t, w in arcs if u == 0]
    pendants = [(19, 20, 1), (20, 19, 1), (20, 20, 2), (18, 21, 1), (21, 18, 1)]
    return build(22, arcs + pendants)


def test_leaf_reads_the_loop_a_peel_wrote():
    """The pendant at 19 writes the residue -1/2 onto 19, which had no loop,
    and 18's row and column are deleted.  The root leaf (19 rows, so it is
    built as sparse rows) is singular without that loop and full with it;
    a leaf that took its diagonal from the graph's own loops would miss
    it and come out one short."""
    G = peel_written_loop_graph()
    assert not G.has_loop(19)
    assert decompose(G).blocks == (tuple(range(20)), (18, 21), (19, 20))
    root = [u for u in range(20) if u != 18]
    leaf = G.induced_subdigraph(root)
    assert len(root) >= engine._MOD_P_MIN_ORDER
    assert (oracle_rank(leaf), oracle_rank(leaf.with_loop(root.index(19), "-1/2"))) == (18, 19)
    cert = rank_recursive(G)
    assert render_certificate(cert) == PEEL_WRITTEN_LOOP
    assert cert.rank == oracle_rank(G) == 22


PEEL_ZEROED_LOOP = """\
ComponentSum contributes=0
  R0Peel block=1 v=19 contributes=1 [19,20]
  DirectRank contributes=19 (n=20)
"""


def peel_zeroed_loop_graph():
    """A random block on 0-19 (seed 0 of a search for the first graph the
    test below accepts) where vertex 19 copies vertex 0's row and has the
    loop 2, with a pendant 20 joined by 19 -> 20 of weight 1, 20 -> 19 of
    weight -1/2 and the loop 1 * (-1/2) / 2 = -1/4 on 20."""
    G = random_digraph(20, random.Random("zero-residue:0"), p=0.4)
    arcs = [(u, t, w) for u, t, w in G.arcs() if u != 19 and (u, t) != (0, 19)]
    arcs += [(19, t, w) for u, t, w in arcs if u == 0]
    alpha, x, y = Fraction(2), Fraction(1), Fraction(-1, 2)
    pendant = [(19, 19, alpha), (19, 20, x), (20, 19, y), (20, 20, x * y / alpha)]
    return build(21, arcs + pendant)


def test_leaf_reads_the_zero_a_peel_wrote_over_a_loop():
    """The pendant's peel at 19 leaves the residue 2 - 1 * (-1/4)^-1 * (-1/2)
    = 0 over 19's own loop 2, so it is an R0 peel.  The root leaf (20 rows,
    so it is built as sparse rows) has 19's row equal to 0's once that loop
    is gone: rank 19, against 20 with the loop kept.  A peel that wrote
    only nonzero residues would leave the loop 2 in place and come out one
    over."""
    G = peel_zeroed_loop_graph()
    assert decompose(G).blocks == (tuple(range(20)), (19, 20))
    leaf = G.induced_subdigraph(range(20))
    assert leaf.n >= engine._MOD_P_MIN_ORDER
    assert (oracle_rank(leaf), oracle_rank(leaf.with_loop(19, 0))) == (20, 19)
    cert = rank_recursive(G)
    assert render_certificate(cert) == PEEL_ZEROED_LOOP
    assert cert.rank == oracle_rank(G) == 20


RECTANGULAR_LEAF = """\
ComponentSum contributes=0
  CaseIIIPeel block=1 v=19 contributes=1 [19,20] ({})
  DirectRank contributes=19 (n=20)
"""


@pytest.mark.parametrize(
    "arc, note", [((19, 20, 1), "out-row deleted"), ((20, 19, 1), "in-column deleted")]
)
def test_rectangular_leaf_is_ranked_from_the_store(monkeypatch, arc, note):
    """A random block on 0-19 (seed 0 of a search for the first graph the
    test accepts) with a pendant 20 joined to 19 by one arc.  With 19 -> 20,
    19's row lies outside the pendant's zero row space, so the peel
    deletes it and the root leaf is 19 x 20; with 20 -> 19 the peel deletes
    19's column, the leaf is 20 x 19, and the leaf's entry dict skips the
    entries the block's rows have in column 19.  Both leaves have full
    rank, proved mod p with no Bareiss call."""
    G = random_digraph(20, random.Random("rect-leaf:0"), p=0.4)
    G = build(21, list(G.arcs()) + [arc])
    assert decompose(G).blocks == (tuple(range(20)), (19, 20))
    assert any(G.has_arc(u, 19) for u in range(19))
    calls, leaves = [], []
    real_bareiss, real_leaf = linalg._engine_bareiss, engine.leaf_rank

    def counted_leaf(entries, nrows, ncols):
        before = len(calls)
        r = real_leaf(entries, nrows, ncols)
        leaves.append((nrows, ncols, r, len(calls) - before))
        return r

    monkeypatch.setattr(linalg, "_engine_bareiss", lambda *a: calls.append(1) or real_bareiss(*a))
    monkeypatch.setattr(engine, "leaf_rank", counted_leaf)
    cert = rank_recursive(G)
    shape = (19, 20) if arc[0] == 19 else (20, 19)
    assert leaves == [(*shape, 19, 0)]
    assert render_certificate(cert) == RECTANGULAR_LEAF.format(note)
    assert cert.rank == oracle_rank(G) == 20


# -- ranks read without elimination: R0 summands and leaves of order <= 1 -------


def count_eliminations(monkeypatch):
    """A list that gets one entry per call of the engine's `rank` or
    `leaf_rank`."""
    calls = []
    real_rank, real_leaf = engine.rank, engine.leaf_rank
    monkeypatch.setattr(engine, "rank", lambda *a: calls.append("rank") or real_rank(*a))
    monkeypatch.setattr(engine, "leaf_rank", lambda *a: calls.append("leaf") or real_leaf(*a))
    return calls


def biblock_with_one_way_pendant():
    """biblock-graph n=60 with the pendant arc c -> 60 at its lowest
    cut-vertex c, which carries no loop: the pendant is the one block that
    fails the r0 test (c's row lies outside the pendant's zero row space)."""
    G = gen(GenSpec("biblock-graph", n=60, seed=0))
    c = min(decompose(G).cut_vertices)
    return G.attach_edge(c, EdgeKind.NC_TILDE_ARC, (2,), toward_new=True)


@pytest.mark.parametrize(
    "make, failing",
    [(lambda: gen(GenSpec("biblock-graph", n=60, seed=0)), 0), (biblock_with_one_way_pendant, 1)],
    ids=["all-r0", "one-non-r0"],
)
def test_r0_summands_take_their_rank_from_the_test_peels(monkeypatch, make, failing):
    """Every R0 summand's rank is rank + delta of the peel the r0 test made
    at its block's first cut-vertex, so the rule ranks no block again."""
    G = make()
    d = decompose(G)
    assert sum(not is_r0_block(G, d, b) for b in range(d.block_count)) == failing
    calls = count_eliminations(monkeypatch)
    cert = rank_recursive(G)
    assert calls == []
    monkeypatch.undo()
    assert cert.root.rule is RuleTag.R0_DIGRAPH
    assert [c.block_index for c in cert.root.children] == list(range(d.block_count))
    for child in cert.root.children:
        b = child.block_index
        assert child.rule is RuleTag.DIRECT_RANK and child.block_vertices == d.blocks[b]
        assert child.contributed == oracle_rank(block_subdigraph(G, d, b))
    assert cert.rank == oracle_rank(G)


def unit_biarcs(*edges):
    return [(u, v, 1) for a, b in edges for u, v in [(a, b), (b, a)]]


THIN_LEAVES = {
    # the root triangle 0-1-2 loses the rows of 1 and 2: a 1 x 3 leaf
    "1x3": (unit_biarcs((0, 1), (1, 2), (2, 0)) + [(1, 3, 1), (2, 4, 1)], "out-row deleted", 1),
    # ... or their columns: a 3 x 1 leaf
    "3x1": (unit_biarcs((0, 1), (1, 2), (2, 0)) + [(3, 1, 1), (4, 2, 1)], "in-column deleted", 1),
    # every row of the root triangle goes: a 0 x 3 leaf
    "0x3": (
        unit_biarcs((0, 1), (1, 2), (2, 0)) + [(0, 3, 1), (1, 4, 1), (2, 5, 1)],
        "out-row deleted",
        0,
    ),
}


@pytest.mark.parametrize("case", THIN_LEAVES)
def test_leaves_with_at_most_one_row_or_column_need_no_elimination(monkeypatch, case):
    """Each pendant hangs by one arc, so its peel deletes its cut-vertex's
    row or column; with two pendants or more, more than one block fails
    the r0 test and the component takes the peel pass.  What is left of
    the root block has at most one row or column, so its rank is 1 exactly
    when one of its entries is nonzero."""
    arcs, note, leaf = THIN_LEAVES[case]
    G = build(max(max(u, v) for u, v, _ in arcs) + 1, arcs)
    calls = count_eliminations(monkeypatch)
    cert = rank_recursive(G)
    assert calls == []
    monkeypatch.undo()
    *peels, root = cert.root.children
    assert all(p.rule is RuleTag.CASE_III_PEEL and p.note == note for p in peels)
    assert root.rule is RuleTag.DIRECT_RANK and root.contributed == leaf
    assert cert.rank == oracle_rank(G) == len(peels) + leaf


def two_by_two_rank(entries, stored_zero):
    """`_rank_2x2` read as `_peel_pass` reads it: rows u = 0 and w = 1,
    columns s = 2 and t = 3 of a store whose zero entries are absent or
    stored as Fraction(0)."""
    (a, b), (c, e) = entries
    W = {0: {}, 1: {}}
    for row, t, x in ((0, 2, a), (0, 3, b), (1, 2, c), (1, 3, e)):
        if x or stored_zero:
            W[row][t] = Fraction(x)
    return engine._rank_2x2(W[0].get(2), W[0].get(3), W[1].get(2), W[1].get(3))


@pytest.mark.parametrize("stored_zero", [False, True])
@pytest.mark.parametrize("pattern", range(16))
@pytest.mark.parametrize("values", [(1, 2, 3, 6), (Fraction(-1, 2), 3, Fraction(5, 7), 4)])
def test_two_by_two_leaf_is_rank(pattern, values, stored_zero):
    """Each of the 16 zero patterns, over entries whose determinant is 0
    when all four are nonzero (1 2 / 3 6) and entries where it is not."""
    flat = [x if pattern >> k & 1 else 0 for k, x in enumerate(values)]
    entries = [flat[:2], flat[2:]]
    assert two_by_two_rank(entries, stored_zero) == rank(RationalMatrix(entries)).rank


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=4, max_size=4))
@example([Fraction(1, 3), Fraction(2, 5), Fraction(5, 6), 1])  # ae = bc = 1/3
@settings(max_examples=300, deadline=None)
def test_two_by_two_leaf_is_rank_on_rationals(flat):
    entries = [flat[:2], flat[2:]]
    for stored_zero in (False, True):
        assert two_by_two_rank(entries, stored_zero) == rank(RationalMatrix(entries)).rank


def test_two_by_two_root_leaf_needs_no_elimination(monkeypatch):
    """The root block is the one-way pendant 0 -> 1, so its leaf is 2 x 2;
    the bi-arc triangle 1-2-3 below it is peeled at 1 and leaves a loop
    residue of -2 on 1.  The leaf [[0, 1], [0, -2]] has rank 1."""
    G = build(4, [(0, 1, 1)] + unit_biarcs((1, 2), (2, 3), (3, 1)))
    calls = count_eliminations(monkeypatch)
    cert = rank_recursive(G)
    assert calls == []
    monkeypatch.undo()
    peel, root = cert.root.children
    assert peel.rule is RuleTag.CASE_III_LT and peel.note == "loop residue -2"
    assert root.rule is RuleTag.DIRECT_RANK and root.contributed == 1
    assert cert.rank == oracle_rank(G) == 3


ZERO_RESIDUE_LEAF = """\
ComponentSum contributes=0
  CaseIIIPeel block=1 v=0 contributes=1 [0,3] (out-row deleted)
  R0Peel block=2 v=1 contributes=1 [1,2]
  DirectRank contributes=0 (n=2)
"""


def test_one_row_leaf_counts_a_zero_residue_as_zero(monkeypatch):
    """The root edge is the one arc 0 -> 1.  The pendant arc 0 -> 3 deletes
    0's row, and the looped pendant 2 (loop 1, bi-arc 1) turns 1's loop 1
    into the residue 1 - 1 * 1 * 1 = Fraction(0), which the peel writes
    into W.  The leaf is 1's row over the columns 0 and 1: no arc 1 -> 0
    and that stored zero, so it has rank 0; a leaf that counted stored
    entries would come out one over."""
    G = build(4, [(0, 1, 3), (0, 3, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)])
    calls = count_eliminations(monkeypatch)
    cert = rank_recursive(G)
    assert calls == []
    monkeypatch.undo()
    assert render_certificate(cert) == ZERO_RESIDUE_LEAF
    assert cert.rank == oracle_rank(G) == 2


# -- one peel per (block, cut), shared by the sum-rule tests and the pass ------


def triangle_with_two_pendants(*pendants):
    """The unit bi-arc triangle 0-1-2, rooted at its block, with pendant
    vertices 3 and 4 joined to the cut-vertex 2 by the given arcs."""
    edges = [(0, 1), (1, 2), (2, 0)]
    arcs = [(u, v, 1) for a, b in edges for u, v in [(a, b), (b, a)]]
    G = build(5, arcs + list(pendants))
    assert decompose(G).blocks == ((0, 1, 2), (2, 3), (2, 4))
    return G


SIBLING_LOOP = """\
ComponentSum contributes=0
  CaseIIILt block=1 v=2 contributes=1 [2,3] (loop residue -1)
  CaseIIILt block=2 v=2 contributes=1 [2,4] (loop residue -3)
  DirectRank contributes=3 (n=3)
"""


def test_shared_peel_reads_the_loop_a_sibling_wrote():
    """Both pendants at 2 are bi-arcs to a looped vertex, so neither is an
    r2 nor an r0 block and the component takes the peel pass.  Pendant 3
    turns 2's missing loop into 0 - 1 * 1 * 1 = -1; pendant 4 then peels
    against that loop: -1 - 1 * 1 * 2 = -3.  Its peel is the one the
    sum-rule tests computed with loop 0 (residue -2), so a pass that took
    that residue as it stands would print -2 and rank the root leaf on
    the wrong loop."""
    G = triangle_with_two_pendants(
        (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 4, 1), (4, 2, 2), (4, 4, 1)
    )
    cert = rank_recursive(G)
    assert render_certificate(cert) == SIBLING_LOOP
    assert cert.rank == oracle_rank(G) == 5


SIBLING_DELETES = {
    "row": """\
ComponentSum contributes=0
  CaseIIIPeel block=1 v=2 contributes=1 [2,3] (out-row deleted)
  R0Peel block=2 v=2 contributes=1 [2,4]
  DirectRank contributes=2 (n=3)
""",
    "column": """\
ComponentSum contributes=0
  CaseIIIPeel block=1 v=2 contributes=1 [2,3] (in-column deleted)
  R0Peel block=2 v=2 contributes=1 [2,4]
  DirectRank contributes=2 (n=3)
""",
}


@pytest.mark.parametrize("deleted", SIBLING_DELETES)
def test_shared_peel_after_a_sibling_deleted_the_row_or_column(deleted):
    """Pendant 3 hangs by the one arc 2 -> 3 (or 3 -> 2), so its peel
    deletes 2's row (or column).  Pendant 4 shares the peel the sum-rule
    tests computed on the whole matrix: both memberships hold there, but
    2 has lost a row or column, so it is an R0 peel that writes no loop."""
    arc = (2, 3, 1) if deleted == "row" else (3, 2, 1)
    G = triangle_with_two_pendants(arc, (2, 4, 1), (4, 2, 2), (4, 4, 1))
    cert = rank_recursive(G)
    assert render_certificate(cert) == SIBLING_DELETES[deleted]
    assert cert.rank == oracle_rank(G) == 4


def big_block_with_pendant(root_in_block):
    """dense_block() plus one pendant arc.  With root_in_block the block
    holds vertex 0 and is the root of the block-cut tree, with the arc
    0 -> 40 below it; otherwise the block is shifted to 1-40 and hangs
    below the root pendant 0 -> 1."""
    arcs = list(dense_block().arcs())
    if root_in_block:
        return build(41, arcs + [(0, 40, 1)])
    return build(41, [(u + 1, v + 1, w) for u, v, w in arcs] + [(0, 1, 1)])


@pytest.mark.parametrize("root_in_block", [True, False], ids=["block-root", "block-leaf"])
def test_one_big_elimination_per_rank(monkeypatch, root_in_block):
    """The 40-vertex block's peel at its cut-vertex is the only elimination
    with 39 pivot rows or more: the r2 test computes it, and the r0 test
    and, when the block is a leaf, the peel pass reuse it.  The root leaf
    is proved full rank mod p.  Each of them used to eliminate it anew."""
    G = big_block_with_pendant(root_in_block)
    big = []
    real = linalg._engine_bareiss

    def counted(a, prows, pcols):
        big.append(prows >= 39)
        return real(a, prows, pcols)

    monkeypatch.setattr(linalg, "_engine_bareiss", counted)
    cert = rank_recursive(G)
    assert sum(big) == 1
    monkeypatch.undo()
    assert cert.rank == oracle_rank(G) == 40


# -- the cut peel: integer rows read from the weight store ----------------------

# 0 is stored explicitly, as a peel writes a zero residue; 1/32749 and 32749
# put the mod-p prime into a denominator and a numerator.
STORE_WEIGHTS = [
    Fraction(x) for x in (0, 1, -1, 2, 3, "1/2", "-3/7", "5/6", 32749, "1/32749", "5/32749")
]


@st.composite
def cut_peels(draw):
    """(W, rows, cols, v): a store over scattered labels, rows and cols
    drawn from the peel's labels (possibly none), and arcs to labels
    outside the peel."""
    labels = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True))
    v, inside = labels[0], labels[1:]
    rows = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
    cols = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
    targets = st.sampled_from(labels) | st.integers(41, 60)
    W = {u: draw(st.dictionaries(targets, st.sampled_from(STORE_WEIGHTS))) for u in labels}
    return W, rows, cols, v


def dense_schur_peel(W, rows, cols, v):
    x = [W[v].get(t, 0) for t in cols]
    y = [W[u].get(v, 0) for u in rows]
    B = RationalMatrix([[W[u].get(t, 0) for t in cols] for u in rows], cols=len(cols))
    return schur_peel(0, x, y, B)


@given(cut_peels())
@example(({0: {0: Fraction(2), 50: Fraction(1)}}, [], [], 0))  # |B| = 0
@example(
    (
        {
            0: {0: Fraction(0), 1: Fraction(1, 32749), 50: Fraction(3)},
            1: {0: Fraction(2), 1: Fraction(0), 2: Fraction(-1)},
        },
        [1],
        [1],
        0,
    )
)
@settings(max_examples=300, deadline=None)
def test_cut_peel_matches_schur_peel_on_the_dense_matrices(peel):
    """All five fields: rank, both memberships, residue and delta."""
    assert engine._cut_peel(*peel) == dense_schur_peel(*peel)


@st.composite
def bordered_digraphs(draw):
    """A digraph on 1 + k vertices, k = 0..5, whose vertex 0 borders B, the
    matrix on the rest: its row x, column y and loop alpha.  x is often a
    combination of B's rows and y of its columns, y = B d, and alpha then
    often x.d, so that the residue alpha - x.d is zero."""
    k = draw(st.integers(0, 5))
    weight = st.sampled_from(STORE_WEIGHTS)
    vec = st.lists(weight, min_size=k, max_size=k)
    B = [draw(vec) for _ in range(k)]
    if draw(st.booleans()):
        c = draw(vec)
        x = [sum((c[i] * B[i][j] for i in range(k)), Fraction(0)) for j in range(k)]
    else:
        x = draw(vec)
    alpha = draw(weight)
    if draw(st.booleans()):
        d = draw(vec)
        y = [sum((B[i][j] * d[j] for j in range(k)), Fraction(0)) for i in range(k)]
        if draw(st.booleans()):
            alpha = sum((x[j] * d[j] for j in range(k)), Fraction(0))
    else:
        y = draw(vec)
    arcs = [(0, 0, alpha)] + [(0, j + 1, w) for j, w in enumerate(x)]
    arcs += [(i + 1, 0, w) for i, w in enumerate(y)]
    arcs += [(i + 1, j + 1, w) for i, row in enumerate(B) for j, w in enumerate(row)]
    return build(k + 1, [a for a in arcs if a[2]])


@given(bordered_digraphs())
@example(build(1, []))  # |B| = 0, alpha = 0
@example(build(2, [(0, 0, 2), (0, 1, 1), (1, 0, 2), (1, 1, 1)]))  # residue 2 - 1*2 = 0
@settings(max_examples=400, deadline=None)
def test_peel_rows_delta_is_the_rank_the_border_adds(G):
    """_peel_rows on [B | y] and [x, alpha] read as integer rows: its rank is
    r(B) and its delta r(G) - r(B), both by the dense oracle."""
    W, rest = G.out_rows(), list(range(1, G.n))
    border, scale = linalg._int_row(W[0], rest + [0])
    peel = linalg._peel_rows([linalg._int_row(W[u], rest + [0])[0] for u in rest], border, scale)
    r_B = oracle_rank(G.delete_vertices([0]))
    assert peel.rank == r_B
    assert peel.delta == oracle_rank(G) - r_B


class UnwalkedRow(dict):
    """An out-dict that may be looked up but never iterated."""

    def __iter__(self):
        raise AssertionError("the peel walked a row of the store")

    items = keys = values = __iter__


def test_cut_peel_never_walks_the_cut_vertex_row():
    """A cut-vertex's out-dict holds its arcs into every block at it; the
    peel reads only the labels of its own block."""
    v, rest = 0, [1, 2, 3]
    hub = {t: Fraction(1, t) for t in range(4, 10_004)}
    hub.update({1: Fraction(1), 3: Fraction(-2, 3)})
    W = {v: hub, 1: {2: Fraction(1), 0: Fraction(1)}, 2: {3: Fraction(1)}, 3: {1: Fraction(1)}}
    W = {u: UnwalkedRow(row) for u, row in W.items()}
    assert engine._cut_peel(W, rest, rest, v) == dense_schur_peel(W, rest, rest, v)


def general_peel(W, rows, cols, v):
    """`_cut_peel`'s route for B of any size: `_peel_rows` on the integer
    rows [B | y] and [x, 0]."""
    border, scale = linalg._int_row(W[v], cols)
    border.append(0)
    ext = cols + [v]
    return linalg._peel_rows([linalg._int_row(W[u], ext)[0] for u in rows], border, scale)


def no_bareiss(a, prows, pcols):
    raise AssertionError("the 1x1 peel eliminated")


@pytest.mark.parametrize("b", [0, Fraction(-3, 2)])
@pytest.mark.parametrize("x", [0, Fraction(2)])
@pytest.mark.parametrize("y", [0, Fraction(5, 7)])
@pytest.mark.parametrize("stored_zero", [False, True])
@pytest.mark.parametrize("loop", [None, Fraction(4)])
def test_one_by_one_peel_is_the_general_peel(monkeypatch, b, x, y, stored_zero, loop):
    """B = [b] on u, bordered by v's x = W[v][u] and y = W[u][v]: every zero
    pattern, each zero absent or stored as the Fraction(0) a peel writes,
    with and without a loop on v, which the peel (loop 0) must not read.
    All five fields and their types agree with the general route and with
    schur_peel on the dense matrices, and no elimination runs."""
    v, u = 0, 1
    W = {v: {9: Fraction(1)}, u: {}}
    for row, t, w in ((u, u, b), (v, u, x), (u, v, y)):
        if w or stored_zero:
            W[row][t] = Fraction(w)
    if loop is not None:
        W[v][v] = loop
    expect = general_peel(W, [u], [u], v)
    assert expect == dense_schur_peel(W, [u], [u], v)
    monkeypatch.setattr(linalg, "_engine_bareiss", no_bareiss)
    peel = engine._cut_peel(W, [u], [u], v)
    assert peel == expect
    assert list(map(type, peel)) == list(map(type, expect))


@pytest.mark.parametrize("seed", range(3))
def test_r2_test_settles_each_cut_with_its_pendant_edge(monkeypatch, seed):
    """In an r2-block-graph each cut-vertex has one pendant edge and its
    other blocks are complete.  The r2 test visits a cut's blocks smallest
    first, so every peel is the pendant edge's 1x1, one per cut-vertex."""
    G = gen(GenSpec("r2-block-graph", n=40, seed=seed))
    d = decompose(G)
    sizes = []
    real = engine._cut_peel

    def counted(W, rows, cols, v):
        sizes.append(len(rows))
        return real(W, rows, cols, v)

    monkeypatch.setattr(engine, "_cut_peel", counted)
    cert = rank_recursive(G)
    assert cert.root.rule is RuleTag.R2_DIGRAPH
    assert cert.rank == oracle_rank(G) == G.n
    assert len(d.cut_vertices) >= 3 and sizes == [1] * len(d.cut_vertices)


def _two_triangles(loop):
    """Two unit bi-arc triangles sharing cut-vertex 0, with loop `loop` at 0.
    Each triangle's residue at 0 is 2, so with loop 2 both blocks are
    r0-blocks, and with no loop neither is an r0- or an r2-block."""
    arcs = []
    for u, v in ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)):
        arcs += [(u, v, 1), (v, u, 1)]
    return build(5, arcs).with_loop(0, loop)


def test_rank_r0_digraph_refuses_a_looped_cut_vertex_of_an_r0_digraph():
    """The loop test fires only when the r0-block test passes."""
    G = _two_triangles(2)
    assert is_r0_digraph(G, decompose(G))
    with pytest.raises(PreconditionViolated, match=r"cut-vertices \[0\] carry loops"):
        rank_r0_digraph(G)


@pytest.mark.parametrize("loop,holds", [(2, True), (0, False)])
def test_is_r0_digraph_decomposes_when_given_no_decomposition(loop, holds):
    G = _two_triangles(loop)
    assert is_r0_digraph(G) is is_r0_digraph(G, decompose(G)) is holds


def test_loop_invariance_check_refuses_a_digraph_that_is_not_r2():
    G = _two_triangles(0)
    assert not is_r2_digraph(G)
    with pytest.raises(PreconditionViolated, match="r2-digraphs"):
        loop_invariance_check(G)
