"""The simple-graph family recognisers against their literal definitions.

`oracles.py` spells out the r2-block-graph, r2-biblock-graph and
r0-biblock-graph hypotheses with networkx (biconnected components, clique
and bipartite checks).  The package's predicates must agree with them on
family graphs and on family graphs one mutation away from membership, and
must read the graph a fixed number of times, however many blocks it has.
"""

import random

import pytest

from digrank import (
    GenSpec,
    RuleTag,
    WeightedDigraph,
    build,
    decompose,
    gen,
    is_r0_biblock_graph,
    is_r2_biblock_graph,
    is_r2_block_graph,
    rank_r0_biblock_graph,
    rank_r2_biblock_graph,
    rank_r2_block_graph,
)
from digrank import engine
from digrank.generate import FAMILIES
from digrank.trees import (
    classify_tree,
    count_loop_attachments,
    is_r2_tree_digraph,
    tree_summary,
)
from oracles import (
    r0_biblock_graph_networkx,
    r2_biblock_graph_networkx,
    r2_block_graph_networkx,
)

PREDICATES = [
    (is_r2_block_graph, r2_block_graph_networkx),
    (is_r2_biblock_graph, r2_biblock_graph_networkx),
    (is_r0_biblock_graph, r0_biblock_graph_networkx),
]


def _unit(n, edges):
    return build(n, [(u, v, 1) for u, v in edges] + [(v, u, 1) for u, v in edges])


def _mutants(G: WeightedDigraph, rng: random.Random):
    """G's unit simple copy with an edge removed, a chord added, a leaf
    added; and G with one arc reweighted."""
    edges = sorted({(min(u, v), max(u, v)) for u, v, _ in G.arcs() if u != v})
    yield _unit(G.n, edges)
    if edges:
        gone = rng.choice(edges)
        yield _unit(G.n, [e for e in edges if e != gone])
        arcs = list(G.arcs())
        u0, v0, w0 = rng.choice([a for a in arcs if a[0] != a[1]])
        yield build(G.n, [(u, v, 2 * w if (u, v) == (u0, v0) else w) for u, v, w in arcs])
    if G.n >= 2:
        a, b = sorted(rng.sample(range(G.n), 2))
        yield _unit(G.n, sorted(set(edges) | {(a, b)}))
    yield _unit(G.n + 1, edges + [(rng.randrange(G.n), G.n)])


def _corpus():
    rng = random.Random(5)
    for family in FAMILIES:
        if family == "r2-extension":
            continue
        for n in range(1, 25):
            for seed in range(2):
                G = gen(GenSpec(family, n=n, seed=seed))
                yield G
                yield from _mutants(G, rng)


def test_family_predicates_match_networkx_definitions():
    graphs = list(_corpus())
    for ours, literal in PREDICATES:
        answers = [ours(G) for G in graphs]
        wrong = [G for G, a in zip(graphs, answers) if a != literal(G)]
        assert not wrong, (ours.__name__, wrong[:3])
        positives = sum(answers)
        assert 100 <= positives <= len(graphs) - 100, (ours.__name__, positives)


def _count_reads(monkeypatch):
    calls = {"underlying_edges": 0, "underlying_adjacency": 0, "decompose": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("underlying_edges", "underlying_adjacency"):
        monkeypatch.setattr(
            WeightedDigraph, name, counting(name, getattr(WeightedDigraph, name))
        )
    monkeypatch.setattr(engine, "decompose", counting("decompose", engine.decompose))
    return calls


# (predicate, family, n with about 50 blocks, n with about 200 blocks)
SCALED = [
    (is_r2_block_graph, "r2-block-graph", 90, 360),
    (rank_r2_block_graph, "r2-block-graph", 90, 360),
    (is_r2_biblock_graph, "r2-biblock-graph", 120, 450),
    (rank_r2_biblock_graph, "r2-biblock-graph", 120, 450),
    (is_r0_biblock_graph, "biblock-graph", 200, 800),
    (rank_r0_biblock_graph, "biblock-graph", 200, 800),
    (classify_tree, "r2-tree", 40, 150),
    (is_r2_tree_digraph, "r2-tree", 40, 150),
    (count_loop_attachments, "r2-tree", 40, 150),
]


@pytest.mark.parametrize(
    "predicate, family, small, large", SCALED, ids=[f"{p.__name__}" for p, *_ in SCALED]
)
def test_recognisers_read_the_graph_a_fixed_number_of_times(
    monkeypatch, predicate, family, small, large
):
    counts = []
    for n, lo, hi in ((small, 40, 70), (large, 170, 260)):
        G = gen(GenSpec(family, n=n, seed=0))
        assert lo <= decompose(G).block_count <= hi
        calls = _count_reads(monkeypatch)
        assert predicate(G)
        counts.append(dict(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) <= 6, counts[0]



@pytest.mark.parametrize(
    "family, rule", [("loopless-biarc-tree", RuleTag.TREE_MATCHING), ("r2-tree", RuleTag.R2_TREE)]
)
def test_tree_closed_forms_read_the_graph_once(monkeypatch, family, rule):
    """The tree forms derive the neighbour sets once for kind, matching and
    looped leaves; the engine's one decompose reads them once more."""
    for n in (60, 240):
        G = gen(GenSpec(family, n=n, seed=0))
        calls = _count_reads(monkeypatch)
        kind, q, s = tree_summary(G)
        assert dict(calls) == {"underlying_edges": 0, "underlying_adjacency": 1, "decompose": 0}
        calls.update(dict.fromkeys(calls, 0))
        cert = engine.rank_recursive(G)
        assert dict(calls) == {"underlying_edges": 0, "underlying_adjacency": 2, "decompose": 1}
        monkeypatch.undo()
        assert cert.root.rule is rule and cert.rank == 2 * q + s
