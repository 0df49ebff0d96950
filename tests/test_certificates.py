"""Certificate text pinned byte for byte.

`render_certificate` output for six graphs, the first four frozen from the
engine that introduced the single peel pass.  Between them they cover
CASE_III_PEEL with both notes, R0_PEEL, CASE_III_LT, DIRECT_RANK,
R2_DIGRAPH, R0_DIGRAPH, TREE_MATCHING, R2_TREE and COMPONENT_SUM, and a
disjoint union whose components take every route; any change to how a peel
is decided that moves a rank, a deleted row or column, or a loop residue
shows up here as a text diff, as does one that moves a component's place
or a block index.  One sha256 over the certificates of a seeded corpus of
1,680 graphs pins the rest, so a change meant only to be faster is checked
byte for byte on every rule; one more per benchmark workload pins the
graphs the benchmark times.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from digrank import (
    CertNode,
    EdgeKind,
    GenSpec,
    RankCertificate,
    RuleTag,
    build,
    decompose,
    gen,
    random_digraph,
    rank_recursive,
    render_certificate,
)
from digrank.generate import FAMILIES

MIXED_ARC_DIGRAPH_14 = """\
ComponentSum contributes=0
  CaseIIIPeel block=4 v=3 contributes=1 [3,12] (in-column deleted)
  CaseIIIPeel block=1 v=0 contributes=2 [0,3,4] (in-column deleted)
  R0Peel block=5 v=5 contributes=1 [5,10,11]
  R0Peel block=6 v=7 contributes=2 [7,8,9]
  R0Peel block=2 v=0 contributes=3 [0,5,6,7]
  CaseIIIPeel block=3 v=1 contributes=1 [1,13] (out-row deleted)
  DirectRank contributes=2 (n=3)
"""

R2_EXTENDED_DIGRAPH_19 = """\
R2Digraph contributes=10 (m=5)
  DirectRank block=0 contributes=1 [0,1,2] (n=1)
  DirectRank block=1 contributes=0 [0,3,4] (n=1)
  DirectRank block=2 contributes=1 [0,5,6,7] (n=1)
  DirectRank block=3 contributes=0 [0,15] (n=1)
  DirectRank block=4 contributes=0 [1,13] (n=1)
  DirectRank block=5 contributes=0 [1,14] (n=1)
  DirectRank block=6 contributes=0 [3,12] (n=1)
  DirectRank block=7 contributes=0 [3,16] (n=1)
  DirectRank block=8 contributes=1 [5,10,11] (n=2)
  DirectRank block=9 contributes=0 [5,18] (n=1)
  DirectRank block=10 contributes=2 [7,8,9] (n=2)
  DirectRank block=11 contributes=0 [7,17] (n=1)
"""

BLOCK_GRAPH_19 = """\
R2Digraph contributes=10 (m=5)
  DirectRank block=0 contributes=0 [0,1,2] (n=1)
  DirectRank block=1 contributes=0 [0,3,4] (n=1)
  DirectRank block=2 contributes=0 [0,5,6,7] (n=1)
  DirectRank block=3 contributes=0 [0,15] (n=1)
  DirectRank block=4 contributes=0 [1,13] (n=1)
  DirectRank block=5 contributes=0 [1,14] (n=1)
  DirectRank block=6 contributes=0 [3,12] (n=1)
  DirectRank block=7 contributes=0 [3,16] (n=1)
  DirectRank block=8 contributes=2 [5,10,11] (n=2)
  DirectRank block=9 contributes=0 [5,18] (n=1)
  DirectRank block=10 contributes=2 [7,8,9] (n=2)
  DirectRank block=11 contributes=0 [7,17] (n=1)
"""

EVERY_ROUTE_UNION_29 = """\
ComponentSum contributes=0
  TreeMatching contributes=2 (q=1)
  R0Digraph contributes=0
    DirectRank block=1 contributes=2 [1,3,15,20] (n=4)
    DirectRank block=2 contributes=2 [1,8,13,25] (n=4)
  R2Tree contributes=9 (q=4 s=1)
  ComponentSum contributes=0
    CaseIIILt block=10 v=27 contributes=2 [10,22,27] (loop residue -2)
    DirectRank contributes=1 (n=2)
  R2Digraph contributes=2 (m=1)
    DirectRank block=7 contributes=2 [6,11,23] (n=2)
    DirectRank block=11 contributes=0 [11,18] (n=1)
  DirectRank contributes=1 (n=1)
"""

LOOP_RESIDUE = """\
ComponentSum contributes=0
  CaseIIILt block=1 v=1 contributes=1 [1,2] (loop residue 1)
  DirectRank contributes=1 (n=2)
"""


R2_SPLIT_SUMMANDS = """\
R2Digraph contributes=4 (m=2)
  ComponentSum block=0 contributes=0 [0,1,2,3,4]
    DirectRank contributes=0 (n=1)
    DirectRank contributes=2 (n=2)
  DirectRank block=1 contributes=0 [0,5] (n=1)
  ComponentSum block=2 contributes=0 [0,7,8,9,10,11]
    CaseIIILt v=9 contributes=2 [9,10,11] (loop residue -2)
    DirectRank contributes=3 (n=3)
  DirectRank block=3 contributes=0 [2,6] (n=1)
"""


def r2_split_summands_graph():
    """An r2-digraph whose cuts 0 and 2 carry bi-arc pendants 5 and 6.  The
    5-cycle 0-4 minus its cuts falls into two components, {1} and {3, 4};
    the block on 0 and 7-11 minus 0 is two triangles glued at 9, so its
    summand has two blocks and a peel."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6),
        (0, 7), (7, 8), (8, 9), (9, 7), (9, 10), (10, 11), (11, 9), (11, 0),
    ]
    return build(12, [(u, v, 1) for a, b in edges for u, v in [(a, b), (b, a)]])


def loop_residue_graph():
    """The 3-vertex graph of test_case3_peel_loop_residue: bordered rows
    [[1,1,0],[1,2,1],[0,1,1]], residue 2 - 1 = 1 at vertex 1."""
    return build(
        3,
        [
            (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2),
            (1, 2, 1), (2, 1, 1), (2, 2, 1),
        ],
    )


@pytest.mark.parametrize(
    "fixture,expected",
    [
        ("mixed_arc_digraph_14", MIXED_ARC_DIGRAPH_14),
        ("r2_extended_digraph_19", R2_EXTENDED_DIGRAPH_19),
        ("block_graph_19", BLOCK_GRAPH_19),
        ("every_route_union_29", EVERY_ROUTE_UNION_29),
    ],
)
def test_fixture_certificate_text_is_frozen(fixture, expected, request):
    G = request.getfixturevalue(fixture)
    assert render_certificate(rank_recursive(G)) == expected


def test_loop_residue_certificate_text_is_frozen():
    assert render_certificate(rank_recursive(loop_residue_graph())) == LOOP_RESIDUE


def test_r2_summands_keep_their_components_and_blocks():
    """Each summand holds the components of its own block, in order, and
    the peels and leaves of a summand with several blocks."""
    cert = rank_recursive(r2_split_summands_graph())
    assert render_certificate(cert) == R2_SPLIT_SUMMANDS
    assert cert.rank == 11


def test_block_index_names_that_block_of_the_graph():
    """A node's block=i is block i of decompose(G), as `digrank decompose`
    prints it, in disconnected graphs and inside sum-rule summands too."""
    rng = random.Random(3)
    indexed = 0
    for _ in range(600):
        G = random_digraph(rng.randint(4, 14), rng, p=0.18)
        blocks = decompose(G).blocks
        for node in rank_recursive(G).root.walk():
            if node.block_index is not None:
                indexed += 1
                assert blocks[node.block_index] == node.block_vertices
    assert indexed > 500


# Each pendant shape with the number of weights it takes.
PENDANTS = {
    EdgeKind.SIMPLE_EDGE: 1,
    EdgeKind.NC_TILDE_EDGE: 2,
    EdgeKind.NC_TILDE_ARC: 1,
    EdgeKind.NC_EDGE: 3,
    EdgeKind.NC_ARC: 2,
}


def digest_corpus():
    """Every family at n = 3, 8, 17, 30, 50 with seeds 0-3; 1,200 seeded
    random digraphs of 4-40 vertices, sparse enough that most have several
    blocks; and 300 random digraphs of 3-20 vertices with 1-4 pendants of
    random shape, often several on one cut-vertex: 1,680 graphs covering
    every rule the engine emits."""
    for family in FAMILIES:
        for n in (3, 8, 17, 30, 50):
            for seed in range(4):
                base = None
                if family == "r2-extension":
                    base = gen(GenSpec("random-digraph", n=n // 2, seed=seed))
                yield gen(GenSpec(family, n=n, seed=seed, base=base))
    rng = random.Random("certificate-digest")
    for _ in range(1200):
        n = rng.randint(4, 40)
        yield random_digraph(n, rng, p=rng.choice((0.06, 0.1, 0.18, 0.3)))
    for _ in range(300):
        G = random_digraph(rng.randint(3, 20), rng, p=rng.choice((0.1, 0.3)))
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(list(PENDANTS))
            ws = tuple(rng.choice((1, -1, 2, "1/2")) for _ in range(PENDANTS[kind]))
            G = G.attach_edge(rng.randrange(G.n), kind, ws, rng.random() < 0.5)
        yield G


CORPUS_DIGEST = "cbd05411c1307078ef631f6c12f97e00c2fabda21f6f152b58c3b1dee91e38ed"


def test_certificate_text_of_the_corpus_is_frozen():
    """The sha256 of every certificate of the corpus, rendered in order, as
    the engine before the shared (block, cut) peels produced it: a change
    meant to be only faster must leave every byte in place."""
    h = hashlib.sha256()
    for G in digest_corpus():
        h.update(render_certificate(rank_recursive(G)).encode())
    assert h.hexdigest() == CORPUS_DIGEST


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sha256 of the seed-1 graph sets of the benchmark's four workloads, each
# certificate rendered in order, as BENCH_26.json records them
WORKLOAD_DIGESTS = {
    "glued-blocks": "59508bb0d7471cc29d477626fffedbabbbb263f3cde2d6f25afe31702b1ca148",
    "dense-random": "81a5c88d1f5849000810970ab37e86f11bd73ef3c76ddf3f45c6d37f415be19b",
    "closed-forms": "8a5a116dcc593a95f2898f6c467c95d798e51fc936a1244922648e0c20fa2c4e",
    "small-mixed": "23e00ca78e56f40efc3dd997bc207268f7627c92d92c0932c93e640fe8589bb8",
}


@pytest.mark.parametrize("workload", WORKLOAD_DIGESTS)
def test_certificate_text_of_the_benchmark_workloads_is_frozen(workload):
    """The benchmark times these graphs, so a change made to be faster on
    them is checked byte for byte on them, read from perfbench's own
    `make_graphs`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    h = hashlib.sha256()
    for _, G in workloads.make_graphs(workload, 1):
        h.update(render_certificate(rank_recursive(G)).encode())
    assert h.hexdigest() == WORKLOAD_DIGESTS[workload]


HAND_BUILT = """\
R0Digraph contributes=0
  DirectRank block=0 contributes=3 [0,1,2] (n=3)
  CaseIIILt block=1 v=2 contributes=1 [2,3] (loop residue -1/2)
"""


def test_cert_node_is_immutable_with_its_defaults():
    """Keyword and positional construction, the defaults, `total`, `walk`,
    and the rendering of a hand-built tree; a field cannot be assigned."""
    leaf = CertNode(RuleTag.DIRECT_RANK, 3, block_index=0, block_vertices=(0, 1, 2), note="n=3")
    peel = CertNode(RuleTag.CASE_III_LT, 1, (), 1, (2, 3), 2, "loop residue -1/2")
    root = CertNode(rule=RuleTag.R0_DIGRAPH, contributed=0, children=(leaf, peel))
    bare = CertNode(RuleTag.COMPONENT_SUM, 0)
    assert bare.children == () and bare.note == ""
    assert bare.block_index is bare.block_vertices is bare.cut_vertex is None
    assert root.total == 4 and list(root.walk()) == [root, leaf, peel]
    assert render_certificate(RankCertificate(root.total, root)) == HAND_BUILT
    for field in ("rule", "contributed", "children", "note"):
        with pytest.raises(AttributeError):
            setattr(root, field, None)


def test_cert_node_is_a_tuple_of_its_seven_fields():
    """CertNode is a named tuple: it equals the plain tuple of its fields in
    declaration order, has len 7, indexes and unpacks like that tuple, and
    hashes as it does; two nodes with equal fields are equal."""
    node = CertNode(RuleTag.CASE_I_PEEL, 2, (), 4, (4, 5), 4, "note")
    fields = (RuleTag.CASE_I_PEEL, 2, (), 4, (4, 5), 4, "note")
    assert isinstance(node, tuple) and len(node) == 7
    assert node == fields and hash(node) == hash(fields)
    assert node[0] is RuleTag.CASE_I_PEEL and node[-1] == "note"
    rule, contributed, *_ = node
    assert (rule, contributed) == (RuleTag.CASE_I_PEEL, 2)
    assert node == CertNode(*fields) and node != CertNode(RuleTag.CASE_I_PEEL, 1)
