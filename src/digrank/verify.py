"""Randomized self-check suites: every formula against dense elimination.

Each suite draws seeded instances from the generators, applies one of the
structural rank results, and compares against the exact dense oracle.
A SuiteReport records how many instances ran, every disagreement found
(with the offending instance serialized so it can be replayed), and the
wall time.  Suites are deterministic in (name, seed, count, max_n).

One driver, `_drive`, runs every suite but case3; a suite supplies only a
check, `check(rng, max_n)`, that draws once and returns None for a draw
that is not an instance, or else the instance's failure entries (empty
when it passes).  The driver stops at `count` instances or at its draw
limit (`count` draws, count * 60 for obs-1), and a draw that records a
failure is always an instance.

SUITE_DEFAULTS is the suite table: name (the stable CLI token), suite,
default count and default max-n.  `_family_suite` checks a closed-form
rank on graphs of one generator family (thm-tt, cor-r2tree,
cor-blockgraph, cor-biblock-r2, cor-biblock-r0), and `_planted_suite` a
peel formula on a planted split of one cut-vertex case (thm-2.2, thm-r0).
lemma-2rin runs the driver once per half, and case3 keeps a loop of its
own to count the certificates that quote its rules.  thm-genr2 and
cor-cr2 share one draw of a connected r2 base with cut-vertices
(`_r2_cut_base`).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .blocks import decompose
from .classify import (
    CutVertexCase,
    classify_bordered,
    classify_cut,
    make_split,
    side_components,
)
from .certificate import RuleTag
from .digraph import EdgeKind, WeightedDigraph, _weight_count, build, format_digraph, oracle_rank
from .engine import rank_recursive
from .errors import (
    DigraphError,
    InternalMismatch,
    PreconditionViolated,
    UnknownSuite,
)
from .generate import DEFAULT_POOL, GenSpec, extend_to_r2, gen, random_digraph
from .linalg import RationalMatrix, bordered, rank, schur_peel
from .theorems import (
    DigraphAttachment,
    EdgeAddition,
    apply_additions,
    build_genr2,
    check_lemma_2rin,
    loop_invariance_check,
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
)
from .trees import max_matching, rank_r2_tree, rank_tree


@dataclass
class SuiteReport:
    suite: str
    instances: int
    failures: list[dict]
    wall_time_s: float
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return asdict(self)


def _failure(detail: str, instance: WeightedDigraph | str | None = None) -> dict:
    """One failure entry: what went wrong and, when known, the instance it
    went wrong on, a digraph serialized or a replayable repr."""
    if instance is None:
        return {"detail": detail}
    if isinstance(instance, WeightedDigraph):
        instance = format_digraph(instance)
    return {"detail": detail, "instance": instance}


def _compare(what: str, G: WeightedDigraph, got, want) -> list[dict]:
    """No entry when got == want, else one entry that records G."""
    return [] if got == want else [_failure(f"{what} said {got}, oracle {want}", G)]


def _drive(check, count, max_n, rng, draws):
    """Run check(rng, max_n) for at most `draws` draws, stopping once
    `count` of them were instances (the check returned a list), and
    collect the failure entries of all of them."""
    instances = 0
    failures: list[dict] = []
    for _ in range(draws):
        if instances >= count:
            break
        found = check(rng, max_n)
        if found is not None:
            instances += 1
            failures += found
    return instances, failures, {}


def _suite(check, per=1):
    """The suite that drives `check` for up to `per` draws per instance."""
    return lambda count, max_n, rng: _drive(check, count, max_n, rng, count * per)


_ENTRY_POOL = tuple(Fraction(x) for x in (0, 0, 1, -1, 2, Fraction(1, 2), -3))


def _rand_vec(rng, k):
    return tuple(rng.choice(_ENTRY_POOL) for _ in range(k))


def _rand_square(rng, k) -> RationalMatrix:
    return RationalMatrix([_rand_vec(rng, k) for _ in range(k)], cols=k)


# -- individual suites ---------------------------------------------------------


def _check_thm_hy(rng, max_n):
    """Membership trichotomy and schur_peel == literal rank increment, on a
    random border."""
    k = rng.randint(0, max_n - 1)
    B = _rand_square(rng, k)
    x = _rand_vec(rng, k)
    y = _rand_vec(rng, k)
    alpha = rng.choice(_ENTRY_POOL)
    cls = classify_bordered(alpha, x, y, B)
    delta = rank(bordered(alpha, x, y, B)).rank - rank(B).rank
    peel = schur_peel(alpha, x, y, B)
    details = []
    if cls.delta != delta or peel.delta != delta:
        details.append(
            f"case {cls.label} (delta {cls.delta}), schur_peel delta "
            f"{peel.delta}, vs rank increment {delta}"
        )
    m1, m2, m3, m4 = cls.memberships
    if (not m1 and not m2) and (m3 and m4):
        details.append("case I and case II conditions held at once")
    return [_failure(detail, repr((alpha, x, y, B))) for detail in details]


def _check_obs1(rng, max_n):
    """classify_cut's two routes agree and the increment is 0, 1 or 2, at a
    random cut-vertex and side of a draw that has one."""
    G = random_digraph(rng.randint(3, max_n), rng)
    d = decompose(G)
    if not d.cut_vertices:
        return None
    v = rng.choice(sorted(d.cut_vertices))
    side = rng.choice(side_components(G, v))
    try:
        cls = classify_cut(G, make_split(G, v, side))
    except DigraphError as e:
        return [_failure(f"classification blew up at v={v}: {e}", G)]
    if cls.delta not in (0, 1, 2):
        return [_failure(f"impossible increment {cls.delta}", G)]
    return []


def _plant_case1(rng, max_n):
    """Base digraph plus 1-2 loop-free bi-arc leaves on one vertex: the
    border there never meets the leaf-block row/column spaces."""
    G = random_digraph(rng.randint(2, max_n - 1), rng)
    v = rng.randrange(G.n)
    side = {v}
    for _ in range(rng.randint(1, 2)):
        side.add(G.n)
        G = G.attach_edge(
            v,
            EdgeKind.NC_TILDE_EDGE,
            (rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL)),
        )
    return G, v, frozenset(side)


def _r2_base(rng, max_n):
    """A random digraph of 3..max_n vertices extended to an r2-digraph; it
    may be disconnected or have no cut-vertex."""
    base = random_digraph(rng.randint(3, max_n), rng)
    return extend_to_r2(base, seed=rng.randrange(10**6))


def _check_2rin_cuts(rng, max_n):
    """An r2 extension with 1-4 cut-vertices and that set: the sum formula
    makes the full-set equation hold."""
    G = _r2_base(rng, max_n)
    cuts = sorted(decompose(G).cut_vertices)
    if not 1 <= len(cuts) <= 4:
        return None
    try:
        if not check_lemma_2rin(G, cuts, all_subsets=True):
            return [_failure(f"full-set equation failed for cuts {cuts}", G)]
    except InternalMismatch as e:
        return [_failure(str(e), G)]
    return []


def _check_2rin_any(rng, max_n):
    """An arbitrary digraph and subset: only the equivalence is claimed,
    whichever way it comes out."""
    G = random_digraph(rng.randint(2, max_n), rng)
    m = rng.randint(1, min(4, G.n))
    vs = rng.sample(range(G.n), m)
    try:
        check_lemma_2rin(G, vs, all_subsets=True)
    except InternalMismatch as e:
        return [_failure(str(e), G)]
    return []


def _suite_lemma_2rin(count, max_n, rng):
    """Full-set +2-per-vertex removal is equivalent to all-subsets removal:
    half the instances from `_check_2rin_cuts` (within count * 40 draws),
    the rest from `_check_2rin_any`."""
    made, failures, _ = _drive(_check_2rin_cuts, count // 2, max_n, rng, count * 40)
    mixed, more, _ = _drive(_check_2rin_any, count - made, max_n, rng, count - made)
    return made + mixed, failures + more, {}


def _mdt_instance(rng):
    """A windmill (one hub) or a two-hub chain whose every block drops by
    exactly twice its cut count; weights resampled until that holds."""
    for _ in range(60):
        arcs = []
        pool = DEFAULT_POOL

        def biarc(u, v):
            arcs.append((u, v, rng.choice(pool)))
            arcs.append((v, u, rng.choice(pool)))

        if rng.random() < 0.6:
            hubs = [0]
            n = 1
        else:
            hubs = [0, 1]
            n = 4
            biarc(0, 2), biarc(0, 3), biarc(1, 2), biarc(1, 3)
        for hub in hubs:
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    leaf = n
                    n += 1
                    biarc(hub, leaf)
                else:
                    a, b, c = n, n + 1, n + 2
                    n += 3
                    biarc(hub, a), biarc(a, b), biarc(b, c), biarc(c, hub)
        G = build(n, arcs)
        try:
            return G, rank_mdt(G)
        except PreconditionViolated:
            continue
    return None, None


def _check_thm_mdt(rng, max_n):
    """Per-block sum formula on digraphs satisfying the per-block drop."""
    G, got = _mdt_instance(rng)
    if G is None:
        return [_failure("could not build a qualifying instance in 60 tries")]
    return _compare("per-block sum", G, got, oracle_rank(G))


def _r2_cut_base(rng, max_n):
    """The first of up to 200 r2 bases that is connected and has
    cut-vertices, with its sorted cut-vertices; else None."""
    for _ in range(200):
        G = _r2_base(rng, max_n)
        cuts = decompose(G).cut_vertices
        if cuts and G.is_connected():
            return G, sorted(cuts)
    return None


def _check_thm_pen(rng, max_n):
    """Whole-graph r2 sum: rank = sum of block cores + 2 * cuts."""
    G = _r2_base(rng, max_n)
    got = sum(rank_r2_digraph(G.induced_subdigraph(c)) for c in G.connected_components())
    return _compare("r2 sum", G, got, oracle_rank(G))


def _check_cor_loops(rng, max_n):
    """Loops at cut-vertices of an r2-digraph never move the rank."""
    G = _r2_base(rng, max_n)
    if not loop_invariance_check(G, trials=5, seed=rng.randrange(10**6)):
        return [_failure("a cut-vertex loop rewrite changed the rank", G)]
    return []


def _check_thm_genr2(rng, max_n):
    """Gluing digraphs onto cut-vertices by bi-arc bridges: additive rank.
    A failure records the base, not the glued digraph."""
    base = _r2_cut_base(rng, max_n)
    if base is None:
        return None
    G, cuts = base
    atts = []
    for _ in range(rng.randint(1, 3)):
        W = random_digraph(rng.randint(1, 3), rng)
        w_vertex, at = rng.randrange(W.n), rng.choice(cuts)
        weights = rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL)
        atts.append(DigraphAttachment(W, w_vertex, at, *weights))
    return _compare("glued sum", G, rank_genr2(G, atts), oracle_rank(build_genr2(G, atts)))


def _check_cor_cr2(rng, max_n):
    """Rank delta of single-vertex attachments = number carrying loops."""
    base = _r2_cut_base(rng, max_n)
    if base is None:
        return None
    G, cuts = base
    adds = [
        EdgeAddition(
            at=rng.choice(cuts),
            kind=(k := rng.choice(tuple(EdgeKind))),
            weights=tuple(rng.choice(DEFAULT_POOL) for _ in range(_weight_count(k))),
            toward_new=rng.random() < 0.5,
        )
        for _ in range(rng.randint(1, 4))
    ]
    want = oracle_rank(apply_additions(G, adds)) - oracle_rank(G)
    return _compare("rank delta", G, rank_delta_cr2(G, adds), want)


def _plant_case2(rng, max_n):
    """A pendant that zeroes the border: either a loop-free bi-arc path of
    length 2 with the hinge loop removed, or a single looped leaf whose
    loop weight is tuned so the border residue vanishes."""
    G0 = random_digraph(rng.randint(2, max_n - 2), rng)
    v = rng.randrange(G0.n)
    if rng.random() < 0.5:
        G0 = G0.with_loop(v, 0)
        a, b = G0.n, G0.n + 1
        arcs = [(u, w, x) for (u, w, x) in G0.arcs()]
        for (s, t) in ((v, a), (a, b)):
            arcs.append((s, t, rng.choice(DEFAULT_POOL)))
            arcs.append((t, s, rng.choice(DEFAULT_POOL)))
        G = build(G0.n + 2, arcs)
        return G, v, frozenset({v, a, b})
    alpha = G0.loop_weight(v)
    if alpha == 0:
        alpha = rng.choice(DEFAULT_POOL)
        G0 = G0.with_loop(v, alpha)
    x = rng.choice(DEFAULT_POOL)
    y = rng.choice(DEFAULT_POOL)
    beta = x * y / alpha  # makes alpha - x*(y/beta) vanish
    a = G0.n
    arcs = [(u, w, t) for (u, w, t) in G0.arcs()]
    arcs += [(v, a, x), (a, v, y), (a, a, beta)]
    G = build(G0.n + 1, arcs)
    return G, v, frozenset({v, a})


def _scaled_biblock(rng, max_n):
    G = gen(
        GenSpec("biblock-graph", n=rng.randint(4, max_n), seed=rng.randrange(10**9))
    )
    d = decompose(G)
    scales = [rng.choice(DEFAULT_POOL) for _ in d.blocks]
    arcs = []
    for (u, w, t) in G.arcs():
        (i,) = set(d.membership[u]) & set(d.membership[w])  # the block of u -> w
        arcs.append((u, w, t * scales[i]))
    return build(G.n, arcs)


def _check_thm_r0f(rng, max_n):
    """r0-digraphs without cut loops: rank = plain sum of block ranks."""
    G = _scaled_biblock(rng, max_n)
    if rng.random() < 0.4:
        # one non-r0 block is allowed: hang a triangle somewhere
        u = rng.randrange(G.n)
        arcs = [(a, b, w) for (a, b, w) in G.arcs()]
        p, q = G.n, G.n + 1
        for (s, t) in ((u, p), (p, q), (q, u)):
            arcs.append((s, t, Fraction(1)))
            arcs.append((t, s, Fraction(1)))
        G = build(G.n + 2, arcs)
    try:
        got = rank_r0_digraph(G)
    except PreconditionViolated as e:
        return [_failure(f"expected a qualifying r0-digraph: {e}", G)]
    return _compare("block sum", G, got, oracle_rank(G))


def _case3_block_graph(rng, max_n):
    sizes = tuple(
        rng.randint(3, 4) for _ in range(rng.randint(2, max(2, max_n // 3)))
    )
    return gen(
        GenSpec("block-graph", n=sum(sizes), sizes=sizes, seed=rng.randrange(10**9))
    )


def _case3_arc_pendant(rng, max_n):
    """Dense connected base with single-arc pendants; returns the planted sides.

    Two loop-free arc pendants hang at distinct base vertices.  Each is a
    rank-delta-1 block, so neither the r2 nor the r0 closed form covers the
    graph and the engine is forced to peel them.
    """
    n0 = rng.randint(4, max_n)
    G = random_digraph(n0, rng, p=0.5)
    for _ in range(50):
        if G.is_connected():
            break
        G = random_digraph(n0, rng, p=0.5)
    sides = []
    # attach to base vertices only, so the planted sides stay valid
    for at in rng.sample(range(n0), 2):
        sides.append((at, frozenset({at, G.n})))
        G = G.attach_edge(
            at,
            EdgeKind.NC_TILDE_ARC,
            (rng.choice(DEFAULT_POOL),),
            toward_new=rng.random() < 0.5,
        )
    if rng.random() < 0.3:  # occasional looped-arc pendant for variety
        G = G.attach_edge(
            rng.randrange(n0),
            EdgeKind.NC_ARC,
            (rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL)),
            toward_new=rng.random() < 0.5,
        )
    return G, sides


def _pendant_block_split(G, rng):
    """One pendant-block split of G, if any block hangs off a single cut."""
    d = decompose(G)
    options = [
        i
        for i in range(d.block_count)
        if d.pendant[i] and len(d.cuts_in_block(i)) == 1
    ]
    if not options:
        return None
    i = rng.choice(options)
    (v,) = d.cuts_in_block(i)
    return v, frozenset(d.blocks[i])


def _suite_case3(count, max_n, rng):
    """Engine == oracle on digraphs designed to force the one-increment
    peels; the standalone peel formula is checked on a planted split, and
    the report counts how many certificates actually quote these rules."""
    failures: list[dict] = []
    with_case3 = 0
    with_literal_peel = 0
    for i in range(count):
        sides: list[tuple[int, frozenset]] = []
        if i % 2 == 0:
            G = _case3_block_graph(rng, max_n)
            picked = _pendant_block_split(G, rng)
            if picked:
                sides.append(picked)
        else:
            G, sides = _case3_arc_pendant(rng, max_n)
        cert = rank_recursive(G)
        want = oracle_rank(G)
        failures += _compare("engine", G, cert.rank, want)
        for (v, side) in sides:
            split = make_split(G, v, side)
            if classify_cut(G, split).case is CutVertexCase.RANK_PLUS_1:
                got = rank_case3_peel(G, split)
                failures += _compare(f"standalone case III peel at v={v}", G, got, want)
        rules = cert.rules_used()
        if RuleTag.CASE_III_PEEL in rules or RuleTag.CASE_III_LT in rules:
            with_case3 += 1
        if RuleTag.CASE_III_PEEL in rules:
            with_literal_peel += 1
    extra = {"with_case3_nodes": with_case3, "with_literal_peel": with_literal_peel}
    return count, failures, extra


def _family_suite(family, lo, formula, what, closed=None):
    """The suite checking `family` graphs of lo..max_n vertices: formula(G),
    and then closed(G) when given, must equal the oracle rank."""

    def check(rng, max_n):
        G = gen(GenSpec(family, n=rng.randint(lo, max_n), seed=rng.randrange(10**9)))
        found = _compare(what, G, formula(G), want := oracle_rank(G))
        if closed is None or found:
            return found
        return _compare("closed form", G, closed(G), want)

    return _suite(check)


def _planted_suite(plant, case, formula, what):
    """The suite checking plant(rng, max_n) = (G, v, side) splits, which
    must be of the given case, where formula(G, split) must equal the
    oracle rank; a draw the formula does not claim (PreconditionViolated)
    is no instance."""

    def check(rng, max_n):
        G, v, side = plant(rng, max_n)
        split = make_split(G, v, side)
        cls = classify_cut(G, split)
        if cls.case is not case:
            return [_failure(f"planted split classified {cls.label}, wanted {case.label}", G)]
        try:
            got = formula(G, split)
        except PreconditionViolated:
            return None
        return _compare(what, G, got, oracle_rank(G))

    return _suite(check)


SUITE_DEFAULTS: dict[str, tuple] = {
    "thm-hy": (_suite(_check_thm_hy), 400, 6),
    "obs-1": (_suite(_check_obs1, per=60), 300, 8),
    # Case I peel: r(G) = r(H - v) + r(G - H) + 2.
    "thm-2.2": (_planted_suite(
        _plant_case1, CutVertexCase.RANK_PLUS_2, rank_case1_peel, "peel"
    ), 300, 8),
    "lemma-2rin": (_suite_lemma_2rin, 150, 7),
    "thm-mdt": (_suite(_check_thm_mdt), 120, 8),
    "thm-pen": (_suite(_check_thm_pen), 200, 8),
    "cor-loops": (_suite(_check_cor_loops), 120, 8),
    "thm-genr2": (_suite(_check_thm_genr2), 150, 7),
    "cor-cr2": (_suite(_check_cor_cr2), 150, 7),
    # Loopless bi-arc trees: rank = twice the matching number.
    "thm-tt": (_family_suite(
        "loopless-biarc-tree", 1, rank_tree, "2q", lambda G: 2 * max_matching(G).size
    ), 400, 12),
    # r2-trees: rank = 2q + (number of looped leaves).
    "cor-r2tree": (_family_suite("r2-tree", 2, rank_r2_tree, "2q+s"), 300, 10),
    # Qualifying block graphs are nonsingular: rank = n.
    "cor-blockgraph": (_family_suite(
        "r2-block-graph", 3, lambda G: rank_r2_block_graph(G).rank, "family formula", lambda G: G.n
    ), 150, 10),
    # Qualifying pendant-edge biblock graphs: rank = 2 * block count.
    "cor-biblock-r2": (_family_suite(
        "r2-biblock-graph", 4, lambda G: rank_r2_biblock_graph(G).rank, "2k"
    ), 150, 10),
    # Case II peel keeps the cut-vertex with the outside part.
    "thm-r0": (_planted_suite(
        _plant_case2, CutVertexCase.RANK_PLUS_0, rank_case2_peel, "case II peel"
    ), 200, 8),
    "thm-r0f": (_suite(_check_thm_r0f), 200, 10),
    # Biblock graphs with spare vertices on both sides: rank = 2k.
    "cor-biblock-r0": (_family_suite(
        "biblock-graph", 4, lambda G: rank_r0_biblock_graph(G).rank, "2k"
    ), 150, 10),
    "case3": (_suite_case3, 300, 8),
}


def suite_names() -> tuple[str, ...]:
    return tuple(SUITE_DEFAULTS)


def run_suite(
    name: str,
    count: int | None = None,
    max_n: int | None = None,
    seed: int = 0,
) -> SuiteReport:
    """Run one named suite; deterministic in all four arguments."""
    if name not in SUITE_DEFAULTS:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_DEFAULTS)}")
    fn, default_count, default_max_n = SUITE_DEFAULTS[name]
    count = default_count if count is None else count
    max_n = default_max_n if max_n is None else max_n
    if count < 1 or max_n < 4:
        raise UnknownSuite("count must be >= 1 and max-n >= 4")
    rng = random.Random(f"{name}:{seed}")
    start = time.perf_counter()
    instances, failures, extra = fn(count, max_n, rng)
    elapsed = time.perf_counter() - start
    return SuiteReport(name, instances, failures, round(elapsed, 3), extra)
