"""Hostile inputs through `rank_recursive`: weights that defeat the mod-p
leaf rank, thousand-digit numerators, and thousands of isolated vertices.
The weight tests each rank a block with a pendant, which the peel pass
reaches, and a block on its own, which is ranked from its arcs."""

import random
from fractions import Fraction

from digrank import EdgeKind, build, decompose, engine, oracle_rank, rank_recursive
from digrank import linalg


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
