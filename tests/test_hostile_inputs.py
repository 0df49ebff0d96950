"""Hostile inputs through `rank_recursive`: weights that defeat the mod-p
leaf rank, thousand-digit numerators, and thousands of isolated vertices."""

import random
from fractions import Fraction

from digrank import EdgeKind, build, decompose, oracle_rank, rank_recursive
from digrank import linalg


def block_with_pendant(rng, n, p, weights):
    """A digraph on n vertices with arc density p, weights drawn from
    `weights`, that is one block, plus an arc pendant on vertex 0."""
    arcs = [(u, v, weights(rng)) for u in range(n) for v in range(n) if rng.random() < p]
    G = build(n, arcs)
    G = G.attach_edge(0, EdgeKind.NC_TILDE_ARC, (weights(rng),), toward_new=True)
    d = decompose(G)
    assert d.block_count == 2 and sorted(map(len, d.blocks)) == [2, n]
    return G


def test_denominators_of_the_mod_p_prime_take_the_bareiss_fallback(monkeypatch):
    P = linalg._P
    pool = [Fraction(k, P) for k in (1, -2, 5)] + [Fraction(k, 2 * P) for k in (1, -3, 7)]
    G = block_with_pendant(random.Random("mod-p"), 17, 0.3, lambda rng: rng.choice(pool))
    real = linalg._residue_rows
    residues = []

    def recorded(rows, pos):
        residues.append(real(rows, pos))
        return residues[-1]

    monkeypatch.setattr(linalg, "_residue_rows", recorded)
    cert = rank_recursive(G)
    monkeypatch.undo()
    assert residues and all(r is None for r in residues)
    assert cert.rank == oracle_rank(G)


def test_thousand_digit_numerators():
    def weight(rng):
        return rng.choice((1, -1)) * rng.randrange(10**999, 10**1000)

    G = block_with_pendant(random.Random("digits"), 16, 0.2, weight)
    assert rank_recursive(G).rank == oracle_rank(G)


def test_five_thousand_isolated_vertices():
    G = build(5000, [(v, v, 1) for v in range(0, 5000, 7)])
    assert rank_recursive(G).rank == 715
