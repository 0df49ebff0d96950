"""Seeded graph sets for the four benchmark workloads.

Each workload is a fixed size mix and the seed only decides the random
structure inside it, so every seed gives a graph set of the same shape and
comparable cost.  The glued-block and triangle-chain generators live here
and use only `random.Random` and `digrank.build`; the other families come
from `digrank.gen`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from digrank import GenSpec, build, gen, random_digraph

POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def glued_blocks(rng: random.Random, blocks: int):
    """`blocks` blocks of 3-7 vertices, each glued at a random existing vertex.

    A block is a cycle whose edges point one way, the other way or both,
    plus random chords and loops; the underlying cycle keeps it 2-connected.
    Block sizes run through a shuffled 3, 4, 5, 6, 7 so that graphs with the
    same block count have the same number of vertices.
    """
    arcs = []
    n = 0
    sizes = []
    for b in range(blocks):
        if not sizes:
            sizes = [3, 4, 5, 6, 7]
            rng.shuffle(sizes)
        size = sizes.pop()
        if b == 0:
            vs = list(range(size))
        else:
            vs = [rng.randrange(n)] + list(range(n, n + size - 1))
        n = vs[-1] + 1
        for i in range(size):
            u, v = vs[i], vs[(i + 1) % size]
            way = rng.randrange(3)
            if way != 1:
                arcs.append((u, v, rng.choice(POOL)))
            if way != 0:
                arcs.append((v, u, rng.choice(POOL)))
        for i in range(size):
            for j in range(i + 2, size):
                if (i, j) != (0, size - 1) and rng.random() < 0.3:
                    arcs.append((vs[i], vs[j], rng.choice(POOL)))
        for v in vs if b == 0 else vs[1:]:
            if rng.random() < 0.2:
                arcs.append((v, v, rng.choice(POOL)))
    return build(n, arcs)


def triangle_chain(rng: random.Random, triangles: int):
    """Directed triangles a -> b -> c -> a, each sharing its `a` with the
    previous triangle's `c`."""
    arcs = []
    for t in range(triangles):
        a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
        arcs += [(a, b, rng.choice(POOL)), (b, c, rng.choice(POOL)), (c, a, rng.choice(POOL))]
    return build(2 * triangles + 1, arcs)


def r2_extension(rng: random.Random, n: int):
    """A random digraph made into an r2-digraph by `digrank.gen`."""
    base = random_digraph(n, rng, POOL)
    return gen(GenSpec("r2-extension", base=base, seed=rng.randrange(10**9)))


def dense_random(rng: random.Random, n: int):
    """`digrank.random_digraph` at a fixed arc density, so that it is one
    block and its cost depends on `n` alone."""
    return random_digraph(n, rng, POOL, p=0.3)


def _family(name: str):
    def make(rng: random.Random, n: int):
        return gen(GenSpec(name, n=n, seed=rng.randrange(10**9)))

    return make


_OWN = {
    "glued-blocks": glued_blocks,
    "triangle-chain": triangle_chain,
    "r2-extension": r2_extension,
    "dense-random": dense_random,
}

_GEN_FAMILIES = (
    "loopless-biarc-tree",
    "cutloop-biarc-tree",
    "r2-tree",
    "block-graph",
    "biblock-graph",
    "r2-block-graph",
    "r2-biblock-graph",
    "random-digraph",
)

# Strata (generator, smallest size, largest size, graphs).  The sizes of a
# stratum are fixed by `_sizes`, so every seed has the same size mix.  Size
# is a block count for glued-blocks and triangle-chain and the `n` passed to
# the generator otherwise (r2-tree and the r2 families add pendant vertices
# on top of it).
WORKLOADS = {
    # Per-peel work (classify_cut, the r2/r0 predicates, decompose, induced
    # builds, membership solves) on tiny matrices; grows with blocks squared.
    "glued-blocks": [
        ("glued-blocks", 3, 13, 400),
        ("triangle-chain", 4, 18, 200),
        ("block-graph", 16, 56, 200),
    ],
    # One dense leaf: linalg.rank takes almost all the time.
    "dense-random": [
        ("dense-random", 30, 70, 300),
    ],
    # Tree closed forms and the R2_DIGRAPH / R0_DIGRAPH sum rules fire.  The
    # dense check costs about ten times the engine here, which caps the size.
    "closed-forms": [
        ("loopless-biarc-tree", 50, 110, 40),
        ("r2-tree", 40, 80, 40),
        ("r2-block-graph", 40, 90, 40),
        ("r2-biblock-graph", 40, 90, 40),
        ("biblock-graph", 50, 110, 40),
    ],
    # Fixed per-call overhead on graphs of 3-10 vertices from every family.
    "small-mixed": [(name, 3, 10, 500) for name in _GEN_FAMILIES]
    + [
        ("r2-extension", 3, 8, 500),
        ("glued-blocks", 1, 2, 250),
        ("triangle-chain", 1, 4, 250),
    ],
}


def _sizes(lo: int, hi: int, k: int) -> list[int]:
    """k sizes at evenly spaced quantiles of the triangular distribution on
    [lo, hi] with its mode in the middle.  The whole range is covered, and
    the middle sizes, where the median call lands, are the densest."""
    out = []
    for i in range(k):
        u = (i + 0.5) / k
        x = math.sqrt(u / 2) if u < 0.5 else 1 - math.sqrt((1 - u) / 2)
        out.append(lo + round(x * (hi - lo)))
    return out


def make_graphs(workload: str, seed: int, scale: float = 1.0) -> list:
    """The workload's graphs as (stratum label, digraph) pairs.

    `scale` shrinks the number of graphs per stratum (at least one each)
    without changing the size range.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for name, lo, hi, k in WORKLOADS[workload]:
        make = _OWN.get(name) or _family(name)
        for size in _sizes(lo, hi, max(1, round(k * scale))):
            out.append((name, make(rng, size)))
    return out
