"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain Gauss elimination over
``fractions.Fraction``, brute-force articulation tests by vertex removal,
exhaustive matching search.  None of it shares code with ``digrank`` beyond
reading the public graph API, so agreement is meaningful evidence.  The one
exception is ``breve_by_copy``, the engine's own general route for an r2
summand, kept to check the closed forms that stand in for it on summands of
at most two vertices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx


def naive_rank(rows) -> int:
    """Gaussian elimination rank over Fraction, no pivoting tricks.

    Plain downward row-echelon sweep; columns left of the pivot are already
    zero in the rows below, so elimination starts at the pivot column.
    """
    m = [
        [x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows
    ]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        prow = m[row]
        for r in range(row + 1, nrows):
            crow = m[r]
            if crow[col] != 0:
                f = crow[col] / prow[col]
                for j in range(col + 1, ncols):
                    crow[j] -= f * prow[j]
                crow[col] = Fraction(0)
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_mod_p_reference(a, p) -> int:
    """Rank of an integer matrix modulo the prime p, on lists of residues.

    Each step eliminates the current first column of the rows left and
    drops it; one Python operation per entry.  Runs every column, with no
    early stop.
    """
    rows = [[x % p for x in row] for row in a]
    r = 0
    while rows and rows[0]:
        piv = next((row for row in rows if row[0]), None)
        if piv is None:
            rows = [row[1:] for row in rows]
            continue
        inv = pow(piv[0], -1, p)
        tail = [y * inv % p for y in piv[1:]]
        rest = []
        for row in rows:
            if row is piv:
                continue
            m = row[0]
            rest.append([(x - m * y) % p for x, y in zip(row[1:], tail)] if m else row[1:])
        rows = rest
        r += 1
    return r


def rank_of_digraph(G) -> int:
    return naive_rank(G.adjacency_matrix().to_lists())


def sympy_rank(rows) -> int:
    """Rank via sympy's Matrix.rank over exact rationals."""
    import sympy

    mat = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )
    return mat.rank()


def breve_by_copy(G, d, b):
    """The R2_DIGRAPH summand of block b of d = decompose(G), ranked the
    general way: the breve (block b minus G's cut-vertices) cut from G's
    weight store by ``_copy``, decomposed, and peeled in one pass over its
    components, leaves first."""
    from digrank import decompose
    from digrank.engine import _copy, _leaves_first, _peel_pass

    labels = [u for u in d.blocks[b] if u not in d.cut_vertices]
    sub, rows = _copy(G.out_rows(), labels)
    sd = decompose(sub)
    order = [pair for comp in _leaves_first(sd) for pair in comp]
    node = _peel_pass(rows, sd, order, {}, labels)
    return node._replace(block_index=b, block_vertices=d.blocks[b])


def _underlying_nx(G) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    for u, v, _ in G.arcs():
        if u != v:
            H.add_edge(u, v)
    return H


def cut_vertices_by_removal(G) -> set[int]:
    """v is a cut vertex iff deleting it splits v's own component."""
    H = _underlying_nx(G)
    cuts = set()
    for v in range(G.n):
        comp = nx.node_connected_component(H, v)
        if len(comp) < 3:
            continue
        sub = H.subgraph(comp - {v})
        if nx.number_connected_components(sub) >= 2:
            cuts.add(v)
    return cuts


def cuts_by_networkx(G) -> set[int]:
    return set(nx.articulation_points(_underlying_nx(G)))


def blocks_by_networkx(G):
    """Sorted block list matching the package convention.

    networkx only reports biconnected components of non-trivial pieces, so
    isolated vertices are added back as singleton blocks.
    """
    H = _underlying_nx(G)
    blocks = [tuple(sorted(c)) for c in nx.biconnected_components(H)]
    covered = set().union(*blocks) if blocks else set()
    for v in range(G.n):
        if v not in covered:
            blocks.append((v,))
    return sorted(blocks)


def max_matching_brute(edges) -> int:
    """Exhaustive maximum matching size; fine for small forests."""
    edges = list(edges)

    def best(i, used):
        if i == len(edges):
            return 0
        u, v = edges[i]
        skip = best(i + 1, used)
        if u in used or v in used:
            return skip
        return max(skip, 1 + best(i + 1, used | {u, v}))

    return best(0, frozenset())


def max_matching_networkx(edges) -> int:
    H = nx.Graph()
    H.add_edges_from(edges)
    return len(nx.max_weight_matching(H, maxcardinality=True))


def tree_summary_reference(G):
    """(kind, q, s) as `digrank.trees.tree_summary` reports them, spelled
    out from the definitions in the `trees` module docstring with networkx
    and sets; the kind is its string value, or None.

    A tree is loopless bi-arc when every edge is bi-arc and no vertex has a
    loop, cut-loop bi-arc when every edge is bi-arc and only cut-vertices
    have loops.  Otherwise it is an r2-tree when every edge that does not
    hang a leaf from a cut-vertex is bi-arc, every looped leaf hangs from a
    cut-vertex, and every cut-vertex has a plain leaf: one with no loop,
    joined by a bi-arc edge.  q is the matching number of the underlying
    tree and s the number of looped leaves (0 unless an r2-tree).
    """
    H = _underlying_nx(G)
    if G.n == 0 or not nx.is_tree(H):
        return None, 0, 0
    arcs = {(u, v) for u, v, _ in G.arcs()}
    loops = {v for v in H if (v, v) in arcs}
    cuts = {v for v in H if H.degree(v) >= 2}
    leaves = set(H) - cuts

    def bi(u, v):
        return (u, v) in arcs and (v, u) in arcs

    q = len(nx.max_weight_matching(H, maxcardinality=True))
    if all(bi(u, v) for u, v in H.edges):
        if not loops:
            return "loopless-bi-arc", q, 0
        if loops <= cuts:
            return "cut-loop-bi-arc", q, 0
    r2 = (
        all(bi(u, v) for u, v in H.edges if len({u, v} & cuts) != 1)
        and all(set(H[v]) & cuts for v in loops & leaves)
        and all(any(u in leaves - loops and bi(c, u) for u in H[c]) for c in cuts)
    )
    return ("r2-tree", q, len(loops & leaves)) if r2 else (None, 0, 0)


def all_weighted_digraphs(n, weights):
    """Every weighted digraph on n vertices with arc weights drawn from
    `weights` (absence included automatically).  Exponential; keep n small."""
    positions = [(u, v) for u in range(n) for v in range(n)]
    choices = [None, *weights]
    for combo in itertools.product(choices, repeat=len(positions)):
        arcs = {
            pos: w for pos, w in zip(positions, combo) if w is not None and w != 0
        }
        yield arcs


# -- the paper's simple-graph families, read literally -------------------------


def _family_shape(G):
    """(underlying graph, blocks, cut-vertices) of a nonempty connected unit
    simple digraph (every arc of weight 1 with its reverse, no loop), else
    None."""
    for u, v, w in G.arcs():
        if u == v or w != 1 or not G.has_arc(v, u):
            return None
    H = _underlying_nx(G)
    if G.n == 0 or not nx.is_connected(H):
        return None
    return H, [set(b) for b in blocks_by_networkx(G)], cuts_by_networkx(G)


def _is_clique(H, block) -> bool:
    k = len(block)
    return H.subgraph(block).number_of_edges() == k * (k - 1) // 2


def _complete_bipartite_sides(H, block):
    """The two sides of a complete bipartite block, else None."""
    S = H.subgraph(block)
    if len(block) < 2 or not nx.is_bipartite(S):
        return None
    A, B = nx.bipartite.sets(S)
    return (A, B) if S.number_of_edges() == len(A) * len(B) else None


def _one_pendant_edge_per_cut(blocks, cuts):
    """The pendant-edge blocks (two vertices, one a cut-vertex) when every
    cut-vertex lies in exactly one of them, else None."""
    pend = [b for b in blocks if len(b) == 2 and len(b & cuts) == 1]
    if all(sum(v in b for b in pend) == 1 for v in cuts):
        return pend
    return None


def r2_block_graph_networkx(G) -> bool:
    """Complete blocks, one pendant edge per cut-vertex, every other block
    keeping at least two non-cut vertices."""
    shape = _family_shape(G)
    if shape is None:
        return False
    H, blocks, cuts = shape
    pend = _one_pendant_edge_per_cut(blocks, cuts)
    return (
        pend is not None
        and all(_is_clique(H, b) for b in blocks)
        and all(b in pend or len(b - cuts) >= 2 for b in blocks)
    )


def r2_biblock_graph_networkx(G) -> bool:
    """Complete bipartite blocks, one pendant edge per cut-vertex, every
    other block keeping a non-cut vertex on each side."""
    shape = _family_shape(G)
    if shape is None:
        return False
    H, blocks, cuts = shape
    pend = _one_pendant_edge_per_cut(blocks, cuts)
    sides = [_complete_bipartite_sides(H, b) for b in blocks]
    return (
        pend is not None
        and all(s is not None for s in sides)
        and all(
            b in pend or (s[0] - cuts and s[1] - cuts) for b, s in zip(blocks, sides)
        )
    )


def r0_biblock_graph_networkx(G) -> bool:
    """Complete bipartite blocks, each keeping a non-cut vertex on each side."""
    shape = _family_shape(G)
    if shape is None:
        return False
    H, blocks, cuts = shape
    sides = [_complete_bipartite_sides(H, b) for b in blocks]
    return all(s is not None and s[0] - cuts and s[1] - cuts for s in sides)
