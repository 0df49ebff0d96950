"""Spans around the engine's calls into each layer, recorded from outside.

The engine imports names directly (`from .linalg import rank`), so the
wrappers go on the names at the binding sites that `rank_recursive` looks
up at call time, and on the `WeightedDigraph` methods.  Each span keeps its
name, start, end and parent; spans stay in memory and are turned into
per-layer metrics (calls, self time, matrix cells) when the run ends.
"""

from __future__ import annotations

import json
import re
from array import array
from time import perf_counter

from digrank import RuleTag, WeightedDigraph
from digrank import classify as classify_mod
from digrank import engine as engine_mod

ROOT = "engine"

# (owner, attribute, span name).  Matrix-taking functions also record the
# shape of their matrix argument.
SITES = (
    (engine_mod, "rank", "linalg.rank"),
    (engine_mod, "classify_cut", "classify.classify_cut"),
    (engine_mod, "make_split", "classify.make_split"),
    (engine_mod, "decompose", "blocks.decompose"),
    (engine_mod, "classify_tree", "trees.classify_tree"),
    (engine_mod, "max_matching", "trees.max_matching"),
    (engine_mod, "in_row_space", "linalg.membership"),
    (engine_mod, "in_column_space", "linalg.membership"),
    (engine_mod, "is_r2_digraph", "engine.predicates"),
    (engine_mod, "is_r0_digraph", "engine.predicates"),
    (classify_mod, "rank", "linalg.rank"),
    (classify_mod, "int_rank", "linalg.int_rank"),
    (classify_mod, "make_split", "classify.make_split"),
    (WeightedDigraph, "induced_with_labels", "digraph.induced"),
    (WeightedDigraph, "adjacency_matrix", "digraph.adjacency_matrix"),
    (WeightedDigraph, "underlying_edges", "digraph.underlying"),
    (WeightedDigraph, "underlying_adjacency", "digraph.underlying"),
)


def _shape_of_matrix(args):  # rank(M)
    M = args[0]
    return M.rows, M.cols


def _shape_of_rows(args):  # int_rank(a)
    a = args[0]
    return len(a), (len(a[0]) if a else 0)


def _shape_of_second(args):  # in_row_space(v, M) / in_column_space(v, M)
    M = args[1]
    return M.rows, M.cols


SHAPES = {
    "linalg.rank": _shape_of_matrix,
    "linalg.int_rank": _shape_of_rows,
    "linalg.membership": _shape_of_second,
}

PEELS = {RuleTag.CASE_I_PEEL, RuleTag.R0_PEEL, RuleTag.CASE_III_PEEL, RuleTag.CASE_III_LT}
_LEAF_N = re.compile(r"n=(\d+)")


class Tracer:
    """In-memory span recorder; `install()` patches the sites, `uninstall()`
    restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("i")
        self.cols = array("i")
        self._open = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        shape = SHAPES.get(name)
        spans = self

        def traced(*args, **kwargs):
            i = len(spans.start)
            r, c = shape(args) if shape else (0, 0)
            spans.name.append(nid)
            spans.parent.append(spans._open[-1])
            spans.rows.append(r)
            spans.cols.append(c)
            spans.end.append(0.0)
            spans._open.append(i)
            spans.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[i] = perf_counter()
                spans._open.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                own[p] -= e - s
        return own

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w") as f:
            for i in range(len(self.start)):
                f.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": self.names[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, certs, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one traced pass over the graph set.

    Counts come from the spans of all `passes` traced passes divided by
    `passes` (every pass runs the same graphs, so they are exact), self
    times are the mean per pass, and the certificate counts come from the
    certificates of one pass.
    """
    self_s = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    cells: dict[str, int] = {}
    buckets = [0, 0, 0]
    rank_id = tracer._ids.get("linalg.rank", -1)
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + self_s[i]
        r, c = tracer.rows[i], tracer.cols[i]
        cells[name] = cells.get(name, 0) + r * c
        if nid == rank_id:
            dim = max(r, c)
            buckets[0 if dim <= 8 else 1 if dim <= 32 else 2] += 1

    def per_pass(x):
        return x / passes

    nodes = peels = leaves = leaf_n_max = 0
    for cert in certs:
        for node in cert.root.walk():
            nodes += 1
            if node.rule in PEELS:
                peels += 1
            elif node.rule is RuleTag.DIRECT_RANK:
                leaves += 1
                m = _LEAF_N.search(node.note)
                if m:
                    leaf_n_max = max(leaf_n_max, int(m.group(1)))
    classify_calls = per_pass(calls.get("classify.classify_cut", 0))

    out: dict[str, tuple[float, str]] = {
        "engine.self_s": (per_pass(busy.get(ROOT, 0.0)), "s"),
        "engine.cert_nodes": (nodes, "count"),
        "engine.peels": (peels, "count"),
        "engine.direct_leaves": (leaves, "count"),
        "engine.direct_leaf_n_max": (leaf_n_max, "vertices"),
        "engine.peel_yield": (peels / classify_calls if classify_calls else 0.0, "ratio"),
    }
    for layer in (
        "engine.predicates",
        "classify.classify_cut",
        "classify.make_split",
        "linalg.rank",
        "linalg.int_rank",
        "linalg.membership",
        "blocks.decompose",
        "digraph.induced",
        "digraph.adjacency_matrix",
        "digraph.underlying",
        "trees.classify_tree",
        "trees.max_matching",
    ):
        out[f"{layer}.calls"] = (per_pass(calls.get(layer, 0)), "count")
        if layer != "trees.max_matching":
            out[f"{layer}.self_s"] = (per_pass(busy.get(layer, 0.0)), "s")
    out["linalg.rank.cells"] = (per_pass(cells.get("linalg.rank", 0)), "count")
    out["linalg.membership.cells"] = (per_pass(cells.get("linalg.membership", 0)), "count")
    for key, n in zip(("calls_n_le_8", "calls_n_9_32", "calls_n_gt_32"), buckets):
        out[f"linalg.rank.{key}"] = (per_pass(n), "count")
    return out
