"""Command-line interface.

Subcommands::

    digrank rank --input G.dg [--certify] [--tree] [--oracle-check]
    digrank decompose --input G.dg
    digrank classify --input G.dg
    digrank gen --family NAME [--n N] [--seed S] [--input BASE]
    digrank verify --suite NAME|all [--count K] [--max-n N] [--seed S] [--json P]

Exit codes: 0 success, 2 bad input (parse errors, invalid requests,
unmet preconditions), 3 internal disagreement between independent routes
or suite failures, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blocks import decompose
from .certificate import render_certificate
from .classify import classify_cut, make_split, side_components
from .digraph import WeightedDigraph, format_digraph, parse_digraph
from .errors import (
    DigraphError,
    InconsistentClassification,
    InternalMismatch,
    InvalidSpec,
    ParseError,
)
from .engine import rank_recursive
from .generate import FAMILIES, GenSpec, gen
from .trees import TreeKind, is_r2_tree_digraph, tree_summary
from .verify import run_suite, suite_names


def _read_graph(path: str) -> WeightedDigraph:
    try:
        return parse_digraph(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: byte {e.start} ({e.reason})") from None


def _cmd_rank(args) -> int:
    G = _read_graph(args.input)
    if args.tree:
        kind, q, s = tree_summary(G)
        # The kind settles the answer but for a cut-loop bi-arc tree, which
        # takes the r2 form only when it meets the r2-tree conditions.
        if kind in (TreeKind.LOOPLESS_BI_ARC, TreeKind.R2_TREE) or (
            kind is TreeKind.CUT_LOOP_BI_ARC and is_r2_tree_digraph(G)
        ):
            print(f"q={q} s={s} rank={2 * q + s}")
            return 0
        raise InvalidSpec("no closed tree form applies to this digraph")
    cert = rank_recursive(G, oracle_check=args.oracle_check)
    print(f"rank {cert.rank}")
    if args.certify:
        sys.stdout.write(render_certificate(cert))
    return 0


def _cmd_decompose(args) -> int:
    G = _read_graph(args.input)
    d = decompose(G)
    for i, blk in enumerate(d.blocks):
        pend = 1 if d.pendant[i] else 0
        print(f"block {i} pendant={pend} vertices={','.join(map(str, blk))}")
    print(f"cuts={','.join(map(str, sorted(d.cut_vertices)))}")
    return 0


def _cmd_classify(args) -> int:
    G = _read_graph(args.input)
    d = decompose(G)
    for v in sorted(d.cut_vertices):
        for side in side_components(G, v):
            cls = classify_cut(G, make_split(G, v, side))
            bits = "".join("1" if m else "0" for m in cls.memberships)
            hs = ",".join(map(str, sorted(side)))
            print(f"cut {v} H={hs} case={cls.label} memberships={bits}")
    return 0


def _cmd_gen(args) -> int:
    base = _read_graph(args.input) if args.input else None
    spec = GenSpec(family=args.family, n=args.n, seed=args.seed, base=base)
    sys.stdout.write(format_digraph(gen(spec)))
    return 0


def _cmd_verify(args) -> int:
    names = list(suite_names()) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rep = run_suite(name, count=args.count, max_n=args.max_n, seed=args.seed)
        reports.append(rep)
        status = "ok" if rep.ok else f"{len(rep.failures)} FAILURES"
        print(
            f"suite {rep.suite}: instances={rep.instances} "
            f"time={rep.wall_time_s}s {status}"
        )
        for f in rep.failures:
            print(f"  failure: {f['detail']}")
            if "instance" in f:
                for line in f["instance"].rstrip().splitlines():
                    print(f"    {line}")
        for key, val in rep.extra.items():
            print(f"  {key}={val}")
    if args.json:
        Path(args.json).write_text(
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n",
            encoding="utf-8",
        )
    return 0 if all(r.ok for r in reports) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digrank",
        description="Exact ranks of weighted digraphs by block decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of a digraph (engine + certificate)")
    p.add_argument("--input", required=True, help="digraph text file")
    p.add_argument("--certify", action="store_true", help="print the rule tree")
    p.add_argument("--tree", action="store_true", help="closed tree form: q, s, 2q+s")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check the engine against dense elimination",
    )
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("decompose", help="blocks, pendant flags and cut-vertices")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("classify", help="case I/II/III for every cut and side")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("gen", help="generate a digraph from a seeded family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=8, help="target vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="base digraph (r2-extension only)")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run a self-check suite against the oracle")
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the reports to this path as JSON")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InternalMismatch, InconsistentClassification) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except DigraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
