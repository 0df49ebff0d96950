#!/usr/bin/env python3
"""Closed-loop benchmark of `rank_recursive`: one process, one thread, one
caller that hands in one digraph at a time and waits for its rank and
certificate.

    python3 perfbench/run.py --workload glued-blocks --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from `src/`.  The
graphs are generated from the seed during set-up, every tenth one is ranked
untimed (warm-up), then all are ranked in whole passes for up to
`--seconds` seconds.  In every pass each graph is also ranked by
`oracle_rank`, timed as the dense baseline, and each certificate is checked
against it and against its own total.  With `--trace 1` the run alternates
untraced and traced passes and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 1 when a
graph fails or a traced rank differs, and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("glued-blocks", "dense-random", "closed-forms", "small-mixed")
# No measurement used this seed while the benchmark was written (seeds 1-45
# were); re-check claims on it.
HELD_OUT_SEED = 918_273_645
SETUP_REPEATS = 5
WARM_UP_STEP = 10


def import_program() -> float:
    """Import digrank from this checkout's `src/` and return the seconds taken."""
    t0 = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "digrank", "__init__.py")):
        raise ImportError(f"no digrank package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import digrank  # noqa: F401
    import workloads  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(digrank.__file__))) != SRC:
        raise ImportError(f"digrank was imported from {digrank.__file__}, not {SRC}")
    return perf_counter() - t0


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


class Run:
    """One workload's graphs, the first engine rank and the dense rank of
    each, and the graphs that failed."""

    def __init__(self, workload: str, seed: int, scale: float):
        from speed import SpeedProbe
        from workloads import make_graphs

        self.probe = SpeedProbe()
        gen_s = []
        graphs = None
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            again = make_graphs(workload, seed, scale)
            gen_s.append(perf_counter() - t0)
            self.probe.sample()
            if graphs is not None and [g for _, g in again] != [g for _, g in graphs]:
                raise RuntimeError("graph generation is not deterministic in the seed")
            graphs = again
        self.gen_s = statistics.median(gen_s)
        # The machine's speed during set-up, from the probes taken in it.
        self.setup_factor = self.probe.factor()
        self.labels = [name for name, _ in graphs]
        self.graphs = [g for _, g in graphs]
        self.ranks: dict[int, int] = {}
        self.dense_ranks: dict[int, int] = {}
        self.failures: dict[int, str] = {}
        # Keep the collector from rescanning the benchmark's own graphs.
        gc.collect()
        gc.freeze()

    def fail(self, i: int, why: str) -> None:
        self.failures.setdefault(i, f"{self.labels[i]} (n={self.graphs[i].n}): {why}")

    def rank_pass(self, rank_fn, times=None, dense=None, step: int = 1):
        """Rank every `step`-th live graph once and check each certificate.

        Only the calls are timed.  With a `dense` list, each graph is also
        ranked by `oracle_rank` right after its call and the oracle's time
        is appended to `dense`, so that the engine and the dense baseline
        are measured over the same stretch of time.  Returns the summed
        call time of the engine and the certificates.
        """
        from digrank import oracle_rank

        certs = {}
        total = 0.0
        for i in range(0, len(self.graphs), step):
            if i in self.failures:
                continue
            G = self.graphs[i]
            t0 = perf_counter()
            try:
                cert = rank_fn(G)
            except Exception as e:  # a raising graph is a failed graph
                self.fail(i, f"raised {type(e).__name__}: {e}")
                continue
            dt = perf_counter() - t0
            total += dt
            if times is not None:
                times.append(dt)
            certs[i] = cert
            if dense is not None:
                t0 = perf_counter()
                self.dense_ranks[i] = oracle_rank(G)
                dense.append(perf_counter() - t0)
            self.probe.tick()
        for i, cert in certs.items():
            first = self.ranks.setdefault(i, cert.rank)
            expect = self.dense_ranks.get(i, first)
            if cert.root.total != cert.rank:
                self.fail(i, f"certificate total {cert.root.total} != rank {cert.rank}")
            elif cert.rank != first:
                self.fail(i, f"rank {cert.rank} differs from the first rank {first}")
            elif cert.rank != expect:
                self.fail(i, f"engine rank {cert.rank} != dense rank {expect}")
        return total, certs


def _engine():
    from digrank import rank_recursive

    return rank_recursive


def warm_up(run: Run) -> float:
    """Untimed pass over every tenth graph; returns its wall time."""
    t0 = perf_counter()
    run.rank_pass(_engine(), step=WARM_UP_STEP)
    return perf_counter() - t0


def timed_passes(run: Run, seconds: float):
    """Whole passes while the next one is expected to end within `seconds`.

    Returns the engine's call times and the oracle's call times."""
    samples: list[float] = []
    dense: list[float] = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        run.rank_pass(_engine(), samples, dense)
        took = perf_counter() - t0
        if perf_counter() - t_start + took > seconds:
            return samples, dense


def end_to_end(run: Run, seconds: float, setup_s: float):
    """Timings at nominal machine speed; the wall-clock figures go in the
    detail line."""
    samples, dense = timed_passes(run, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50 = 1000 * statistics.median(samples)
    dense_p50 = 1000 * statistics.median(dense)
    wall = {
        "rank_ms_p50": p50,
        "rank_ms_p90": 1000 * quantile(samples, 0.9),
        "graphs_per_s": len(samples) / sum(samples),
        "dense_ms_p50": dense_p50,
        "setup_s": setup_s,
    }
    f = run.probe.factor()
    metrics = {
        "rank_ms_p50": (wall["rank_ms_p50"] / f, "ms"),
        "rank_ms_p90": (wall["rank_ms_p90"] / f, "ms"),
        "graphs_per_s": (wall["graphs_per_s"] * f, "1/s"),
        "dense_ms_p50": (wall["dense_ms_p50"] / f, "ms"),
        "setup_s": (wall["setup_s"] / run.setup_factor, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "gen_s": run.gen_s,
        "rank_samples": len(samples),
        "dense_samples": len(dense),
        "engine_dense_ratio": p50 / dense_p50,
        "speed_factor": f,
        "setup_speed_factor": run.setup_factor,
        "probe_samples": len(run.probe.samples),
        "wall": wall,
    }
    return metrics, detail


def traced(run: Run, seconds: float):
    """Pairs of an untraced and a traced pass while the next pair is
    expected to end within `seconds`."""
    from spans import ROOT as ROOT_SPAN, Tracer, layer_metrics

    tracer = Tracer()
    plain = spanned = 0.0
    passes = 0
    certs = {}
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        plain += run.rank_pass(_engine(), dense=[])[0]
        tracer.install()
        try:
            took, certs = run.rank_pass(tracer.wrap(ROOT_SPAN, _engine()))
        finally:
            tracer.uninstall()
        spanned += took
        passes += 1
        pair = perf_counter() - t0
        if perf_counter() - t_start + pair > seconds:
            break
    metrics = layer_metrics(tracer, certs.values(), passes)
    metrics["trace.overhead"] = (spanned / plain, "ratio")
    return metrics, {"traced_passes": passes, "spans": len(tracer.start)}, tracer


def run_one(args) -> int:
    try:
        import_s = import_program()
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.scale)
    warm_s = warm_up(run)
    setup_s = import_s + run.gen_s
    if args.trace:
        metrics, detail, tracer = traced(run, args.seconds)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics, detail = end_to_end(run, args.seconds, setup_s)
    attempted = len(run.graphs)
    failed = len(run.failures)
    detail.update(
        import_s=import_s,
        workload=args.workload,
        seed=args.seed,
        graphs=attempted,
        warmup_s=warm_s,
        failed_share=failed / attempted,
    )
    for why in run.failures.values():
        print(f"FAILED {why}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_share':34s} {failed / attempted:14.6g} ({failed}/{attempted} graphs)")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload, untraced then traced, one child process at a time so
    that `setup_s` and `peak_rss_mb` belong to that workload alone."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]  # fmt: skip
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                print(f"{workload} trace {trace}: exit code {done.returncode}")
                status = 1
    return status


def seed_arg(text: str) -> int:
    return HELD_OUT_SEED if text == "held-out" else int(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=seed_arg, default=1, help="an integer, or 'held-out'")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="graphs per stratum, as a share")
    ap.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
