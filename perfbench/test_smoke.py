"""Smoke test: every workload at a tiny size emits every metric that
BENCHMARK.json names, and no graph fails.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--scale", "0.02", *extra,
    ]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    out = run(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_spans_file(tmp_path):
    path = tmp_path / "spans.jsonl"
    run("small-mixed", 1, "--spans", str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and {"i", "name", "start", "end", "parent"} == set(spans[0])
    assert all(s["start"] <= s["end"] and s["parent"] < s["i"] for s in spans)
    assert {s["name"] for s in spans} >= {"engine", "linalg.rank", "blocks.decompose"}


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's own files, it exits non-zero without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
