"""Self-check suites and the command-line surface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import digrank
from digrank import build, format_digraph, gen, GenSpec, parse_digraph, trees
from digrank.engine import oracle_rank, rank_recursive
from digrank.trees import TreeKind, classify_tree, is_r2_tree_digraph
from digrank.cli import main
from digrank import verify
from digrank.errors import DigraphError, InternalMismatch, UnknownSuite
from digrank.verify import SUITE_DEFAULTS, run_suite, suite_names


@pytest.mark.parametrize("suite", sorted(SUITE_DEFAULTS))
def test_each_suite_passes_at_small_count(suite):
    rep = run_suite(suite, count=25, seed=1)
    assert rep.ok, rep.failures
    assert rep.suite == suite
    assert 1 <= rep.instances <= 25
    assert rep.wall_time_s >= 0


def test_suites_are_deterministic():
    a = run_suite("thm-tt", count=40, seed=7)
    b = run_suite("thm-tt", count=40, seed=7)
    assert a.instances == b.instances and a.extra == b.extra


def test_run_suite_guards():
    with pytest.raises(UnknownSuite):
        run_suite("definitely-not-a-suite")
    with pytest.raises(Exception):
        run_suite("thm-hy", count=0)
    assert set(suite_names()) == set(SUITE_DEFAULTS)


def test_report_serializes():
    rep = run_suite("obs-1", count=10, seed=2)
    blob = json.dumps(rep.to_dict())
    assert json.loads(blob)["suite"] == "obs-1"


# -- CLI ----------------------------------------------------------------------


@pytest.fixture()
def graph_file(tmp_path, mixed_arc_digraph_14):
    p = tmp_path / "g.dg"
    p.write_text(format_digraph(mixed_arc_digraph_14), encoding="utf-8")
    return p


def test_cli_rank(graph_file, capsys):
    assert main(["rank", "--input", str(graph_file)]) == 0
    assert capsys.readouterr().out == "rank 12\n"

    assert main(["rank", "--input", str(graph_file), "--certify", "--oracle-check"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rank 12\n")
    assert "contributes=" in out


def test_cli_rank_tree(tmp_path, capsys, r2_tree_10):
    p = tmp_path / "t.dg"
    p.write_text(format_digraph(r2_tree_10), encoding="utf-8")
    assert main(["rank", "--input", str(p), "--tree"]) == 0
    assert capsys.readouterr().out == "q=4 s=1 rank=9\n"


def test_cli_rank_tree_walks_an_r2_tree_once(tmp_path, capsys, monkeypatch, r2_tree_10):
    p = tmp_path / "t.dg"
    p.write_text(format_digraph(r2_tree_10), encoding="utf-8")
    walks = []
    real = trees._walk
    monkeypatch.setattr(trees, "_walk", lambda G: walks.append(1) or real(G))
    assert main(["rank", "--input", str(p), "--tree"]) == 0
    assert capsys.readouterr().out == "q=4 s=1 rank=9\n"
    assert walks == [1]


def test_cli_rank_tree_on_a_cut_loop_tree_that_is_r2(tmp_path, capsys):
    """The bi-arc path 0-1-2-3 with a loop on cut-vertex 1 classifies as a
    cut-loop bi-arc tree, and its cuts 1 and 2 keep the plain leaves 0 and
    3, so the r2-tree form 2q + s applies."""
    arcs = [(u, v, 1) for a, b in [(0, 1), (1, 2), (2, 3)] for u, v in [(a, b), (b, a)]]
    G = build(4, arcs + [(1, 1, 3)])
    assert classify_tree(G) is TreeKind.CUT_LOOP_BI_ARC and is_r2_tree_digraph(G)
    p = tmp_path / "t.dg"
    p.write_text(format_digraph(G), encoding="utf-8")
    assert main(["rank", "--input", str(p), "--tree"]) == 0
    assert capsys.readouterr().out == "q=2 s=0 rank=4\n"
    assert rank_recursive(G).rank == oracle_rank(G) == 4


def test_cli_rank_tree_rejects_non_trees(graph_file, capsys):
    assert main(["rank", "--input", str(graph_file), "--tree"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_decompose(graph_file, capsys):
    assert main(["decompose", "--input", str(graph_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "block 0 pendant=0 vertices=0,1,2"
    assert lines[-1] == "cuts=0,1,3,5,7"
    assert len(lines) == 8  # 7 blocks + the cut list


def test_cli_classify(graph_file, capsys):
    assert main(["classify", "--input", str(graph_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("cut ") for line in lines)
    assert any("case=I" in line for line in lines)
    # two sides at least for every cut vertex
    assert len(lines) >= 10


def test_cli_gen_matches_library(capsys):
    assert main(["gen", "--family", "r2-tree", "--n", "9", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out == format_digraph(gen(GenSpec("r2-tree", n=9, seed=3)))


@pytest.mark.parametrize("family", ["r2-block-graph", "biblock-graph", "r2-biblock-graph", "r2-tree"])
def test_cli_gen_at_twenty_thousand_vertices_round_trips(capsys, family):
    assert main(["gen", "--family", family, "--n", "20000"]) == 0
    G = parse_digraph(capsys.readouterr().out)
    assert G.n >= 20000
    assert G == gen(GenSpec(family, n=20000))


def test_cli_gen_extension_needs_base(tmp_path, capsys, r2_tree_10):
    assert main(["gen", "--family", "r2-extension"]) == 2
    p = tmp_path / "base.dg"
    p.write_text(format_digraph(r2_tree_10), encoding="utf-8")
    assert main(["gen", "--family", "r2-extension", "--input", str(p)]) == 0
    assert capsys.readouterr().out.startswith("digraph ")


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dg"
    bad.write_text("digraph 2\na 0 1 1/0\n", encoding="utf-8")
    assert main(["rank", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "zero denominator" in err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    assert main(["rank", "--input", str(tmp_path / "nope.dg")]) == 1


@pytest.mark.parametrize("command", ["rank", "decompose", "classify"])
def test_cli_non_utf8_input_is_a_parse_error(tmp_path, command):
    bad = tmp_path / "bad.dg"
    bad.write_bytes(b"digraph 2\na 0 1 \xff\n")
    src = str(Path(digrank.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "digrank.cli", command, "--input", str(bad)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "UTF-8" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_cli_verify_and_json(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "obs-1", "--count", "12", "--json", str(out_json)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("suite obs-1: instances=")
    assert " ok" in out
    data = json.loads(out_json.read_text(encoding="utf-8"))
    assert data[0]["suite"] == "obs-1" and data[0]["failures"] == []


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "wat"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_cli_verify_reports_failures(monkeypatch, capsys):
    from digrank import cli as cli_mod
    from digrank.verify import SuiteReport

    def fake(name, count=None, max_n=None, seed=0):
        return SuiteReport(
            suite=name,
            instances=3,
            failures=[{"detail": "planted failure", "instance": "digraph 1"}],
            wall_time_s=0.0,
            extra={},
        )

    monkeypatch.setattr(cli_mod, "run_suite", fake)
    assert main(["verify", "--suite", "thm-hy"]) == 3
    out = capsys.readouterr().out
    assert "1 FAILURES" in out and "planted failure" in out


def _wrong_by_one(real):
    return lambda *args: real(*args) + 1


def _raise(exc):
    def raiser(*args, **kw):
        raise exc("planted fault")

    return raiser


# One name on `verify` per suite whose patch makes the checked result wrong;
# every other suite compares against `oracle_rank`.
_FAULTS = {
    "obs-1": ("classify_cut", lambda real: _raise(DigraphError)),
    "lemma-2rin": ("check_lemma_2rin", lambda real: _raise(InternalMismatch)),
    "cor-loops": ("loop_invariance_check", lambda real: lambda *a, **kw: False),
    "cor-cr2": ("rank_delta_cr2", _wrong_by_one),
}


@pytest.mark.parametrize("suite", sorted(SUITE_DEFAULTS))
def test_each_suite_reports_a_planted_fault(monkeypatch, suite):
    borders: list[str] = []
    if suite == "thm-hy":
        real = verify.schur_peel

        def wrong_peel(alpha, x, y, B):
            borders.append(repr((alpha, x, y, B)))
            return real(alpha, x, y, B)._replace(delta=-1)

        monkeypatch.setattr(verify, "schur_peel", wrong_peel)
    else:
        name, fault = _FAULTS.get(suite, ("oracle_rank", _wrong_by_one))
        monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    rep = run_suite(suite, count=5)
    assert not rep.ok
    for failure in rep.failures:
        if suite == "thm-hy":
            assert failure["instance"] in borders
        else:
            assert parse_digraph(failure["instance"]).n >= 1


def test_every_suite_passes_with_asserts_stripped(tmp_path):
    """`python -O` strips asserts; every suite must still run and pass."""
    out_json = tmp_path / "report.json"
    src = str(Path(digrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "digrank.cli", "verify", "--suite", "all",
         "--count", "2", "--json", str(out_json)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    reports = json.loads(out_json.read_text(encoding="utf-8"))
    assert [r["suite"] for r in reports] == list(SUITE_DEFAULTS)
    assert all(r["failures"] == [] and r["instances"] >= 1 for r in reports)
