"""Golden digests of every verify suite at count 25, seeds 0 and 1.

A suite's report holds only counts when it passes, so two digests are
pinned per (suite, seed): one of `run_suite(...).to_dict()` without
`wall_time_s`, and one of what the suite drew: every graph it handed to
`oracle_rank` with the rank, then the state its random stream ended in.
A refactor of the suites that keeps both keeps each suite's instances,
its checks' order and its report.
"""

import hashlib
import json
import random
import types

import pytest

from digrank import verify
from digrank.digraph import format_digraph

GOLDEN = {
    ("thm-hy", 0): ("7f0c31d322925691", "35b7d35abfa9469e"),
    ("thm-hy", 1): ("7f0c31d322925691", "3675a977799b507c"),
    ("obs-1", 0): ("bc176faf62f186ff", "ed2e6e294f07752d"),
    ("obs-1", 1): ("bc176faf62f186ff", "5b6c0214a5988e60"),
    ("thm-2.2", 0): ("584fc8aeca34b684", "ff92b5861bbfcc37"),
    ("thm-2.2", 1): ("584fc8aeca34b684", "bfb03895cdeb89e5"),
    ("lemma-2rin", 0): ("ccb21451d82f2ebb", "c55494b4efc2650c"),
    ("lemma-2rin", 1): ("ccb21451d82f2ebb", "b66041bb3557318c"),
    ("thm-mdt", 0): ("9380d59a562dd19d", "ac44b3ce47f28d3a"),
    ("thm-mdt", 1): ("9380d59a562dd19d", "bfcbefcc5c9fcef5"),
    ("thm-pen", 0): ("07628962b30ad50b", "a29738abdc491d7f"),
    ("thm-pen", 1): ("07628962b30ad50b", "1795276e8b9c7571"),
    ("cor-loops", 0): ("8697cdb3e062eb94", "7b84592b6a944d66"),
    ("cor-loops", 1): ("8697cdb3e062eb94", "afa8fa64db3977a2"),
    ("thm-genr2", 0): ("61f0c3199b603217", "685319f74e935218"),
    ("thm-genr2", 1): ("61f0c3199b603217", "4d69101cdcc28e89"),
    ("cor-cr2", 0): ("08518e9395881f57", "16565e0b69848583"),
    ("cor-cr2", 1): ("08518e9395881f57", "1b09805c979128f6"),
    ("thm-tt", 0): ("bd8b00cf474488d3", "3f196185ebd334c2"),
    ("thm-tt", 1): ("bd8b00cf474488d3", "60715bb00233910f"),
    ("cor-r2tree", 0): ("b1d087dd608b46a2", "06d5f99f786ae781"),
    ("cor-r2tree", 1): ("b1d087dd608b46a2", "86ea3e37d65d131b"),
    ("cor-blockgraph", 0): ("83a3bdab43d28844", "26b004c2a1dfa40f"),
    ("cor-blockgraph", 1): ("83a3bdab43d28844", "e6c7daf6d873ed6f"),
    ("cor-biblock-r2", 0): ("fd1fd038cacdd9d0", "a2cca98b2cfa1863"),
    ("cor-biblock-r2", 1): ("fd1fd038cacdd9d0", "ed9262057ae6d696"),
    ("thm-r0", 0): ("59040dba1769c7ca", "cb82d7c74ec58702"),
    ("thm-r0", 1): ("bba0ade680ff3520", "91086afb04c59ef6"),
    ("thm-r0f", 0): ("71fb3bdaffd69f4e", "460dd1bc4edac10f"),
    ("thm-r0f", 1): ("71fb3bdaffd69f4e", "8d5e37bb6973be22"),
    ("cor-biblock-r0", 0): ("ff66e5af4197017f", "b52bf0252d5e8f67"),
    ("cor-biblock-r0", 1): ("ff66e5af4197017f", "02ce32ca05d0bf8a"),
    ("case3", 0): ("afae0fab356e9cf3", "f8f0a7316e1c5511"),
    ("case3", 1): ("afae0fab356e9cf3", "cafdec97b0c7214b"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_suite_has_a_golden_digest():
    assert {name for name, _ in GOLDEN} == set(verify.suite_names())


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_suite_report_and_draws_match_golden(monkeypatch, name, seed):
    drawn: list[str] = []
    streams: list[random.Random] = []
    oracle = verify.oracle_rank

    def recording_oracle(G):
        r = oracle(G)
        drawn.append(f"{format_digraph(G)}={r}")
        return r

    def recording_random(key):
        streams.append(random.Random(key))
        return streams[-1]

    monkeypatch.setattr(verify, "oracle_rank", recording_oracle)
    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=recording_random))
    report = verify.run_suite(name, 25, seed=seed).to_dict()
    report.pop("wall_time_s")
    assert report["failures"] == []
    got = (
        _sha(json.dumps(report, sort_keys=True)),
        _sha("\n".join(drawn) + repr(streams[0].getstate())),
    )
    assert got == GOLDEN[(name, seed)]
