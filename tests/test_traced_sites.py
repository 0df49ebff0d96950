"""The benchmark's tracer patches names where the engine looks them up.

`perfbench/spans.py` wraps each `(owner, attr)` in its SITES through
`owner.__dict__`, so a refactor that stops binding one of those names at
its owner breaks every traced benchmark run.  This catches it in tier-1.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_site_is_bound_at_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SITES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.SITES
        if attr not in owner.__dict__
    ]
    assert not missing, missing
