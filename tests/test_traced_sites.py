"""The benchmark's tracer patches names where the engine looks them up.

`perfbench/spans.py` wraps each `(owner, attr)` in its SITES through
`owner.__dict__`, so a refactor that stops binding one of those names at
its owner breaks every traced benchmark run.  This catches it in tier-1,
and also keeps the package from binding names for the tracer that SITES
does not wrap.
"""

import ast
import importlib.util
from pathlib import Path

import digrank

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(digrank.__file__).parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_site_is_bound_at_its_owner():
    spans = _load_spans()
    assert spans.SITES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.SITES
        if attr not in owner.__dict__
    ]
    assert not missing, missing


def test_every_tracer_only_import_is_a_traced_site():
    """A `noqa: F401` import in the package binds names only for the
    tracer, so each must be a name SITES wraps on that module: bindings
    that nothing traces cannot pile up."""
    sites = {(owner, attr) for owner, attr, _ in _load_spans().SITES}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        module = importlib.import_module(
            "digrank" if path.stem == "__init__" else f"digrank.{path.stem}"
        )
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                stray += [
                    f"{path.name}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (module, alias.asname or alias.name) not in sites
                ]
    assert not stray, stray
