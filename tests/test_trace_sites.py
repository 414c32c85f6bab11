"""The benchmark's span sites must name attributes the package still has.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``SPAN_SITES`` with a bare ``getattr``, so a refactor that drops or renames
one of those names breaks every traced benchmark run.  The table is read
from the file's source, without importing or executing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _span_sites() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPAN_SITES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_SITES assignment in {TRACING}")


SITES = sorted(
    {(module, attr) for sites in _span_sites().values() for module, attr in sites}
)


def test_sites_were_found():
    assert ("riskbounds.cli", "main") in SITES


@pytest.mark.parametrize("module,attr", SITES, ids=lambda v: v)
def test_span_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
