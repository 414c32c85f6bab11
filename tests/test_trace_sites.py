"""The benchmark's span sites must name attributes the package still has.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``SPAN_SITES`` with a bare ``getattr``, so a refactor that drops or renames
one of those names breaks every traced benchmark run.  The table is read
from the file's source, without importing or executing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from riskbounds import cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "riskbounds"


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


def _kept_imports() -> list:
    """``(module, names)`` of every ``# noqa: F401`` import in the package."""
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                "# noqa: F401" in lines[node.end_lineno - 1]
            ):
                names = tuple(alias.asname or alias.name for alias in node.names)
                kept.append((f"riskbounds.{path.stem}", names))
    return kept


KEPT_IMPORTS = _kept_imports()


def test_kept_imports_were_found():
    assert (
        "riskbounds.identifiability", ("binomial_pmf", "binomial_pmf_array")
    ) in KEPT_IMPORTS


@pytest.mark.parametrize(
    "module,names", KEPT_IMPORTS, ids=lambda v: v if isinstance(v, str) else ",".join(v)
)
def test_kept_import_is_a_span_site(module, names):
    # an unused import is kept only for perfbench/tracing.py to wrap, and
    # goes once SPAN_SITES stops naming it
    assert any((module, name) in SITES for name in names)


def test_render_table_takes_columns_then_rows():
    # the benchmark's cli.render_cells counter reads a call's args[0] and
    # args[1] as the columns and rows of render_table
    names = list(inspect.signature(cli.render_table).parameters)
    assert names[:2] == ["columns", "rows"]


def test_main_passes_columns_and_rows_positionally(monkeypatch, tmp_path, vrag_path):
    calls = []
    render = cli.render_table

    def spy(*args, **kwargs):
        calls.append(args)
        return render(*args, **kwargs)

    monkeypatch.setattr(cli, "render_table", spy)
    figure = tmp_path / "figure.csv"
    assert cli.main(["fit", str(vrag_path), "--figure", str(figure)]) == 0
    assert [(len(args[0]), len(args[1])) for args in calls] == [(8, 9), (5, 9)]


CM1 = "--beta0 -2.0 --beta1 0.5 --sigma 1.0 --n 255 --x-bar 20 --ss-x 5000 --x-new 20"


@pytest.mark.parametrize(
    "argv, float_cells, footer",
    [
        # 18 rows of alpha, observed, fitted, lower and upper; the footer
        # formats beta0, se0, beta1, se1, deviance and wald_chi2
        (["fit", "vrag_categories.csv", "--alpha", "0.05,0.20"], 90, 6),
        (["wilson", "vrag_categories.csv"], 36, 0),
        (["wilson", "--fictitious", "0.13", "167,50,10,5,1"], 25, 0),
        # 41 outcomes of probability, lower and upper; the footer's coverage
        (["coverage", "--n", "40", "--p", "0.37"], 123, 1),
        # the value column mixes int, float and bool
        (["simulate", "scenarios_repeated.cfg"], 6, 0),
        (["refuted", "--mode", "hmc", "--theta", "0.13"], 4, 0),
        (["refuted", "--mode", "cm1", *CM1.split()], 4, 0),
    ],
    ids=["fit", "wilson", "fictitious", "coverage", "simulate", "hmc", "cm1"],
)
def test_every_float_cell_goes_through_cli_format_fixed(
    monkeypatch, data_dir, argv, float_cells, footer
):
    # the benchmark's rounding.format_calls counts calls of
    # riskbounds.cli.format_fixed, so rendering must keep looking it up there
    formatted = []
    rendered = []
    format_fixed, render = cli.format_fixed, cli.render_table

    def format_spy(*args, **kwargs):
        formatted.append(args)
        return format_fixed(*args, **kwargs)

    def render_spy(*args, **kwargs):
        rendered.append(args)
        return render(*args, **kwargs)

    monkeypatch.setattr(cli, "format_fixed", format_spy)
    monkeypatch.setattr(cli, "render_table", render_spy)
    monkeypatch.chdir(data_dir)
    assert cli.main(argv) == 0
    ((_, rows, *_),) = rendered
    cells = sum(
        isinstance(value, float) and not isinstance(value, bool)
        for row in rows
        for value in row
    )
    assert cells == float_cells
    assert len(formatted) == float_cells + footer
