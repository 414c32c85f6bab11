"""``scripts/reproduce_tables.py`` prints the CLI's own tables.

Its wilson, fit and fictitious-sweep bodies (and its figure file) must be
the bodies the README's CLI calls print, as recorded in
``perfbench/cli_bodies.json``, and a rerun under SOURCE_DATE_EPOCH must be
byte-identical.
"""

import importlib.util
import json

from test_cephes import PERFBENCH, ROOT, _body

SCRIPT = ROOT / "scripts" / "reproduce_tables.py"


def _run_script(argv, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main(argv)
    return status, capsys.readouterr().out


def _sections(text: str) -> dict:
    """Section heading -> the text printed under it."""
    sections: dict = {}
    for line in text.splitlines():
        if line.startswith("== "):
            lines = sections[line] = []
        else:
            lines.append(line)
    return {k: "\n".join(v).strip("\n") + "\n" for k, v in sections.items()}


def test_bodies_are_the_cli_bodies(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    figure = tmp_path / "figure.csv"
    status, out = _run_script(["--figure", str(figure)], capsys)
    assert status == 0
    assert out.endswith(f"\nwrote plot dataset to {figure}\n")
    out = out[: -len(f"wrote plot dataset to {figure}\n")]
    bodies = json.loads((PERFBENCH / "cli_bodies.json").read_text(encoding="utf-8"))
    sections = _sections(out)
    assert list(sections) == [
        "== score intervals per category ==",
        "== grouped logistic fit ==",
        "== fixed proportion 0.13, shrinking pretend samples ==",
    ]
    wilson, fit, fictitious = sections.values()
    assert _body(wilson) == bodies["wilson_table"]["stdout"]
    assert _body(fit) == bodies["fit"]["stdout"]
    assert _body(fictitious) == bodies["wilson_fictitious"]["stdout"]
    assert _body(figure.read_text(encoding="utf-8")) == bodies["fit"]["figure.csv"]
    # every table carries its manifest
    assert out.count("subcommand: ") == 3


def test_rerun_is_byte_identical(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    first = _run_script([], capsys)
    assert first[0] == 0
    assert _run_script([], capsys) == first


def test_cli_failure_stops_the_script(tmp_path, capsys):
    table = tmp_path / "separated.csv"
    table.write_text("category,total,events\n1,10,0\n2,10,10\n", encoding="utf-8")
    status, out = _run_script(["--table", str(table)], capsys)
    assert status == 3
    assert "== fixed proportion" not in out
