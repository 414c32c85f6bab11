"""scripts/output_digest.py: one ``sha256 exit argv`` line per CLI call."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from riskbounds import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"
LINE = re.compile(r"([0-9a-f]{64}) (\d+) (\S.*)")


def _digest(*args: str) -> list[tuple[str, int, str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = [LINE.fullmatch(line) for line in child.stdout.splitlines()]
    assert all(lines), child.stdout
    return [(m[1], int(m[2]), m[3]) for m in lines]


def test_two_table_corpus(monkeypatch):
    lines = _digest("--seed", "7", "--tables", "2")
    # 8 README calls, 2 tables x 3 formats x 5 roundings x (wilson, fit),
    # and wilson + fit on each seeded table
    assert len(lines) == 8 + 60 + 4
    assert [argv.split()[0] for _, _, argv in lines[:8]] == [
        "wilson", "wilson", "fit", "coverage", "simulate", "simulate",
        "refuted", "refuted",
    ]
    # static99 ships one row, too few for a fit: exit 2 is part of the corpus
    codes = {argv: code for _, code, argv in lines[:68]}
    assert {code for argv, code in codes.items() if "static99" not in argv} == {0}
    static99 = {code for argv, code in codes.items() if "static99" in argv}
    assert static99 == {0, 2}
    assert lines[-1][2] == "fit tables/t001.csv --alpha 0.05,0.20 --format csv"
    assert _digest("--seed", "7", "--tables", "2") == lines
    assert _digest("--seed", "8", "--tables", "2")[-4:] != lines[-4:]

    # the digest of a call that writes no file: sha256(stdout NUL stderr)
    sha, _, argv = lines[0]
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    assert hashlib.sha256(f"{out.getvalue()}\0".encode()).hexdigest() == sha
