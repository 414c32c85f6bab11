"""scripts/output_digest.py: one ``sha256 exit argv`` line per CLI call."""

import contextlib
import hashlib
import importlib.util
import io
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from riskbounds import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"
DIGESTS = ROOT / "tests" / "digests"
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
    # 3 configs x 3 formats, 2 configs x 2 wide seeds, the small repeated
    # design in 3 formats and at a wide seed, 2 cm1 calls, one expanded fit,
    # 4 coverage calls, 8 bad configs, 21 calls refused or failing after
    # parsing or at the edge of a refusal, 2 repeated designs for the
    # p-value, 14 calls of the parser's own output, 5 calls on a count
    # too large for a double or an n too small for one, 8 tables of a count
    # too long, out of range or not an integer, and wilson + fit on each
    # seeded table, at the default rounding and at --round 12
    assert len(lines) == 8 + 60 + 9 + 4 + 4 + 2 + 1 + 4 + 8 + 21 + 2 + 14 + 5 + 8 + 8
    assert [argv.split()[0] for _, _, argv in lines[:8]] == [
        "wilson", "wilson", "fit", "coverage", "simulate", "simulate",
        "refuted", "refuted",
    ]
    # static99 ships one row, too few for a fit: exit 2 is part of the corpus
    codes = {argv: code for _, code, argv in lines[:68]}
    assert {code for argv, code in codes.items() if "static99" not in argv} == {0}
    static99 = {code for argv, code in codes.items() if "static99" in argv}
    assert static99 == {0, 2}
    # the simulate, cm1, expanded-fit and coverage calls all succeed
    assert {code for _, code, _ in lines[68:92]} == {0}
    # n*m = 30 < 40: the permutation p-value is among the digested bytes
    assert [argv for _, _, argv in lines[81:85]] == [
        "simulate data/scenarios_repeated.cfg --reps 3 --format csv",
        "simulate data/scenarios_repeated.cfg --reps 3 --format tsv",
        "simulate data/scenarios_repeated.cfg --reps 3 --format pretty",
        "simulate data/scenarios_repeated.cfg --reps 3 --seed 4294967296",
    ]
    # one bad config per spec type, a one-person repeated design and a
    # Poisson rate too large to draw, each refused
    assert [(code, argv) for _, code, argv in lines[92:100]] == [
        (2, f"simulate tables/{name}.cfg")
        for name in [
            "point_risk", "two_point_risk", "beta_risk", "scenario_spec",
            "threshold_model", "threshold_scenario", "tiny", "poisson_rate",
        ]
    ]
    # bad lists, --reps 0, the README's cm1 call at n = 2 and six alphas or
    # levels too close to 0 or 1, each refused; four calls at alpha = 2**-52
    # or level = 1 - 2**-52, which run, and one at alpha = 2**-53, refused;
    # then a cm1 overflow, exit 3, a coverage level too close to 0, refused,
    # a cm1 difference that overflows, exit 3, and cm1 without --x-new, refused
    refused = [(code, argv.split()[0]) for _, code, argv in lines[100:121]]
    assert refused == [
        (2, command)
        for command in [
            "wilson", "wilson", "fit", "fit", "simulate", "refuted",
            "wilson", "wilson", "fit", "refuted", "refuted", "coverage",
        ]
    ] + [
        (0, "wilson"), (0, "fit"), (0, "refuted"), (0, "coverage"),
        (2, "wilson"), (3, "refuted"), (2, "coverage"), (3, "refuted"),
        (2, "refuted"),
    ]
    # an even df and a large one, each run
    assert [(code, argv) for _, code, argv in lines[121:123]] == [
        (0, f"simulate tables/{name}.cfg --round 12")
        for name in ["even_df", "large_df"]
    ]
    # each --help and --version, printed, and seven usage errors; then a
    # total of 10**400 and a fit whose --expand makes one, each refused,
    # an n whose 4 n**2 underflows and a fit whose sums overflow, failing
    helps = ["wilson", "fit", "coverage", "simulate", "refuted"]
    assert [(code, argv) for _, code, argv in lines[123:142]] == [
        (0, "--help"), *((0, f"{name} --help") for name in helps), (0, "--version"),
        (2, "(no arguments)"), (2, "bogus"), (2, "coverage --p 0.2"),
        (2, "coverage --n x --p 0.2"), (2, "wilson --format xml"),
        (2, "refuted --mode abc"), (2, "wilson --fictitious 0.1"),
        (2, "wilson tables/huge.csv"), (2, "fit tables/huge.csv"),
        (2, f"fit data/vrag_categories.csv --expand {10**308}"),
        (3, "wilson --fictitious 0.5 1e-320"),
        (3, f"fit data/vrag_categories.csv --expand {10**306}"),
    ]
    # a category, total or events of 5000 digits, negative events that long,
    # events past their total, a negative total and two non-integer fields,
    # each refused
    assert [(code, argv) for _, code, argv in lines[142:150]] == [
        (2, f"wilson tables/{name}.csv")
        for name in [
            "long_category", "long_total", "long_events", "long_negative_events",
            "events_over_total", "negative_total", "long_row_non_integer",
            "non_integer_total",
        ]
    ]
    assert [argv for _, _, argv in lines[-2:]] == [
        "wilson tables/t001.csv --format csv --round 12",
        "fit tables/t001.csv --alpha 0.05,0.20 --format csv --round 12",
    ]
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


def test_each_refusal_is_one_short_stderr_line(monkeypatch, tmp_path):
    # every corpus call that argparse accepts prints at most one stderr
    # line, of at most 200 characters, however long its input
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    output_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_digest)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    (tmp_path / "data").symlink_to(ROOT / "data")
    monkeypatch.chdir(tmp_path)
    long_lines, parsed = [], 0
    for argv in output_digest.corpus(7, 2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli._parser().parse_args(argv)
            except SystemExit:
                continue
            cli.main(argv)
        parsed += 1
        lines = err.getvalue().splitlines()
        if len(lines) > 1 or any(len(line) > 200 for line in lines):
            long_lines.append((argv, [len(line) for line in lines]))
    assert parsed > 100
    assert long_lines == []


def _check_digest(name: str, *args: str) -> None:
    """The checked-in ``output_digest.py <args>`` still matches ``name``.

    This is a change detector, not a golden: the file records what the tree
    printed when it was written, right or wrong, and the goldens stay pinned
    to independent oracles.  A change that moves output on purpose rewrites
    the file in the same commit, so its diff lists the moved calls.
    """
    path = DIGESTS / name
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    expected = [(m[1], int(m[2]), m[3]) for m in map(LINE.fullmatch, lines)]
    actual = _digest(*args)
    if actual != expected:
        running = (
            f"# python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__}"
        )
        drift = [] if header == running else [
            f"versions differ: the digest was written under {header[2:]!r}, "
            f"this run is {running[2:]!r}"
        ]
        moved = [old[2] for old, new in zip(expected, actual) if old != new]
        if len(actual) != len(expected):
            moved.append(f"line count {len(expected)} -> {len(actual)}")
        raise AssertionError("\n".join(drift + ["argv lines that moved:", *moved]))


def test_seed_401_digest_is_unchanged():
    _check_digest("output_digest_401.txt", "--seed", "401")


@pytest.mark.parametrize("seed", [7, 6105])
def test_other_seed_digests_are_unchanged(seed):
    _check_digest(f"output_digest_{seed}.txt", "--seed", str(seed))


def test_script_digests_are_unchanged():
    # one line per experiment script: the sha256 of its stdout, its exit
    # code and its path
    _check_digest("script_digest.txt", "--scripts")
