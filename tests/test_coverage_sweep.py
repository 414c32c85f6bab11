"""``scripts/coverage_sweep.py`` prints exact coverage per sample size.

Every printed coverage must be the root-finding oracle's value to the 4
decimals shown, with the published n = 1, p = 0.2 row at 0.8000 and the
worst row of each sweep named in its last line.
"""

import importlib.util
import re

import pytest

import oracles
from test_cephes import ROOT

SCRIPT = ROOT / "scripts" / "coverage_sweep.py"
ROW = re.compile(r" *(\d+) +(\d\.\d{4}) +(\d\.\d{4})(?: <- below nominal)?")


def load_script():
    spec = importlib.util.spec_from_file_location("coverage_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_match_the_oracle(capsys):
    module = load_script()
    assert module.main(["--p-values", "0.2,0.5", "--n-max", "30"]) == 0
    blocks = capsys.readouterr().out.split("\n== ")[1:]
    assert len(blocks) == 2
    for p, block in zip((0.2, 0.5), blocks):
        heading, columns, *rows, worst = block.splitlines()
        assert heading == f"true p = {p}, nominal level 95% =="
        assert columns.split() == ["n", "coverage", "shortfall"]
        exact = [oracles.coverage_by_roots(n, p, 0.95) for n in range(1, 31)]
        printed = [ROW.fullmatch(row).groups() for row in rows]
        assert [int(n) for n, _, _ in printed] == list(range(1, 31))
        assert [cov for _, cov, _ in printed] == [f"{c:.4f}" for c in exact]
        worst_n = 1 + exact.index(min(exact))
        assert worst == (
            f"worst over this range: n = {worst_n}, coverage = {min(exact):.4f}"
        )
    assert blocks[0].splitlines()[2].split()[:2] == ["1", "0.8000"]


def test_sweep_that_always_covers_names_its_first_size(capsys):
    assert load_script().main(["--p-values", "0.0,1.0", "--n-max", "5"]) == 0
    blocks = capsys.readouterr().out.split("\n== ")[1:]
    assert len(blocks) == 2
    for block in blocks:
        *_, rows, worst = block.splitlines()
        assert rows.split() == ["5", "1.0000", "0.0000"]
        assert worst == "worst over this range: n = 1, coverage = 1.0000"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n-max", "0"], "--n-max must be >= 1"),
        (["--p-values", "1.5"], "--p-values must lie in [0, 1]"),
        (["--p-values", "0.2,x"], "--p-values must be comma-separated numbers"),
        (["--level", "95"], "--level must lie in (0, 1)"),
    ],
)
def test_rejects_empty_range_and_bad_p(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
