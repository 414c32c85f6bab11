"""``scripts/coverage_sweep.py`` prints exact coverage per sample size.

Every printed coverage must be the root-finding oracle's value to the 4
decimals shown, with the published n = 1, p = 0.2 row at 0.8000 and the
worst row of each sweep named in its last line.
"""

import importlib.util
import re

import oracles
from test_cephes import ROOT

SCRIPT = ROOT / "scripts" / "coverage_sweep.py"
ROW = re.compile(r" *(\d+) +(\d\.\d{4}) +(\d\.\d{4})(?: <- below nominal)?")


def test_rows_match_the_oracle(capsys):
    spec = importlib.util.spec_from_file_location("coverage_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
