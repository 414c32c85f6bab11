#!/usr/bin/env python3
"""Print one ``sha256 exit argv`` line per CLI call over a fixed corpus: the
README's calls, both shipped tables in each format at five ``--round`` values,
and ``wilson`` and ``fit`` on seeded tables, run in-process with
SOURCE_DATE_EPOCH pinned.  Two trees print the same stdout, stderr and written
files exactly when their digests ``diff`` clean.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np

from riskbounds import cli

ROOT = Path(__file__).resolve().parents[1]
TABLES = ("data/vrag_categories.csv", "data/static99_categories.csv")
ROUNDS = (["--round", "0"], ["--round", "2"], [], ["--round", "12"], ["--round", "20"])


def corpus(seed: int, count: int) -> list[list[str]]:
    """The calls, after writing ``count`` seeded tables under tables/."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    calls = [shlex.split(c) for c in re.findall("^riskbounds (.*)", readme, re.M)]
    for table, fmt, digits in itertools.product(TABLES, cli.FORMATS, ROUNDS):
        for command in ("wilson", "fit"):
            calls.append([command, table, "--format", fmt, *digits])
    rng = np.random.default_rng(seed)
    os.mkdir("tables")
    for i in range(count):
        k = int(rng.integers(2, 41))  # strata; totals log-uniform on [10, 1e9)
        totals = np.floor(10.0 ** rng.uniform(1.0, 9.0, k)).astype(np.int64)
        eta = rng.uniform(-2.0, 1.0) + rng.uniform(-6.0, 6.0) / k * np.arange(k)
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(-eta)))
        path = f"tables/t{i:03d}.csv"
        table = np.column_stack([np.arange(1, k + 1), totals, events])
        np.savetxt(path, table, "%d", ",", header="category,total,events", comments="")
        calls.append(["wilson", path, "--format", "csv"])
        calls.append(["fit", path, "--alpha", "0.05,0.20", "--format", "csv"])
    return calls


def digest(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(set(os.listdir()) - {"data", "tables"}):  # written files
        h.update(f"\0{name}\0".encode() + Path(name).read_bytes())
        os.remove(name)
    return h.hexdigest(), code


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=401, help="seeded-table seed")
    parser.add_argument("--tables", type=int, default=195, help="seeded table count")
    args = parser.parse_args(argv)
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    os.environ.pop("RISKBOUNDS_SEED", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, so that the manifests read the same in any tree
        os.symlink(ROOT / "data", Path(tmp) / "data")
        os.chdir(tmp)
        for call in corpus(args.seed, args.tables):
            print(*digest(call), " ".join(call))
        os.chdir(home)


if __name__ == "__main__":
    main()
