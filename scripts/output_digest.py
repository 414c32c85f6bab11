#!/usr/bin/env python3
"""Print one ``sha256 exit argv`` line per CLI call over a fixed corpus.

The corpus is the README's calls, then the fixed calls that ``corpus``
builds from the constants below (their comments say what each covers), then
``wilson`` and ``fit`` on ``--tables`` tables drawn from ``--seed``.  Each
call runs in-process with SOURCE_DATE_EPOCH pinned and argparse wrapping at
COLUMNS=80; its line hashes stdout, stderr and any file it wrote.  Two trees
print the same bytes exactly when their digests ``diff`` clean.
``--scripts`` prints instead one ``sha256 exit script`` line per experiment
script, hashing its stdout with the tree's path taken off the ``inputs:``
lines.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from riskbounds import cli

ROOT = Path(__file__).resolve().parents[1]
TABLES = ("data/vrag_categories.csv", "data/static99_categories.csv")
ROUNDS = (["--round", "0"], ["--round", "2"], [], ["--round", "12"], ["--round", "20"])
CONFIGS = (
    "data/scenarios_single_outcome.cfg",
    "data/scenarios_repeated.cfg",
    "data/threshold_demo.cfg",
)
# seeds of two and five 32-bit words (2**32 and 2**130 + 17)
WIDE_SEEDS = ("4294967296", "1361129467683753853853498429727072845841")
# the README's values, and eta - half near -2e5, where exp(-x) overflows
CM1 = (
    "--beta0 -2.0 --beta1 0.5 --sigma 1.0 --n 255 --x-bar 20 --ss-x 5000 --x-new 20",
    "--beta0 0 --beta1 0 --sigma 1e5 --n 30 --x-bar 0 --ss-x 1 --x-new 0",
)
# n = 1100 at p = 0.5 has masses down to 2**-1074, printed in full by --round 1074
COVERAGE = (
    "--n 2 --p 0.5",
    "--n 40 --p 0.37 --level 0.9",
    "--n 1100 --p 0.5 --round 1074",
    "--n 10000 --p 0.003",
)
SCRIPTS = (
    "scripts/coverage_sweep.py",
    "scripts/reproduce_tables.py",
    "scripts/identifiability_experiment.py",
)
PRECISE_TABLES = 20  # seeded tables digested at --round 12 too
COHORT = (
    "model = threshold\nthreshold_location = 0.5\nprovocation_rate = 2.0\n"
    "strength_location = 0.0\n"
)
# one fault per spec type, a repeated design of one person and a Poisson
# rate numpy cannot draw, so that each refusal's stderr is digested
REFUSALS = {
    "point_risk": "distribution = point\np = 1.5\nsample_size = 4\n",
    "two_point_risk": (
        "distribution = two_point\np1 = 0.2\nw1 = 2\np2 = 0.4\nsample_size = 4\n"
    ),
    "beta_risk": "distribution = beta\na = 0\nb = 2\nsample_size = 4\n",
    "scenario_spec": "distribution = point\np = 0.5\nsample_size = 0\n",
    "threshold_model": f"{COHORT}follow_up = 0\ncohort_size = 5\n",
    "threshold_scenario": f"{COHORT}follow_up = 1.0\ncohort_size = 0\n",
    "tiny": "distribution = point\np = 0.5\nsample_size = 1\nrepeats = 3\n",
    "poisson_rate": (
        f"{COHORT.replace('2.0', '1e308')}follow_up = 1.0\ncohort_size = 5\n"
    ),
}
# repeated designs whose clustering p-value takes an even df (10) and a
# large one (2000, at a statistic of 4002)
DESIGNS = {
    "even_df": (
        "distribution = two_point\np1 = 0.7\nw1 = 0.5\np2 = 0.3\n"
        "sample_size = 11\nrepeats = 4\nseed = 5\n"
    ),
    "large_df": (
        "distribution = two_point\np1 = 1.0\nw1 = 0.5\np2 = 0.0\n"
        "sample_size = 2001\nrepeats = 2\n"
    ),
}
# calls refused or failing after parsing, and calls at the edge of a
# refusal that still run, so that each refusal is digested beside its edge
REFUSED_CALLS = (
    "wilson --fictitious 0.13 167,x",
    "wilson --fictitious 0.13 ,",
    f"fit {TABLES[0]} --alpha 0.05,x",
    f"fit {TABLES[0]} --alpha ,",
    f"simulate {CONFIGS[1]} --reps 0",
    "refuted --mode cm1 " + CM1[0].replace("--n 255", "--n 2"),
    # alpha (or 1 - level) so small that 1 - alpha/2 rounds to 1; alpha =
    # 2**-52 and level = 1 - 2**-52 still run at each site that checks them,
    # and alpha = 2**-53 does not
    f"wilson {TABLES[0]} --alpha 1e-17",
    "wilson --fictitious 0.13 10 --alpha 1e-17",
    f"fit {TABLES[0]} --alpha 1e-17",
    "refuted --mode hmc --theta 0.13 --alpha 1e-17",
    f"refuted --mode cm1 {CM1[0]} --alpha 1e-17",
    "coverage --n 10 --p 0.2 --level 0.9999999999999999",
    f"wilson {TABLES[0]} --alpha {2**-52!r} --round 12",
    f"fit {TABLES[0]} --alpha {2**-52!r} --round 12",
    f"refuted --mode cm1 {CM1[0]} --alpha {2**-52!r} --round 12",
    f"coverage --n 10 --p 0.2 --level {1 - 2**-52!r} --round 12",
    f"wilson --fictitious 0.13 10 --alpha {2**-53!r}",
    # (x_new - x_bar)**2 overflows
    "refuted --mode cm1 --beta0 1e308 --beta1 5e-324 --sigma -0 --x-bar 1e308 "
    "--ss-x 1e-300 --x-new 5e-324 --n 3 --df 5 --alpha 0.9",
    # a level so close to 0 that 1 - level rounds to 1
    "coverage --n 10 --p 0.2 --level 1e-20",
    # x_new - x_bar overflows
    "refuted --mode cm1 --beta0 0 --beta1 0 --sigma 0 --x-bar=-1e308 --ss-x 1 "
    "--x-new 1e308 --n 5",
    # the README's cm1 call without --x-new: --sigma is given
    "refuted --mode cm1 " + CM1[0].replace(" --x-new 20", ""),
)

# the parser's own output: each --help, --version and usage errors (no
# subcommand, an unknown one, a missing flag, a bad int, a bad choice of
# --format and of --mode, and too few --fictitious values)
PARSER_CALLS = (
    "--help",
    "wilson --help",
    "fit --help",
    "coverage --help",
    "simulate --help",
    "refuted --help",
    "--version",
    "",
    "bogus",
    "coverage --p 0.2",
    "coverage --n x --p 0.2",
    "wilson --format xml",
    "refuted --mode abc",
    "wilson --fictitious 0.1",
)
# a total of 10**400, which no double holds, beside a second stratum
HUGE_TABLE = f"category,total,events\n1,{10**400},1\n2,10,5\n"
# rows of counts no double holds (5000 digits is past the 4300 that int()
# reads), events past their total, a negative total, and a non-integer
# field beside a long one and alone, one table each
NINES = "9" * 5000
COUNT_ROWS = {
    "long_category": f"{NINES},10,5",
    "long_total": f"1,{NINES},1",
    "long_events": f"1,10,{NINES}",
    "long_negative_events": f"1,10,-{NINES}",
    "events_over_total": f"1,10,{'9' * 400}",
    "negative_total": "1,-5,1",
    "long_row_non_integer": f"x,{NINES},1",
    "non_integer_total": "1,2x,1",
}


def write_config(name: str, body: str) -> str:
    """Write ``[name]`` with ``body`` under tables/ and return its path."""
    path = f"tables/{name}.cfg"
    Path(path).write_text(f"[{name}]\n{body}", encoding="utf-8")
    return path


def corpus(seed: int, count: int) -> list[list[str]]:
    """The calls, after writing ``count`` seeded tables under tables/."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    calls = [shlex.split(c) for c in re.findall("^riskbounds (.*)", readme, re.M)]
    for table, fmt, digits in itertools.product(TABLES, cli.FORMATS, ROUNDS):
        for command in ("wilson", "fit"):
            calls.append([command, table, "--format", fmt, *digits])
    for config, fmt in itertools.product(CONFIGS, cli.FORMATS):
        calls.append(["simulate", config, "--format", fmt])
    for config, wide in itertools.product(CONFIGS[1:], WIDE_SEEDS):
        calls.append(["simulate", config, "--seed", wide])
    small = ["simulate", CONFIGS[1], "--reps", "3"]
    calls += [[*small, "--format", fmt] for fmt in cli.FORMATS]
    calls.append([*small, "--seed", WIDE_SEEDS[0]])
    for values in CM1:
        calls.append(["refuted", "--mode", "cm1", *values.split(), "--format", "csv"])
    calls.append(["fit", TABLES[0], "--expand", "10", "--format", "csv"])
    calls += [["coverage", *values.split()] for values in COVERAGE]
    rng = np.random.default_rng(seed)
    os.mkdir("tables")
    for name, body in REFUSALS.items():
        calls.append(["simulate", write_config(name, body)])
    calls += [call.split() for call in REFUSED_CALLS]
    for name, body in DESIGNS.items():
        calls.append(["simulate", write_config(name, body), "--round", "12"])
    calls += [call.split() for call in PARSER_CALLS]
    Path("tables/huge.csv").write_text(HUGE_TABLE, encoding="utf-8")
    calls += [["wilson", "tables/huge.csv"], ["fit", "tables/huge.csv"]]
    calls.append(["fit", TABLES[0], "--expand", str(10**308)])  # 11 * 10**308
    calls.append(["wilson", "--fictitious", "0.5", "1e-320"])  # 4 n**2 is 0
    calls.append(["fit", TABLES[0], "--expand", str(10**306)])  # sums overflow
    for name, row in COUNT_ROWS.items():
        path = f"tables/{name}.csv"
        Path(path).write_text(f"category,total,events\n{row}\n", encoding="utf-8")
        calls.append(["wilson", path])
    for i in range(count):
        k = int(rng.integers(2, 41))  # strata; totals log-uniform on [10, 1e9)
        totals = np.floor(10.0 ** rng.uniform(1.0, 9.0, k)).astype(np.int64)
        eta = rng.uniform(-2.0, 1.0) + rng.uniform(-6.0, 6.0) / k * np.arange(k)
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(-eta)))
        path = f"tables/t{i:03d}.csv"
        table = np.column_stack([np.arange(1, k + 1), totals, events])
        np.savetxt(path, table, "%d", ",", header="category,total,events", comments="")
        # the first tables also at 12 decimals, where a last-bit change in a
        # bound or a fitted beta moves the digest
        for digits in [[], ["--round", "12"]] if i < PRECISE_TABLES else [[]]:
            calls.append(["wilson", path, "--format", "csv", *digits])
            fit = ["fit", path, "--alpha", "0.05,0.20", "--format", "csv"]
            calls.append([*fit, *digits])
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


def script_digest(script: str) -> tuple[str, int]:
    """sha256 of a script's stdout, run on the package ``cli`` came from."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, str(ROOT / script)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    # reproduce_tables.py names its default table by absolute path
    out = re.sub(
        f"^((?:# )?inputs: ){re.escape(str(ROOT) + os.sep)}", r"\1",
        child.stdout, flags=re.M,
    )
    return hashlib.sha256(out.encode()).hexdigest(), child.returncode


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=401, help="seeded-table seed")
    parser.add_argument("--tables", type=int, default=195, help="seeded table count")
    parser.add_argument(
        "--scripts", action="store_true", help="digest the experiment scripts"
    )
    args = parser.parse_args(argv)
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    os.environ["COLUMNS"] = "80"  # the width argparse wraps --help to
    if args.scripts:
        for script in SCRIPTS:
            print(*script_digest(script), script)
        return
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, so that the manifests read the same in any tree
        os.symlink(ROOT / "data", Path(tmp) / "data")
        os.chdir(tmp)
        for call in corpus(args.seed, args.tables):
            print(*digest(call), " ".join(call) or "(no arguments)")
        os.chdir(home)


if __name__ == "__main__":
    main()
