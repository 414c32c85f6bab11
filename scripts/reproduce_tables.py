#!/usr/bin/env python3
"""Rebuild the headline result tables from the shipped category counts.

Prints, in order and through the ``riskbounds`` CLI, so every table carries
its run manifest: the per-category score intervals, the grouped logistic
fit with delta-method risk intervals at each confidence level and the Wald
trend test, and the fixed-proportion sweep showing how the (invalid)
single-outcome construction widens as the pretend sample size shrinks.
Optionally writes the plot dataset (observed vs fitted with bounds) to a
CSV for downstream figures.  Set SOURCE_DATE_EPOCH for byte-identical
reruns.
"""

import argparse
import sys
from pathlib import Path

from riskbounds import cli

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TABLE = REPO_ROOT / "data" / "vrag_categories.csv"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--table",
        type=Path,
        default=DEFAULT_TABLE,
        help=f"category count CSV (default: {DEFAULT_TABLE})",
    )
    parser.add_argument(
        "--alphas",
        default="0.05,0.20",
        help="comma-separated miscoverage levels for the fit tables",
    )
    parser.add_argument(
        "--theta", type=float, default=0.13, help="proportion for the sweep"
    )
    parser.add_argument(
        "--n-list",
        default="167,50,10,5,1",
        help="comma-separated pretend sample sizes for the sweep",
    )
    parser.add_argument(
        "--figure", type=Path, default=None, help="write plot dataset CSV here"
    )
    args = parser.parse_args(argv)

    table = str(args.table)
    figure = [] if args.figure is None else ["--figure", str(args.figure)]
    sections = [
        (
            ["== score intervals per category =="],
            ["wilson", table, "--round", "2"],
        ),
        (
            ["", "== grouped logistic fit =="],
            ["fit", table, "--alpha", args.alphas, *figure],
        ),
        (
            [
                "",
                f"== fixed proportion {args.theta:.2f}, shrinking pretend samples ==",
                "(flagged invalid: none of these sample sizes can yield the fixed",
                " proportion exactly, and the n=1 row is the refuted single-outcome",
                " reading)",
            ],
            ["wilson", "--fictitious", str(args.theta), args.n_list, "--round", "2"],
        ),
    ]
    for heading, cli_argv in sections:
        print("\n".join(heading))
        status = cli.main(cli_argv)
        if status != 0:
            return status
    if args.figure is not None:
        print(f"\nwrote plot dataset to {args.figure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
