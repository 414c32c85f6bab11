#!/usr/bin/env python3
"""Exact finite-sample coverage of the score interval across designs.

For each requested true probability, enumerates the coverage of the
nominal-level interval at every sample size up to a cap and reports where
coverage dips below nominal. No simulation: each value is an exact sum of
binomial probabilities. The n = 1 rows make the headline point, e.g. at
p = 0.2 a nominal 95% interval covers with probability 0.8.
"""

import argparse
import math
import sys

from riskbounds import exact_coverage


def sweep(p: float, n_max: int, level: float) -> None:
    print(f"\n== true p = {p}, nominal level {level:.0%} ==")
    print(f"{'n':>6} {'coverage':>9} {'shortfall':>10}")
    worst_n, worst_cov = None, math.inf
    for n in range(1, n_max + 1):
        report = exact_coverage(n, p, level)
        if report.coverage < worst_cov:
            worst_n, worst_cov = n, report.coverage
        shortfall = level - report.coverage
        flag = " <- below nominal" if shortfall > 0 else ""
        print(f"{n:>6} {report.coverage:>9.4f} {max(shortfall, 0.0):>10.4f}{flag}")
    print(f"worst over this range: n = {worst_n}, coverage = {worst_cov:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--p-values",
        default="0.1,0.2,0.5",
        help="comma-separated true probabilities to sweep",
    )
    parser.add_argument(
        "--n-max", type=int, default=30, help="largest sample size to enumerate"
    )
    parser.add_argument(
        "--level", type=float, default=0.95, help="nominal confidence level"
    )
    args = parser.parse_args(argv)
    try:
        p_values = [float(p_text) for p_text in args.p_values.split(",")]
    except ValueError:
        parser.error(f"--p-values must be comma-separated numbers, got {args.p_values!r}")
    if not all(0.0 <= p <= 1.0 for p in p_values):
        parser.error(f"--p-values must lie in [0, 1], got {args.p_values!r}")
    if args.n_max < 1:
        parser.error(f"--n-max must be >= 1, got {args.n_max}")
    if not 0.0 < args.level < 1.0:
        parser.error(f"--level must lie in (0, 1), got {args.level}")
    for p in p_values:
        sweep(p, args.n_max, args.level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
