"""Command-line frontend: wilson, fit, coverage, simulate, refuted.

Every output (stdout or file) starts with a run manifest rendered as
comment lines, so any table can be traced back to the exact invocation
that produced it.  Reruns with an identical manifest are byte-identical;
set SOURCE_DATE_EPOCH to pin the manifest timestamp.

Exit codes: 0 success, 2 input/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import InputError, expand_weights, parse_category_table
from .identifiability import (
    ScenarioSpec,
    ThresholdScenario,
    clustering_test,
    exact_count_distribution,
    icc_estimate,
    marginal_equivalence_check,
    read_scenario_config,
    simulate_repeated,
    simulate_threshold_cohort,
)
from .logistic import (
    NumericalError,
    fit_grouped_logistic,
    predict_bounds,
    trend_test,
)

# predict_risk stays importable from this module: perfbench/tracing.py
# wraps it here for its logistic.predict span, although cmd_fit now calls
# predict_bounds
from .logistic import predict_risk  # noqa: F401
from .refuted import (
    REFUTATION_BANNER,
    CM1PseudoInput,
    cm1_pseudo_interval,
    hmc_individual_interval,
)
from .rounding import MAX_DIGITS, format_fixed
from .wilson import WilsonInput, exact_coverage, score_bounds, wilson_interval

FORMATS = ("csv", "tsv", "pretty")
DEFAULT_DIGITS = 4
SEED_ENV_VAR = "RISKBOUNDS_SEED"


# ---------------------------------------------------------------------------
# reports, run manifest and table rendering


@dataclass
class Report:
    """A table, what its manifest records, and the csv files to write."""

    columns: list[str]
    rows: list[list[object]]
    parameters: dict[str, object]
    inputs: tuple[str, ...] = ()
    seed: int | str | None = None
    banner: str | None = None
    footer: list[str] = field(default_factory=list)
    files: dict[str, Report] = field(default_factory=dict)

    def render(self, command: str, fmt: str, digits: int, timestamp: str) -> str:
        manifest = _manifest(command, self, timestamp)
        return render_table(
            self.columns, self.rows, manifest, fmt, digits, self.banner, self.footer
        )


def _env_int(name: str, kind: str) -> int | None:
    text = os.environ.get(name)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{name} must be {kind}, got {text!r}") from None


def _timestamp() -> str:
    epoch = _env_int("SOURCE_DATE_EPOCH", "an integer number of seconds")
    if epoch is None:
        epoch = int(time.time())
    try:
        moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise InputError(
            f"SOURCE_DATE_EPOCH must fall in the years 1 to 9999, got {epoch}"
        ) from None
    # glibc's %Y does not pad years before 1000
    return f"{moment.year:04d}-{moment:%m-%dT%H:%M:%SZ}"


def _manifest(command: str, report: Report, timestamp: str) -> list[str]:
    params = sorted((k, str(v)) for k, v in report.parameters.items())
    return [
        f"riskbounds {__version__}",
        f"subcommand: {command}",
        f"inputs: {', '.join(report.inputs) or 'none'}",
        f"parameters: {' '.join(f'{k}={v}' for k, v in params) or 'none'}",
        f"seed: {'none' if report.seed is None else report.seed}",
        f"timestamp: {timestamp}",
    ]


def _cell(value: object, digits: int) -> str:
    # exact types first, for speed; subclasses (bool, numpy scalars) below
    kind = type(value)
    if kind is float:
        return format_fixed(value, digits)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_fixed(value, digits)
    return str(value)


def render_table(
    columns: list[str],
    rows: list[list[object]],
    manifest: list[str],
    fmt: str,
    digits: int,
    banner: str | None = None,
    footer: list[str] | None = None,
) -> str:
    """Render rows in csv, tsv, or pretty layout, manifest included."""
    footer = footer or []
    cells = [[_cell(v, digits) for v in row] for row in rows]
    lines: list[str] = []
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        lines.extend(f"# {text}" for text in manifest)
        if banner:
            lines.extend(f"# {text}" for text in banner.splitlines())
        lines.append(sep.join(columns))
        lines.extend(sep.join(row) for row in cells)
        lines.extend(f"# {text}" for text in footer)
    elif fmt == "pretty":
        lines.extend(manifest)
        lines.append("")
        if banner:
            lines.extend(banner.splitlines())
            lines.append("")
        widths = [
            max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells
        )
        if footer:
            lines.append("")
            lines.extend(footer)
    else:
        raise InputError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _digits(requested: int | None) -> int:
    if requested is None:
        return DEFAULT_DIGITS
    if requested < 0:
        raise InputError("--round must be >= 0")
    if requested > MAX_DIGITS:
        raise InputError(f"--round must be <= {MAX_DIGITS}")
    return requested


# ---------------------------------------------------------------------------
# subcommands


def cmd_wilson(args: argparse.Namespace, digits: int) -> Report:
    if args.fictitious is not None:
        if args.table is not None:
            raise InputError(
                "provide a table path or --fictitious THETA N_LIST, not both"
            )
        theta_text, n_text = args.fictitious
        try:
            theta = float(theta_text)
            sizes = [float(part) for part in n_text.split(",") if part]
        except ValueError:
            raise InputError(
                "--fictitious expects THETA and a comma-separated n list"
            ) from None
        if not sizes:
            raise InputError("--fictitious n list is empty")
        columns = ["n", "theta_hat", "lower", "upper", "level", "method", "valid"]
        rows = []
        for n in sizes:
            est = wilson_interval(WilsonInput(theta_hat=theta, n=n, alpha=args.alpha))
            rows.append(
                [n, theta, est.lower, est.upper, est.level, est.method, est.valid]
            )
        parameters = {"alpha": args.alpha, "theta": theta, "n_list": n_text}
        return Report(columns, rows, parameters)

    if args.table is None:
        raise InputError("provide a table path or --fictitious THETA N_LIST")
    table = parse_category_table(_read_text(args.table))
    columns = [
        "category",
        "total",
        "events",
        "theta_hat",
        "lower",
        "upper",
        "level",
        "method",
        "valid",
    ]
    # every row is a real sample: CategoryRow holds integer counts with
    # 1 <= total and 0 <= events <= total; float() in Python converts
    # totals above 2**63 too
    lower, upper = score_bounds(
        np.array([row.proportion for row in table.rows]),
        np.array([float(row.total) for row in table.rows]),
        args.alpha,
    )
    level, real = 1.0 - args.alpha, ("wilson", True)  # method, valid
    rows = [
        [row.category, row.total, row.events, row.proportion, lo, hi, level, *real]
        for row, lo, hi in zip(table.rows, lower.tolist(), upper.tolist())
    ]
    return Report(columns, rows, {"alpha": args.alpha}, inputs=(args.table,))


def cmd_fit(args: argparse.Namespace, digits: int) -> Report:
    try:
        alphas = [float(part) for part in args.alpha.split(",") if part]
    except ValueError:
        raise InputError(f"bad --alpha list {args.alpha!r}") from None
    if not alphas:
        raise InputError("--alpha list is empty")
    table = parse_category_table(_read_text(args.table))
    if args.expand != 1:
        table = expand_weights(table, args.expand)
    fit = fit_grouped_logistic(table)
    trend = trend_test(fit)

    se0 = float(fit.cov[0, 0]) ** 0.5
    se1 = float(fit.cov[1, 1]) ** 0.5
    summary = [
        f"fit: beta0={format_fixed(fit.beta0, digits)} "
        f"se0={format_fixed(se0, digits)} "
        f"beta1={format_fixed(fit.beta1, digits)} "
        f"se1={format_fixed(se1, digits)}",
        f"fit: deviance={format_fixed(fit.deviance, digits)} "
        f"iterations={fit.iterations} converged={str(fit.converged).lower()}",
        f"trend: wald_chi2={format_fixed(trend.wald_chi2, digits)} "
        f"p_value={trend.p_value:.3g}",
    ]
    columns = [
        "alpha",
        "category",
        "total",
        "events",
        "observed",
        "fitted",
        "lower",
        "upper",
    ]
    rows = []
    for alpha in alphas:
        risk, lower, upper = predict_bounds(fit, table.categories, alpha)
        rows.extend(
            [alpha, row.category, row.total, row.events, row.proportion, p, lo, hi]
            for row, p, lo, hi in zip(
                table.rows, risk.tolist(), lower.tolist(), upper.tolist()
            )
        )
    parameters = {"alpha": args.alpha, "expand": args.expand}
    report = Report(columns, rows, parameters, inputs=(args.table,), footer=summary)
    if args.figure is not None:
        # the figure is the first alpha's block without its counts; its
        # manifest names that one alpha and no format
        fig_params = {"alpha": alphas[0], "expand": args.expand, "round": args.round}
        report.files[args.figure] = Report(
            ["category", "observed", "fitted", "lower", "upper"],
            [[row[1], *row[4:]] for row in rows[: len(table.rows)]],
            {**fig_params, "figure": args.figure},
            inputs=(args.table,),
        )
    return report


def cmd_coverage(args: argparse.Namespace, digits: int) -> Report:
    report = exact_coverage(args.n, args.p, args.level)
    outcomes = (report.probability, report.lower, report.upper, report.covered)
    columns = ["k", "probability", "lower", "upper", "covered"]
    rows = list(zip(range(report.n + 1), *outcomes))
    footer = [f"coverage: {format_fixed(report.coverage, digits)}"]
    parameters = {"n": args.n, "p": args.p, "level": args.level}
    return Report(columns, rows, parameters, footer=footer)


def cmd_simulate(args: argparse.Namespace, digits: int) -> Report:
    text = _read_text(args.config)
    # precedence: --seed beats each section's seed key, which beats the
    # RISKBOUNDS_SEED fallback, which beats the built-in default of 0
    env_seed = _env_int(SEED_ENV_VAR, "an integer")
    specs = read_scenario_config(
        text,
        seed_override=args.seed,
        fallback_seed=env_seed if env_seed is not None else 0,
    )
    if args.reps is not None:
        if args.reps < 1:
            raise InputError("--reps must be >= 1")
        specs = {
            name: (
                spec
                if isinstance(spec, ThresholdScenario)
                else replace(spec, repeats=args.reps)
            )
            for name, spec in specs.items()
        }

    columns = ["section", "record", "key", "value"]
    rows: list[list[object]] = []
    panels: dict[str, np.ndarray] = {}  # outcomes of each section that draws
    single_outcome: list[tuple[str, ScenarioSpec]] = []
    drawn: dict[str, int] = {}  # seed of each section that draws numbers

    for name, spec in specs.items():
        if isinstance(spec, ThresholdScenario):
            drawn[name] = spec.seed
            cohort = simulate_threshold_cohort(
                spec.model, spec.cohort_size, spec.seed
            )
            observed = float(cohort.outcomes.outcomes.mean())
            rows.append([name, "threshold", "cohort_size", spec.cohort_size])
            rows.append([name, "threshold", "observed_frequency", observed])
            rows.append(
                [name, "threshold", "mean_latent_risk", float(cohort.latent_risks.mean())]
            )
            panels[name] = cohort.outcomes.outcomes
            continue
        if spec.repeats == 1:
            dist = exact_count_distribution(spec)
            for k, prob in enumerate(dist):
                rows.append([name, "count_distribution", k, float(prob)])
            single_outcome.append((name, spec))
            continue
        drawn[name] = spec.seed
        data = simulate_repeated(spec)
        cluster = clustering_test(data, permutation_seed=spec.seed)
        icc = icc_estimate(data)
        rows.append([name, "clustering", "statistic", cluster.statistic])
        rows.append([name, "clustering", "df", cluster.df])
        rows.append([name, "clustering", "p_value", cluster.p_value])
        if cluster.p_value_permutation is not None:
            rows.append(
                [name, "clustering", "p_value_permutation", cluster.p_value_permutation]
            )
        rows.append([name, "clustering", "undefined", cluster.undefined])
        rows.append([name, "icc", "estimate", icc.value])
        rows.append([name, "icc", "undefined", icc.undefined])
        panels[name] = data.outcomes

    if len(single_outcome) >= 2:
        (name_a, spec_a), (name_b, spec_b) = single_outcome[0], single_outcome[1]
        if spec_a.sample_size == spec_b.sample_size:
            tv = marginal_equivalence_check(
                spec_a, spec_b, spec_a.sample_size, strict=False
            )
            rows.append([f"{name_a}|{name_b}", "tv_distance", "value", tv])

    # the manifest names the seeds the sections that drew numbers ran with
    if len(set(drawn.values())) > 1:
        seed = " ".join(f"{name}={value}" for name, value in drawn.items())
    else:
        seed = next(iter(drawn.values()), None)
    inputs, parameters = (args.config,), {"reps": args.reps}
    report = Report(columns, rows, parameters, inputs=inputs, seed=seed)
    if args.outcomes is not None:
        # the rows are built only when a file asks for them; one parameters
        # dict, so the file repeats the manifest of stdout
        outcome_rows: list[list[object]] = [
            [name, i, j, value]
            for name, panel in panels.items()
            for i, person in enumerate(panel.tolist())
            for j, value in enumerate(person)
        ]
        outcome_columns = ["section", "individual", "rep", "outcome"]
        report.files[args.outcomes] = Report(
            outcome_columns, outcome_rows, parameters, inputs=inputs, seed=seed
        )
    return report


def cmd_refuted(args: argparse.Namespace, digits: int) -> Report:
    cm1_args = {
        "sigma": args.sigma,
        "beta0": args.beta0,
        "beta1": args.beta1,
        "n": args.n,
        "x_bar": args.x_bar,
        "ss_x": args.ss_x,
        "x_new": args.x_new,
    }
    if args.mode == "hmc":
        unused = [k for k, v in {**cm1_args, "df": args.df}.items() if v is not None]
        if unused:
            flags = ", ".join("--" + k.replace("_", "-") for k in unused)
            raise InputError(f"--mode hmc does not use {flags}")
        if args.theta is None:
            raise InputError("--mode hmc requires --theta")
        est = hmc_individual_interval(args.theta, args.alpha)
        parameters = {"mode": "hmc", "theta": args.theta, "alpha": args.alpha}
        columns = ["theta_hat", "n", "lower", "upper", "level", "method", "valid", "note"]
        rows = [
            [
                args.theta,
                1,
                est.lower,
                est.upper,
                est.level,
                est.method,
                est.valid,
                est.note,
            ]
        ]
    else:
        if args.theta is not None:
            raise InputError("--mode cm1 does not use --theta")
        missing = ["--" + k.replace("_", "-") for k, v in cm1_args.items() if v is None]
        if missing:
            raise InputError(
                f"--mode cm1 requires {', '.join(missing)} (sigma has no "
                "default by design: the fit provides no such quantity)"
            )
        inp = CM1PseudoInput(
            beta0=args.beta0,
            beta1=args.beta1,
            sigma_hat=args.sigma,
            n=args.n,
            x_bar=args.x_bar,
            ss_x=args.ss_x,
            x_new=args.x_new,
            alpha=args.alpha,
        )
        est = cm1_pseudo_interval(inp, df=args.df)
        parameters = {"mode": "cm1", **cm1_args, "alpha": args.alpha, "df": args.df}
        columns = ["point", "lower", "upper", "level", "method", "valid", "note"]
        rows = [
            [est.point, est.lower, est.upper, est.level, est.method, est.valid, est.note]
        ]
    return Report(columns, rows, parameters, banner=REFUTATION_BANNER)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description=(
            "Group-risk confidence intervals from stratified binary-outcome "
            "counts, their exact coverage, and identifiability simulations."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"riskbounds {__version__}"
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=FORMATS, default="pretty", help="output layout"
    )
    shared.add_argument(
        "--round",
        type=int,
        default=None,
        metavar="DIGITS",
        help="presentation rounding (default: 4 decimals)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_wilson = sub.add_parser(
        "wilson",
        parents=[shared],
        help="score intervals per stratum, or for a what-if theta/n sweep",
    )
    p_wilson.add_argument("table", nargs="?", help="category,total,events CSV")
    p_wilson.add_argument("--alpha", type=float, default=0.05)
    p_wilson.add_argument(
        "--fictitious",
        nargs=2,
        metavar=("THETA", "N_LIST"),
        help="fixed proportion and comma-separated sample sizes, real samples or not",
    )
    p_wilson.set_defaults(func=cmd_wilson)

    p_fit = sub.add_parser(
        "fit",
        parents=[shared],
        help="grouped logistic fit with per-category risk intervals",
    )
    p_fit.add_argument("table", help="category,total,events CSV")
    p_fit.add_argument(
        "--alpha", default="0.05", help="comma-separated significance levels"
    )
    p_fit.add_argument(
        "--expand",
        type=int,
        default=1,
        metavar="K",
        help="replicate all counts K-fold before fitting",
    )
    p_fit.add_argument(
        "--figure", metavar="PATH", help="write the plot dataset CSV here"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_cov = sub.add_parser(
        "coverage",
        parents=[shared],
        help="exact finite-sample coverage of the score interval",
    )
    p_cov.add_argument("--n", type=int, required=True)
    p_cov.add_argument("--p", type=float, required=True)
    p_cov.add_argument("--level", type=float, default=0.95)
    p_cov.set_defaults(func=cmd_coverage)

    p_sim = sub.add_parser(
        "simulate",
        parents=[shared],
        help="identifiability scenarios from a config file",
    )
    p_sim.add_argument("config", help="INI config of scenario sections")
    p_sim.add_argument(
        "--seed", type=int, default=None, help="override every section's seed"
    )
    p_sim.add_argument(
        "--reps", type=int, default=None, help="override repeats per individual"
    )
    p_sim.add_argument(
        "--outcomes", metavar="PATH", help="write raw outcome rows CSV here"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ref = sub.add_parser(
        "refuted",
        parents=[shared],
        help="reproduce a refuted individual-risk interval (flagged invalid)",
    )
    p_ref.add_argument("--mode", choices=("hmc", "cm1"), required=True)
    p_ref.add_argument("--alpha", type=float, default=0.05)
    p_ref.add_argument("--theta", type=float, help="observed proportion (hmc mode)")
    p_ref.add_argument("--beta0", type=float, help="intercept (cm1 mode)")
    p_ref.add_argument("--beta1", type=float, help="slope (cm1 mode)")
    p_ref.add_argument(
        "--sigma", type=float, help="claimed residual SD (cm1 mode, no default)"
    )
    p_ref.add_argument("--n", type=int, help="sample size (cm1 mode)")
    p_ref.add_argument("--x-bar", type=float, help="predictor mean (cm1 mode)")
    p_ref.add_argument(
        "--ss-x", type=float, help="predictor sum of squares (cm1 mode)"
    )
    p_ref.add_argument("--x-new", type=float, help="target score (cm1 mode)")
    p_ref.add_argument(
        "--df", type=int, default=None, help="override t degrees of freedom (cm1)"
    )
    p_ref.set_defaults(func=cmd_refuted)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # build_parser reads no environment, clock or terminal state, and
    # argparse makes a fresh formatter whenever it prints, so one parser
    # serves every call in the process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; keep its exit code
        return int(exc.code) if exc.code is not None else 0
    try:
        digits = _digits(args.round)
        timestamp = _timestamp()
        report = args.func(args, digits)
        report.parameters.update(format=args.format, round=args.round)
        text = report.render(args.command, args.format, digits, timestamp)
        # files first: a path that cannot be written leaves stdout empty
        for path, written in report.files.items():
            rendered = written.render(args.command, "csv", digits, timestamp)
            Path(path).write_text(rendered, encoding="utf-8")
        sys.stdout.write(text)
        return 0
    except (NumericalError, ArithmeticError, AssertionError) as exc:
        # ArithmeticError: float underflow or overflow in a formula;
        # AssertionError: the Wilson bounds failed their containment snap
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
