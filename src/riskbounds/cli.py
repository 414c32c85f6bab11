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
import importlib
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import _EXPORTS, _SOURCE, __version__
from .data import InputError, NumericalError, expand_weights, parse_category_table
from .refuted import (
    REFUTATION_BANNER,
    cm1_pseudo_interval,
    hmc_individual_interval,
)
from .rounding import MAX_DIGITS, format_fixed
from .wilson import exact_coverage, score_bounds, wilson_interval

FORMATS = ("csv", "tsv", "pretty")
DEFAULT_DIGITS = 4

# cmd_fit and cmd_simulate bind the names the package exports from the
# submodules that load numpy with _load, and __getattr__ serves any other
# read, so each exported name is an attribute here, as an import would make it


def _load(module: str):
    """Bind ``module``'s names in ``_EXPORTS`` here and return it, keeping any
    name already bound: one replaced by ``setattr`` before the first call."""
    source = importlib.import_module(f".{module}", __package__)
    for name in _EXPORTS[module]:
        globals().setdefault(name, getattr(source, name))
    return source


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_SOURCE[name])
    return globals()[name]


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


def _timestamp() -> str:
    text = os.environ.get("SOURCE_DATE_EPOCH")
    if text is None:
        return _format_epoch(int(time.time()))
    try:
        epoch = int(text)
    except ValueError:
        raise InputError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds, got {text!r}"
        ) from None
    return _format_epoch(epoch)


@functools.lru_cache(maxsize=1)
def _format_epoch(epoch: int) -> str:
    # calls within one second, or under one pinned epoch, share the text;
    # a failure raises again on each call, since errors are not cached
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
    # the cells render_table does not format inline: subclasses of its exact
    # types (bool, numpy scalars) and everything else
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
    # exact float, int and str cells inline, for speed; format_fixed is
    # looked up here once per float cell, where perfbench/tracing.py wraps it
    cells = [
        [
            format_fixed(v, digits) if (kind := type(v)) is float
            else str(v) if kind is int or kind is str
            else _cell(v, digits)
            for v in row
        ]
        for row in rows
    ]
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


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist names no input
        return False


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

# the cells of an IntervalEstimate that every interval table prints, in order
_INTERVAL_COLUMNS = ("lower", "upper", "level", "method", "valid")


def _interval_cells(est) -> list[object]:
    return [getattr(est, name) for name in _INTERVAL_COLUMNS]


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
        columns = ["n", "theta_hat", *_INTERVAL_COLUMNS]
        rows = [
            [n, theta, *_interval_cells(wilson_interval(theta, n, args.alpha))]
            for n in sizes
        ]
        parameters = {"alpha": args.alpha, "theta": theta, "n_list": n_text}
        return Report(columns, rows, parameters)

    if args.table is None:
        raise InputError("provide a table path or --fictitious THETA N_LIST")
    table = parse_category_table(_read_text(args.table))
    columns = ["category", "total", "events", "theta_hat", *_INTERVAL_COLUMNS]
    # every row is a real sample: CategoryRow holds integer counts with
    # 1 <= total and 0 <= events <= total, and no total past the largest
    # double, so float() converts each
    level, real = 1.0 - args.alpha, ("wilson", True)  # method, valid
    rows = []
    for row in table.rows:
        theta = row.proportion
        lo, hi = score_bounds(theta, float(row.total), args.alpha)
        rows.append([row.category, row.total, row.events, theta, lo, hi, level, *real])
    return Report(columns, rows, {"alpha": args.alpha}, inputs=(args.table,))


def cmd_fit(args: argparse.Namespace, digits: int) -> Report:
    predict_bounds = _load("logistic").predict_bounds  # not exported
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
            [columns[1], *columns[4:]],
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
    _load("identifiability")
    specs = read_scenario_config(_read_text(args.config))
    # each section's kind, in config order: mixture or threshold section
    mixtures = [name for name, spec in specs.items() if isinstance(spec, ScenarioSpec)]
    if args.reps is not None:
        if args.reps < 1:
            raise InputError("--reps must be >= 1")
        if not mixtures:
            raise InputError(
                "--reps applies to risk-mixture sections only, and every "
                f"section is a threshold section: {', '.join(specs)}"
            )
    # --seed replaces every section's seed, --reps each mixture's repeats
    for name, spec in specs.items():
        changes = {} if args.seed is None else {"seed": args.seed}
        if args.reps is not None and name in mixtures:
            changes["repeats"] = args.reps
        specs[name] = replace(spec, **changes)
    single_outcome = [name for name in mixtures if specs[name].repeats == 1]
    # a repeated design's clustering test compares people
    for name in mixtures:
        spec = specs[name]
        if name not in single_outcome and spec.sample_size < 2:
            raise InputError(
                f"section [{name}]: a design of {spec.repeats} repeats needs "
                f"sample_size >= 2 for its clustering test, got {spec.sample_size}"
            )
    # seed of each section that draws numbers
    drawn = {name: s.seed for name, s in specs.items() if name not in single_outcome}
    if not drawn and args.seed is not None:
        raise InputError(
            "--seed applies to sections that draw random numbers, and every "
            f"section is an exact single-outcome design: {', '.join(specs)}"
        )
    if not drawn and args.outcomes is not None:
        raise InputError(
            "--outcomes has nothing to write: every section is an exact "
            "single-outcome design, which draws no outcomes"
        )

    columns = ["section", "record", "key", "value"]
    rows: list[list[object]] = []
    panels = {}  # outcome arrays of each section that draws
    for name, spec in specs.items():
        # a section that fails as it runs (its people do not fit in memory,
        # say) is named, as a config error is
        try:
            if name not in mixtures:
                cohort = simulate_threshold_cohort(
                    spec.model, spec.cohort_size, spec.seed
                )
                observed = float(cohort.outcomes.outcomes.mean())
                latent = float(cohort.latent_risks.mean())
                rows.append([name, "threshold", "cohort_size", spec.cohort_size])
                rows.append([name, "threshold", "observed_frequency", observed])
                rows.append([name, "threshold", "mean_latent_risk", latent])
                panels[name] = cohort.outcomes.outcomes
                continue
            if name in single_outcome:
                dist = exact_count_distribution(spec)
                for k, prob in enumerate(dist):
                    rows.append([name, "count_distribution", k, float(prob)])
                continue
            data = simulate_repeated(spec)
            cluster = clustering_test(data, permutation_seed=spec.seed)
            icc = icc_estimate(data)
            # ClusteringTest's field order is the printed order; None prints no row
            for key, value in vars(cluster).items():
                if value is not None:  # no permutation p-value
                    rows.append([name, "clustering", key, value])
            rows.append([name, "icc", "estimate", icc.value])
            rows.append([name, "icc", "undefined", icc.undefined])
            panels[name] = data.outcomes
        except (ValueError, MemoryError) as exc:
            raise InputError(f"section [{name}]: {exc}") from exc

    if len(single_outcome) >= 2:
        name_a, name_b = single_outcome[:2]
        spec_a, spec_b = specs[name_a], specs[name_b]
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
    report = Report(columns, rows, {"reps": args.reps}, (args.config,), seed)
    if args.outcomes is not None:
        # the rows are built only when a file asks for them; the file shares
        # stdout's parameters dict, inputs and seed, so it repeats its manifest
        outcome_rows: list[list[object]] = [
            [name, i, j, value]
            for name, panel in panels.items()
            for i, person in enumerate(panel.tolist())
            for j, value in enumerate(person)
        ]
        outcome_columns = ["section", "individual", "rep", "outcome"]
        report.files[args.outcomes] = replace(
            report, columns=outcome_columns, rows=outcome_rows, files={}
        )
    return report


# the flags each --mode requires, and those it may take; it refuses the rest
REFUTED_FLAGS = {
    "hmc": (("theta",), ()),
    "cm1": (("sigma", "beta0", "beta1", "n", "x_bar", "ss_x", "x_new"), ("df",)),
}


def cmd_refuted(args: argparse.Namespace, digits: int) -> Report:
    required, optional = REFUTED_FLAGS[args.mode]
    given = {k: getattr(args, k) for r, o in REFUTED_FLAGS.values() for k in r + o}
    reads = required + optional
    unused = [k for k, v in given.items() if v is not None and k not in reads]
    missing = [k for k in required if given[k] is None]
    for names, verb in ((unused, "does not use"), (missing, "requires")):
        if names:
            flags = ", ".join("--" + k.replace("_", "-") for k in names)
            if verb == "requires" and "sigma" in names:
                flags += (
                    " (sigma has no default by design: the fit provides no "
                    "such quantity)"
                )
            raise InputError(f"--mode {args.mode} {verb} {flags}")
    parameters = {
        "mode": args.mode, "alpha": args.alpha, **{k: given[k] for k in reads}
    }
    if args.mode == "hmc":
        est = hmc_individual_interval(args.theta, args.alpha)
        lead = {"theta_hat": args.theta, "n": 1}  # the cells before the interval
    else:
        est = cm1_pseudo_interval(
            args.beta0, args.beta1, args.sigma, args.n, args.x_bar, args.ss_x,
            args.x_new, args.alpha, args.df,
        )
        lead = {"point": est.point}
    columns = [*lead, *_INTERVAL_COLUMNS, "note"]
    rows = [[*lead.values(), *_interval_cells(est), est.note]]
    return Report(columns, rows, parameters, banner=REFUTATION_BANNER)


# ---------------------------------------------------------------------------
# parser assembly


# the flags every subcommand takes first, as (flag, add_argument keywords)
SHARED = (
    ("--format", dict(choices=FORMATS, default="pretty", help="output layout")),
    ("--round", dict(type=int, metavar="DIGITS", help=(
        "presentation rounding (default: 4 decimals)"
    ))),
)
# each subcommand's handler and help line, then its own flags in --help order
COMMANDS = {
    "wilson": (
        cmd_wilson, "score intervals per stratum, or for a what-if theta/n sweep",
        ("table", dict(nargs="?", help="category,total,events CSV")),
        ("--alpha", dict(type=float, default=0.05)),
        ("--fictitious", dict(nargs=2, metavar=("THETA", "N_LIST"), help=(
            "fixed proportion and comma-separated sample sizes, real samples or not"
        ))),
    ),
    "fit": (
        cmd_fit, "grouped logistic fit with per-category risk intervals",
        ("table", dict(help="category,total,events CSV")),
        ("--alpha", dict(default="0.05", help="comma-separated significance levels")),
        ("--expand", dict(type=int, default=1, metavar="K", help=(
            "replicate all counts K-fold before fitting"
        ))),
        ("--figure", dict(metavar="PATH", help="write the plot dataset CSV here")),
    ),
    "coverage": (
        cmd_coverage, "exact finite-sample coverage of the score interval",
        ("--n", dict(type=int, required=True)),
        ("--p", dict(type=float, required=True)),
        ("--level", dict(type=float, default=0.95)),
    ),
    "simulate": (
        cmd_simulate, "identifiability scenarios from a config file",
        ("config", dict(help="INI config of scenario sections")),
        ("--seed", dict(type=int, help="override every section's seed")),
        ("--reps", dict(type=int, help="override repeats per individual")),
        ("--outcomes", dict(metavar="PATH", help="write raw outcome rows CSV here")),
    ),
    "refuted": (
        cmd_refuted, "reproduce a refuted individual-risk interval (flagged invalid)",
        ("--mode", dict(choices=("hmc", "cm1"), required=True)),
        ("--alpha", dict(type=float, default=0.05)),
        ("--theta", dict(type=float, help="observed proportion (hmc mode)")),
        ("--beta0", dict(type=float, help="intercept (cm1 mode)")),
        ("--beta1", dict(type=float, help="slope (cm1 mode)")),
        ("--sigma", dict(type=float, help=(
            "claimed residual SD (cm1 mode, no default)"
        ))),
        ("--n", dict(type=int, help="sample size (cm1 mode)")),
        ("--x-bar", dict(type=float, help="predictor mean (cm1 mode)")),
        ("--ss-x", dict(type=float, help="predictor sum of squares (cm1 mode)")),
        ("--x-new", dict(type=float, help="target score (cm1 mode)")),
        ("--df", dict(type=int, help="override t degrees of freedom (cm1)")),
    ),
}


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, *flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, keywords in (*SHARED, *flags):
            command.add_argument(flag, **keywords)
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
        report = COMMANDS[args.command][0](args, digits)  # the handler
        for path in report.files:
            for source in report.inputs:
                if _same_file(path, source):
                    raise InputError(
                        f"{path} is the input {source}: writing it would "
                        "overwrite the file the output was computed from"
                    )
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
    # InputError is a ValueError; MemoryError: a simulation too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
