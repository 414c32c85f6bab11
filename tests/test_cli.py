"""End-to-end tests of the command line interface.

Every test drives ``riskbounds.cli.main`` in-process and checks the exit
code plus the rendered output. SOURCE_DATE_EPOCH is pinned so the manifest
timestamp (and therefore the whole output) is reproducible byte for byte.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import goldens
import oracles
from riskbounds import (
    clustering_test,
    cli,
    format_fixed,
    read_scenario_config,
    simulate_repeated,
    simulate_threshold_cohort,
)
from riskbounds import logistic
from riskbounds.cli import main

ROOT = Path(__file__).resolve().parent.parent

EPOCH = "1700000000"
LARGEST = "the largest double (1.79769e+308)"
TIMESTAMP = "# timestamp: 2023-11-14T22:13:20Z"


@pytest.fixture(autouse=True)
def _pinned_environment(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("#")]


def comment_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("#")]


def parse_csv(out: str) -> list[dict[str, str]]:
    body = "\n".join(data_lines(out))
    return list(csv.DictReader(io.StringIO(body)))


class TestManifest:
    def test_header_block(self, capsys, vrag_path):
        code, out, _ = run(capsys, "wilson", str(vrag_path), "--format", "csv")
        assert code == 0
        comments = comment_lines(out)
        assert comments[0] == "# riskbounds 0.1.0"
        assert comments[1] == "# subcommand: wilson"
        assert comments[2] == f"# inputs: {vrag_path}"
        assert comments[3].startswith("# parameters: alpha=0.05")
        assert comments[4] == "# seed: none"
        assert comments[5] == TIMESTAMP

    def test_rerun_is_byte_identical(self, capsys, vrag_path):
        _, first, _ = run(capsys, "fit", str(vrag_path), "--format", "csv")
        _, second, _ = run(capsys, "fit", str(vrag_path), "--format", "csv")
        assert first == second

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == "riskbounds 0.1.0"

    # the keys on each route's parameters: line, sorted as printed; main
    # adds format and round to every stdout manifest, and to an --outcomes
    # file, which shares its dict; the --figure file has its own
    @pytest.mark.parametrize(
        "argv,keys",
        [
            ("wilson {vrag}", "alpha format round"),
            ("wilson --fictitious 0.13 167,50", "alpha format n_list round theta"),
            ("fit {vrag}", "alpha expand format round"),
            ("fit {vrag} --figure {out}", "alpha expand figure round"),
            ("coverage --n 10 --p 0.2", "format level n p round"),
            ("simulate {repeated}", "format reps round"),
            ("simulate {repeated} --outcomes {out}", "format reps round"),
            ("refuted --mode hmc --theta 0.13", "alpha format mode round theta"),
            (
                "refuted --mode cm1 --beta0 -2.0 --beta1 0.5 --sigma 1.0 --n 255 "
                "--x-bar 20 --ss-x 5000 --x-new 20",
                "alpha beta0 beta1 df format mode n round sigma ss_x x_bar x_new",
            ),
        ],
    )
    def test_parameter_keys_of_each_route(
        self, capsys, tmp_path, vrag_path, data_dir, argv, keys
    ):
        written = tmp_path / "written.csv"
        repeated = data_dir / "scenarios_repeated.cfg"
        argv = argv.format(vrag=vrag_path, repeated=repeated, out=written)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        text = written.read_text(encoding="utf-8") if written.exists() else out
        # a csv file comments its manifest out, the pretty stdout does not
        lines = (line.removeprefix("# ") for line in text.splitlines())
        line = next(line for line in lines if line.startswith("parameters: "))
        assert [item.split("=")[0] for item in line.split()[1:]] == keys.split()


class TestWilsonCommand:
    def test_category_table_rows(self, capsys, vrag_path):
        code, out, _ = run(
            capsys, "wilson", str(vrag_path), "--format", "csv", "--round", "2"
        )
        assert code == 0
        assert data_lines(out) == [
            "category,total,events,theta_hat,lower,upper,level,method,valid",
            "1,11,0,0.00,0.00,0.26,0.95,wilson,true",
            "2,71,6,0.08,0.04,0.17,0.95,wilson,true",
            "3,101,12,0.12,0.07,0.20,0.95,wilson,true",
            "4,111,19,0.17,0.11,0.25,0.95,wilson,true",
            "5,116,41,0.35,0.27,0.44,0.95,wilson,true",
            "6,96,42,0.44,0.34,0.54,0.95,wilson,true",
            "7,74,41,0.55,0.44,0.66,0.95,wilson,true",
            "8,29,22,0.76,0.58,0.88,0.95,wilson,true",
            "9,9,9,1.00,0.70,1.00,0.95,wilson,true",
        ]

    def test_fictitious_sweep_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "wilson",
            "--fictitious",
            "0.13",
            "167,50,10,5,1",
            "--format",
            "csv",
            "--round",
            "2",
        )
        assert code == 0
        assert data_lines(out) == [
            "n,theta_hat,lower,upper,level,method,valid",
            "167.00,0.13,0.09,0.19,0.95,fictitious_wilson,false",
            "50.00,0.13,0.06,0.25,0.95,fictitious_wilson,false",
            "10.00,0.13,0.03,0.44,0.95,fictitious_wilson,false",
            "5.00,0.13,0.02,0.56,0.95,fictitious_wilson,false",
            "1.00,0.13,0.00,0.84,0.95,fictitious_wilson,false",
        ]

    def test_fictitious_matches_percent_goldens(self, capsys):
        sweep = [row for row in goldens.PERCENT_SWEEP if row[1] is None]
        n_list = ",".join(str(n) for n, _, _, _ in sweep)
        code, out, _ = run(
            capsys, "wilson", "--fictitious", "0.13", n_list, "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == len(sweep)
        for row, (n, _, lo_pct, hi_pct) in zip(rows, sweep):
            assert float(row["n"]) == n
            assert round(float(row["lower"]) * 100) == lo_pct
            assert round(float(row["upper"]) * 100) == hi_pct

    def test_fractional_design_is_flagged(self, capsys):
        code, out, _ = run(
            capsys, "wilson", "--fictitious", "0.5", "3.7", "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["method"] == "fictitious_wilson"
        assert row["valid"] == "false"

    def test_sample_size_below_one_is_flagged(self, capsys):
        code, out, _ = run(
            capsys, "wilson", "--fictitious", "0.5", "1e-12", "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert (row["method"], row["valid"]) == ("fictitious_wilson", "false")

    def test_table_rows_are_real_samples_by_their_counts(self, capsys, tmp_path):
        # theta_hat * n rebuilt from the float proportion misses 12376496
        # by more than 1e-9; the integer counts make the row a real sample
        table = tmp_path / "large.csv"
        table.write_text("category,total,events\n2,98765432,12376496\n")
        code, out, err = run(capsys, "wilson", str(table), "--format", "csv")
        assert (code, err) == (0, "")
        assert data_lines(out)[1].endswith(",wilson,true")

    @pytest.mark.parametrize(
        "total,events,cells",
        [
            (2**64 + 1, 3, "0.0000,0.0000,0.0000,0.9500"),
            # 4 * n * n overflows to inf, silently, as in Python floats
            (10**200, 3 * 10**199, "0.3000,0.3000,0.3000,0.9500"),
            # the largest total float() converts
            (int(sys.float_info.max), 1, "0.0000,0.0000,0.0000,0.9500"),
        ],
        ids=["2**64+1", "10**200", "largest_double"],
    )
    def test_huge_totals(self, capsys, tmp_path, total, events, cells):
        table = tmp_path / "huge.csv"
        table.write_text(f"category,total,events\n1,{total},{events}\n")
        code, out, err = run(capsys, "wilson", str(table), "--format", "csv")
        assert (code, err) == (0, "")
        assert data_lines(out)[1] == f"1,{total},{events},{cells},wilson,true"

    @pytest.mark.parametrize("command", ["wilson", "fit"])
    def test_total_past_the_largest_double_exits_2(self, capsys, tmp_path, command):
        # it exited 3 with "int too large to convert to float", naming no row
        table = tmp_path / "huge.csv"
        table.write_text(f"category,total,events\n1,{10**400},1\n2,10,5\n")
        assert run(capsys, command, str(table)) == (
            2,
            "",
            "error: line 2: category 1: total exceeds the largest double "
            "(1.79769e+308)\n",
        )

    @pytest.mark.parametrize(
        "row,message",
        [
            (f"{'9' * 5000},10,5", f"category index exceeds {LARGEST}"),
            (f"1,{'9' * 5000},1", f"category 1: total exceeds {LARGEST}"),
            (f"1,10,{'9' * 5000}", f"category 1: events exceed {LARGEST}"),
            (f"1,10,-{'9' * 5000}", "category 1: negative event count"),
            (f"1,10,{'9' * 400}", f"category 1: events exceed {LARGEST}"),
            ("1,-5,1", "category 1: stratum has no subjects (total=-5)"),
        ],
        ids=[
            "category", "total", "events", "negative_events", "events_over_total",
            "negative_total",
        ],
    )
    def test_a_count_refusal_names_its_column_in_one_short_line(
        self, capsys, tmp_path, row, message
    ):
        # a count of 5000 digits echoed its whole row (5047 bytes of stderr)
        table = tmp_path / "counts.csv"
        table.write_text(f"category,total,events\n{row}\n")
        code, out, err = run(capsys, "wilson", str(table))
        assert (code, out, err) == (2, "", f"error: line 2: {message}\n")
        assert len(err) < 200

    def test_table_alpha_out_of_range_exits_2(self, capsys, vrag_path):
        code, out, err = run(capsys, "wilson", str(vrag_path), "--alpha", "1.5")
        assert (code, out) == (2, "")
        assert err == "error: alpha must be in (0,1), got 1.5\n"

    def test_requires_table_or_fictitious(self, capsys):
        code, _, err = run(capsys, "wilson")
        assert code == 2
        assert "--fictitious" in err

    def test_table_with_fictitious_exits_2(self, capsys, vrag_path):
        # the sweep would ignore the table, and the manifest would name no input
        code, out, err = run(
            capsys, "wilson", str(vrag_path), "--fictitious", "0.13", "5"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: provide a table path or --fictitious THETA N_LIST, not both\n"
        )

    def test_empty_file_is_an_input_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(capsys, "wilson", str(empty))
        assert code == 2
        assert "empty input" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "wilson", str(tmp_path / "nope.csv"))
        assert code == 2
        assert err.startswith("error:")


class TestFitCommand:
    def test_interval_rows_both_levels(self, capsys, vrag_path):
        code, out, _ = run(
            capsys,
            "fit",
            str(vrag_path),
            "--alpha",
            "0.05,0.20",
            "--format",
            "csv",
            "--round",
            "2",
        )
        assert code == 0
        assert data_lines(out) == [
            "alpha,category,total,events,observed,fitted,lower,upper",
            "0.05,1,11,0,0.00,0.04,0.02,0.06",
            "0.05,2,71,6,0.08,0.07,0.04,0.10",
            "0.05,3,101,12,0.12,0.12,0.09,0.16",
            "0.05,4,111,19,0.17,0.20,0.16,0.24",
            "0.05,5,116,41,0.35,0.31,0.27,0.35",
            "0.05,6,96,42,0.44,0.45,0.40,0.51",
            "0.05,7,74,41,0.55,0.60,0.53,0.67",
            "0.05,8,29,22,0.76,0.74,0.66,0.80",
            "0.05,9,9,9,1.00,0.84,0.76,0.89",
            "0.20,1,11,0,0.00,0.04,0.03,0.05",
            "0.20,2,71,6,0.08,0.07,0.05,0.09",
            "0.20,3,101,12,0.12,0.12,0.10,0.14",
            "0.20,4,111,19,0.17,0.20,0.17,0.22",
            "0.20,5,116,41,0.35,0.31,0.28,0.34",
            "0.20,6,96,42,0.44,0.45,0.42,0.49",
            "0.20,7,74,41,0.55,0.60,0.56,0.65",
            "0.20,8,29,22,0.76,0.74,0.68,0.78",
            "0.20,9,9,9,1.00,0.84,0.79,0.88",
        ]

    def test_summary_footers(self, capsys, vrag_path):
        code, out, _ = run(
            capsys, "fit", str(vrag_path), "--format", "csv", "--round", "2"
        )
        assert code == 0
        comments = comment_lines(out)
        assert "# fit: beta0=-3.83 se0=0.34 beta1=0.61 se1=0.06" in comments
        assert "# fit: deviance=6.71 iterations=5 converged=true" in comments
        assert "# trend: wald_chi2=97.60 p_value=5.13e-23" in comments

    def test_expansion_keeps_point_estimates(self, capsys, vrag_path):
        _, base_out, _ = run(
            capsys, "fit", str(vrag_path), "--format", "csv", "--round", "6"
        )
        code, wide_out, _ = run(
            capsys,
            "fit",
            str(vrag_path),
            "--expand",
            "100",
            "--format",
            "csv",
            "--round",
            "6",
        )
        assert code == 0
        base = parse_csv(base_out)
        wide = parse_csv(wide_out)
        for b, w in zip(base, wide):
            assert w["fitted"] == b["fitted"]
            assert float(w["lower"]) >= float(b["lower"])
            assert float(w["upper"]) <= float(b["upper"])

    def test_expansion_past_the_largest_double_exits_2(self, capsys, vrag_path):
        # 11 * 10**308 in category 1; it exited 3 naming no row
        argv = ["fit", str(vrag_path), "--expand", str(10**308)]
        assert run(capsys, *argv) == (
            2,
            "",
            "error: category 1: total exceeds the largest double (1.79769e+308)\n",
        )

    def test_figure_file_contents(self, capsys, tmp_path, vrag_path):
        figure = tmp_path / "figure.csv"
        code, _, _ = run(
            capsys,
            "fit",
            str(vrag_path),
            "--figure",
            str(figure),
            "--format",
            "csv",
            "--round",
            "2",
        )
        assert code == 0
        text = figure.read_text()
        assert data_lines(text) == [
            "category,observed,fitted,lower,upper",
            "1,0.00,0.04,0.02,0.06",
            "2,0.08,0.07,0.04,0.10",
            "3,0.12,0.12,0.09,0.16",
            "4,0.17,0.20,0.16,0.24",
            "5,0.35,0.31,0.27,0.35",
            "6,0.44,0.45,0.40,0.51",
            "7,0.55,0.60,0.53,0.67",
            "8,0.76,0.74,0.66,0.80",
            "9,1.00,0.84,0.76,0.89",
        ]
        assert TIMESTAMP in comment_lines(text)

    @pytest.mark.parametrize(
        "alphas,expand",
        [("0.05,0.20", "1"), ("0.2,0.05,0.5", "1"), ("0.2,0.05,0.5", "3")],
    )
    def test_figure_file_is_the_first_alpha_block(
        self, capsys, tmp_path, vrag_path, alphas, expand
    ):
        figure = tmp_path / "figure.csv"
        code, out, _ = run(
            capsys, "fit", str(vrag_path), "--alpha", alphas, "--expand", expand,
            "--figure", str(figure), "--format", "csv", "--round", "20",
        )
        assert code == 0
        first = alphas.split(",")[0]
        block = [row for row in parse_csv(out) if float(row["alpha"]) == float(first)]
        assert len(block) == 9
        columns = ["category", "observed", "fitted", "lower", "upper"]
        text = figure.read_text()
        assert parse_csv(text) == [{c: row[c] for c in columns} for row in block]
        assert (
            f"# parameters: alpha={float(first)} expand={expand} "
            f"figure={figure} round=20"
        ) in comment_lines(text)

    def test_unwritable_figure_exits_2_before_stdout(self, capsys, tmp_path, vrag_path):
        figure = tmp_path / "missing" / "figure.csv"
        code, out, err = run(capsys, "fit", str(vrag_path), "--figure", str(figure))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(figure) in err

    def test_figure_over_its_own_table_exits_2(self, capsys, tmp_path, vrag_path):
        table = tmp_path / "table.csv"
        table.write_bytes(vrag_path.read_bytes())
        # another spelling of the same path
        figure = tmp_path / "." / "table.csv"
        code, out, err = run(capsys, "fit", str(table), "--figure", str(figure))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {figure} is the input {table}: writing it would overwrite "
            "the file the output was computed from\n"
        )
        assert table.read_bytes() == vrag_path.read_bytes()

    def test_separated_table_exits_3(self, capsys, tmp_path):
        table = tmp_path / "separated.csv"
        table.write_text("category,total,events\n1,40,0\n2,40,40\n")
        code, _, err = run(capsys, "fit", str(table))
        assert code == 3
        assert err.startswith("numerical failure:")
        assert "separated" in err

    def test_quasi_separated_table_exits_3_with_one_line(self, capsys, tmp_path):
        # the Newton loop used to stop here with converged=true, se0=131072
        table = tmp_path / "quasi.csv"
        table.write_text("category,total,events\n1,866250,156367\n2,12,0\n")
        code, out, err = run(capsys, "fit", str(table))
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: the data are separated: every event is in "
            "categories <= 1 and every non-event in categories >= 1, so the "
            "MLE does not exist\n"
        )


class TestCoverageCommand:
    def test_single_draw_exact_output(self, capsys):
        code, out, _ = run(
            capsys,
            "coverage",
            "--n",
            "1",
            "--p",
            "0.2",
            "--level",
            "0.95",
            "--format",
            "csv",
            "--round",
            "4",
        )
        assert code == 0
        assert data_lines(out) == [
            "k,probability,lower,upper,covered",
            "0,0.8000,0.0000,0.7935,true",
            "1,0.2000,0.2065,1.0000,false",
        ]
        assert "# coverage: 0.8000" in comment_lines(out)

    def test_every_row_matches_independent_oracles(self, capsys):
        n, p, level = 40, 0.37, 0.9
        code, out, _ = run(
            capsys,
            "coverage",
            "--n",
            str(n),
            "--p",
            str(p),
            "--level",
            str(level),
            "--format",
            "csv",
            "--round",
            "12",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(row["k"]) for row in rows] == list(range(n + 1))
        z = oracles.normal_quantile(0.5 + level / 2.0)
        with mpmath.workdps(40):
            p_mp = mpmath.mpf(p)
            masses = [
                float(mpmath.binomial(n, k) * p_mp**k * (1 - p_mp) ** (n - k))
                for k in range(n + 1)
            ]
        for k, row in enumerate(rows):
            lower, upper = oracles.wilson_bounds_by_roots(k / n, n, z)
            lower, upper = max(lower, 0.0), min(upper, 1.0)
            # 12 printed decimals: half a unit plus the oracles' float error
            assert float(row["probability"]) == pytest.approx(masses[k], abs=1e-12)
            assert float(row["lower"]) == pytest.approx(lower, abs=1e-12)
            assert float(row["upper"]) == pytest.approx(upper, abs=1e-12)
            # a numpy bool would print as True or False
            assert row["covered"] in ("true", "false")
            assert (row["covered"] == "true") == (lower <= p <= upper)
        coverage = oracles.coverage_by_roots(n, p, level)
        assert f"# coverage: {format_fixed(coverage, 12)}" in comment_lines(out)

    def test_rejects_degenerate_design(self, capsys):
        code, _, err = run(capsys, "coverage", "--n", "0", "--p", "0.2")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "0", "--p", "0.2"], "n must be an integer >= 1, got 0"),
            (["--n", "10", "--p", "2"], "p_true must be in [0,1], got 2.0"),
            (
                ["--n", "10", "--p", "0.2", "--level", "1"],
                "level must be in (0,1), got 1.0",
            ),
        ],
    )
    def test_bad_value_exits_2_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, "coverage", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # 10**15 outcomes take 8 PB, so the allocation fails at once; 10**20 is
    # beyond numpy's size limit
    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_outcomes_that_do_not_fit_exit_2(self, capsys, n):
        code, out, err = run(capsys, "coverage", "--n", str(n), "--p", "0.2")
        assert (code, out) == (2, "")
        assert err == f"error: n = {n}: its {n + 1} outcomes do not fit in memory\n"


class TestSimulateCommand:
    def test_single_outcome_distributions_and_tv(self, capsys, data_dir):
        config = data_dir / "scenarios_single_outcome.cfg"
        code, out, _ = run(
            capsys, "simulate", str(config), "--format", "csv", "--round", "4"
        )
        assert code == 0
        assert data_lines(out) == [
            "section,record,key,value",
            "scenario_a,count_distribution,0,0.1600",
            "scenario_a,count_distribution,1,0.4800",
            "scenario_a,count_distribution,2,0.3600",
            "scenario_b,count_distribution,0,0.1600",
            "scenario_b,count_distribution,1,0.4800",
            "scenario_b,count_distribution,2,0.3600",
            "scenario_a|scenario_b,tv_distance,value,0.0000",
        ]

    def test_repeated_design_rows(self, capsys, data_dir):
        config = data_dir / "scenarios_repeated.cfg"
        code, out, _ = run(
            capsys, "simulate", str(config), "--format", "csv", "--round", "4"
        )
        assert code == 0
        assert data_lines(out) == [
            "section,record,key,value",
            "scenario_a,clustering,statistic,16.1836",
            "scenario_a,clustering,df,9",
            "scenario_a,clustering,p_value,0.0631",
            "scenario_a,clustering,undefined,false",
            "scenario_a,icc,estimate,0.1839",
            "scenario_a,icc,undefined,false",
            "scenario_b,clustering,statistic,50.0000",
            "scenario_b,clustering,df,9",
            "scenario_b,clustering,p_value,0.0000",
            "scenario_b,clustering,undefined,false",
            "scenario_b,icc,estimate,1.0000",
            "scenario_b,icc,undefined,false",
        ]

    def test_threshold_cohort_rows(self, capsys, data_dir):
        config = data_dir / "threshold_demo.cfg"
        code, out, _ = run(
            capsys, "simulate", str(config), "--format", "csv", "--round", "4"
        )
        assert code == 0
        assert data_lines(out) == [
            "section,record,key,value",
            "threshold_cohort,threshold,cohort_size,500",
            "threshold_cohort,threshold,observed_frequency,0.4700",
            "threshold_cohort,threshold,mean_latent_risk,0.4617",
        ]

    def test_outcomes_file(self, capsys, tmp_path, data_dir):
        config = data_dir / "scenarios_repeated.cfg"
        outcomes = tmp_path / "outcomes.csv"
        code, _, _ = run(
            capsys, "simulate", str(config), "--outcomes", str(outcomes)
        )
        assert code == 0
        rows = parse_csv(outcomes.read_text())
        assert len(rows) == 100
        assert rows[0] == {
            "section": "scenario_a",
            "individual": "0",
            "rep": "0",
            "outcome": "0",
        }
        assert {row["section"] for row in rows} == {"scenario_a", "scenario_b"}
        assert {row["outcome"] for row in rows} <= {"0", "1"}
        per_section = sum(1 for row in rows if row["section"] == "scenario_a")
        assert per_section == 50

    def test_unwritable_outcomes_exits_2_before_stdout(self, capsys, tmp_path, data_dir):
        outcomes = tmp_path / "missing" / "outcomes.csv"
        code, out, err = run(
            capsys, "simulate", str(data_dir / "scenarios_repeated.cfg"),
            "--outcomes", str(outcomes), "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(outcomes) in err

    def test_outcomes_over_its_own_config_exits_2(self, capsys, tmp_path, data_dir):
        config = tmp_path / "repeated.cfg"
        shipped = (data_dir / "scenarios_repeated.cfg").read_bytes()
        config.write_bytes(shipped)
        link = tmp_path / "link.cfg"  # the config under a second name
        link.symlink_to(config)
        code, out, err = run(capsys, "simulate", str(config), "--outcomes", str(link))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {link} is the input {config}: ")
        assert config.read_bytes() == shipped

    @pytest.mark.parametrize(
        "config, extra, message",
        [
            (
                "threshold_demo.cfg",
                ("--reps", "5"),
                "--reps applies to risk-mixture sections only, and every "
                "section is a threshold section: threshold_cohort",
            ),
            (
                "scenarios_single_outcome.cfg",
                ("--seed", "5"),
                "--seed applies to sections that draw random numbers, and every "
                "section is an exact single-outcome design: scenario_a, scenario_b",
            ),
            (
                "scenarios_repeated.cfg",
                ("--reps", "1", "--seed", "5"),
                "--seed applies to sections that draw random numbers, and every "
                "section is an exact single-outcome design: scenario_a, scenario_b",
            ),
        ],
        ids=["reps_threshold", "seed_single_outcome", "seed_reps_1"],
    )
    def test_flag_no_section_uses_exits_2(
        self, capsys, data_dir, config, extra, message
    ):
        # no section would use the value the call names
        code, out, err = run(capsys, "simulate", str(data_dir / config), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "tiny, extra, repeats",
        [("repeats = 3\n", (), 3), ("", ("--reps", "4"), 4)],
        ids=["repeats_key", "reps_flag"],
    )
    def test_one_person_repeated_design_exits_2(
        self, capsys, tmp_path, tiny, extra, repeats
    ):
        # the clustering test needs two people; the valid first section
        # does not run, so no outcomes file is written
        config = tmp_path / "tiny.cfg"
        config.write_text(
            "[first]\ndistribution = point\np = 0.5\nsample_size = 4\n"
            f"[tiny]\ndistribution = point\np = 0.5\nsample_size = 1\n{tiny}",
            encoding="utf-8",
        )
        outcomes = tmp_path / "outcomes.csv"
        code, out, err = run(
            capsys, "simulate", str(config), *extra, "--outcomes", str(outcomes)
        )
        assert (code, out, err) == (
            2, "", f"error: section [tiny]: a design of {repeats} repeats needs "
            "sample_size >= 2 for its clustering test, got 1\n",
        )
        assert not outcomes.exists()

    @pytest.mark.parametrize(
        "config, extra",
        [
            ("scenarios_single_outcome.cfg", ()),
            ("scenarios_repeated.cfg", ("--reps", "1")),
        ],
        ids=["single_outcome", "reps_1"],
    )
    def test_outcomes_without_drawn_outcomes_exits_2(
        self, capsys, tmp_path, data_dir, config, extra
    ):
        outcomes = tmp_path / "outcomes.csv"
        code, out, err = run(
            capsys, "simulate", str(data_dir / config), *extra,
            "--outcomes", str(outcomes),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --outcomes has nothing to write: every section is an exact "
            "single-outcome design, which draws no outcomes\n"
        )
        assert not outcomes.exists()

    def test_outcomes_file_leaves_stdout_alone(self, capsys, tmp_path, data_dir):
        # a repeated and a threshold section in one config
        config = tmp_path / "both.cfg"
        config.write_text(
            (data_dir / "scenarios_repeated.cfg").read_text()
            + (data_dir / "threshold_demo.cfg").read_text()
        )
        outcomes = tmp_path / "outcomes.csv"
        code, plain, _ = run(capsys, "simulate", str(config), "--format", "csv")
        assert code == 0
        code, with_file, _ = run(
            capsys, "simulate", str(config), "--format", "csv",
            "--outcomes", str(outcomes),
        )
        assert (code, with_file) == (0, plain)
        want = ["section,individual,rep,outcome"]
        for name, spec in read_scenario_config(config.read_text()).items():
            if name == "threshold_cohort":
                cohort = simulate_threshold_cohort(
                    spec.model, spec.cohort_size, spec.seed
                )
                outcomes_of = cohort.outcomes.outcomes
            else:
                outcomes_of = simulate_repeated(spec).outcomes
            want += [
                f"{name},{i},{j},{int(value)}"
                for (i, j), value in np.ndenumerate(outcomes_of)
            ]
        text = outcomes.read_text()
        assert comment_lines(text) == comment_lines(plain)
        assert data_lines(text) == want

    def test_seed_flag_overrides_section_seeds(self, capsys, data_dir):
        config = data_dir / "scenarios_repeated.cfg"
        _, base, _ = run(
            capsys, "simulate", str(config), "--format", "csv", "--round", "4"
        )
        _, reseeded, _ = run(
            capsys,
            "simulate",
            str(config),
            "--seed",
            "777",
            "--format",
            "csv",
            "--round",
            "4",
        )
        assert "# seed: 777" in comment_lines(reseeded)
        assert data_lines(reseeded) != data_lines(base)

    @pytest.mark.parametrize(
        "config", ["scenarios_repeated.cfg", "threshold_demo.cfg"]
    )
    def test_negative_seed_exits_2(self, capsys, data_dir, config):
        code, out, err = run(capsys, "simulate", str(data_dir / config), "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                ("provocation_rate = 2.0", "provocation_rate = nan"),
                "section [threshold_cohort]: provocation_rate must be finite, got nan",
            ),
            (
                ("provocation_rate = 2.0", "provocation_rate = 1e308"),
                "section [threshold_cohort]: provocation_rate * follow_up = "
                "1e+308 is too large for a Poisson draw",
            ),
            (
                ("threshold_location = 0.5", "threshold_location = nan"),
                "section [threshold_cohort]: threshold_location must be finite, "
                "got nan",
            ),
            (
                ("provocation_rate = 2.0\n", ""),
                "section [threshold_cohort]: missing key 'provocation_rate'",
            ),
            (
                ("seed = 7", "seed = abc"),
                "section [threshold_cohort]: invalid literal for int() with "
                "base 10: 'abc'",
            ),
            (
                ("model = threshold", "model = threshold\ndistribution = point"),
                "section [threshold_cohort]: unknown key 'distribution'",
            ),
            (
                ("threshold_spread", "treshold_spread"),
                "section [threshold_cohort]: unknown key 'treshold_spread'",
            ),
            (
                ("[threshold_cohort]", "[DEFAULT]\nrepeats = 5\n[threshold_cohort]"),
                "section [threshold_cohort]: unknown key 'repeats'",
            ),
            (
                ("[threshold_cohort]", "[threshold,cohort]"),
                "section name 'threshold,cohort' contains ',', a tab or '|', "
                "which separate the fields of the output",
            ),
            (
                ("[threshold_cohort]", "[threshold\tcohort]"),
                "section name 'threshold\\tcohort' contains ',', a tab or '|', "
                "which separate the fields of the output",
            ),
            (
                ("[threshold_cohort]", "[threshold|cohort]"),
                "section name 'threshold|cohort' contains ',', a tab or '|', "
                "which separate the fields of the output",
            ),
        ],
        ids=[
            "nan_rate", "huge_rate", "nan_location", "missing_rate", "bad_seed",
            "mixture_key", "misspelt_key", "default_key",
            "comma_name", "tab_name", "pipe_name",
        ],
    )
    def test_bad_threshold_config_exits_2(
        self, capsys, tmp_path, data_dir, change, message
    ):
        text = (data_dir / "threshold_demo.cfg").read_text(encoding="utf-8")
        assert change[0] in text
        config = tmp_path / "bad.cfg"
        config.write_text(text.replace(*change), encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "distribution = beta\na = nan\nb = 2.0",
                "section [s]: beta parameters must be finite and > 0, got (nan, 2.0)",
            ),
            (
                "distribution = beta\na = 2.0\nb = inf",
                "section [s]: beta parameters must be finite and > 0, got (2.0, inf)",
            ),
            ("distribution = point", "section [s]: missing key 'p'"),
            (
                "distribution = point\np = 0.5\nseed = abc",
                "section [s]: invalid literal for int() with base 10: 'abc'",
            ),
            (
                "distribution = point\np = 0.5\nrepets = 5",
                "section [s]: unknown key 'repets'",
            ),
            (
                "distribution = point\np = 0.5\nsed = 42",
                "section [s]: unknown key 'sed'",
            ),
            (
                "distribution = point\np = 0.5\np1 = 0.2",
                "section [s]: unknown key 'p1'",
            ),
            (
                "distribution = point\np = 5%",
                "section [s]: could not convert string to float: '5%'",
            ),
        ],
        ids=[
            "nan_beta", "inf_beta", "missing_p", "bad_seed",
            "misspelt_repeats", "misspelt_seed", "other_distribution_key",
            "bare_percent",
        ],
    )
    def test_bad_mixture_config_exits_2(self, capsys, tmp_path, body, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"[s]\n{body}\nsample_size = 4\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    COHORT = (
        "model = threshold\nthreshold_location = 0.5\nprovocation_rate = 2.0\n"
        "strength_location = 0.0\n"
    )

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "distribution = point\np = 1.5\nsample_size = 4",
                "risk must be in [0,1], got 1.5",
            ),
            (
                "distribution = two_point\np1 = 0.2\nw1 = 2\np2 = 0.4\n"
                "sample_size = 4",
                "w1 must be in [0,1], got 2.0",
            ),
            (
                "distribution = beta\na = 0\nb = 2\nsample_size = 4",
                "beta parameters must be finite and > 0, got (0.0, 2.0)",
            ),
            (
                "distribution = point\np = 0.5\nsample_size = 0",
                "sample_size must be an integer >= 1, got 0",
            ),
            (
                f"{COHORT}follow_up = 0\ncohort_size = 5",
                "follow_up must be > 0, got 0.0",
            ),
            (
                f"{COHORT}follow_up = 1.0\ncohort_size = 0",
                "cohort_size must be an integer >= 1, got 0",
            ),
            (
                f"{COHORT}follow_up = 1.0\ncohort_size = 5\nseed = -4",
                "seed must be an integer >= 0, got -4",
            ),
        ],
        ids=[
            "point_risk", "two_point_risk", "beta_risk", "scenario_spec",
            "threshold_model", "threshold_scenario_size", "threshold_scenario_seed",
        ],
    )
    def test_spec_error_names_its_section(self, capsys, tmp_path, body, message):
        # the first section is valid, so the name is the faulty section's
        config = tmp_path / "bad.cfg"
        config.write_text(
            "[first]\ndistribution = point\np = 0.5\nsample_size = 4\n"
            f"[second]\n{body}\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (2, "", f"error: section [second]: {message}\n")

    @pytest.mark.parametrize(
        "value, message",
        [
            (
                "abc",
                "section [threshold_cohort]: invalid literal for int() with "
                "base 10: 'abc'",
            ),
            (
                "-4",
                "section [threshold_cohort]: seed must be an integer >= 0, got -4",
            ),
        ],
        ids=["malformed", "negative"],
    )
    def test_bad_seed_key_exits_2_under_seed_flag(
        self, capsys, tmp_path, data_dir, value, message
    ):
        # --seed replaces the key's value, but the key is still read
        text = (data_dir / "threshold_demo.cfg").read_text(encoding="utf-8")
        config = tmp_path / "bad.cfg"
        config.write_text(text.replace("seed = 7", f"seed = {value}"), encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(config), "--seed", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_single_outcome_design_that_does_not_fit_exits_2(self, capsys, tmp_path):
        n = 10**15  # 8 PB of outcomes: the allocation fails at once
        config = tmp_path / "huge.cfg"
        config.write_text(
            f"[s]\ndistribution = point\np = 0.6\nsample_size = {n}\nrepeats = 1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (2, "")
        assert err == (
            f"error: section [s]: n = {n}: its {n + 1} outcomes do not fit in "
            "memory\n"
        )

    HUGE = 3 * 10**12  # tens of TiB: each allocation fails at once

    @pytest.mark.parametrize(
        "body, shape",
        [
            (
                f"distribution = point\np = 0.5\nsample_size = {HUGE}\nrepeats = 2",
                f"({HUGE}, 3)",
            ),
            (
                f"distribution = beta\na = 2\nb = 3\nsample_size = {HUGE}\n"
                "repeats = 2",
                f"({HUGE}, 2)",
            ),
            (
                f"{COHORT}follow_up = 1.0\ncohort_size = {HUGE}",
                f"({HUGE},)",
            ),
        ],
        ids=["point", "beta", "threshold"],
    )
    def test_simulation_that_does_not_fit_exits_2(
        self, capsys, tmp_path, body, shape
    ):
        config = tmp_path / "huge.cfg"
        config.write_text(f"[a]\n{body}\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: section [a]: Unable to allocate ")
        assert f" shape {shape} " in err

    def test_failure_names_the_section_that_ran_out(self, capsys, tmp_path):
        # the first section runs; the second cannot be allocated
        config = tmp_path / "huge.cfg"
        config.write_text(
            "[small]\ndistribution = point\np = 0.5\nsample_size = 3\nrepeats = 2\n"
            f"[huge]\ndistribution = point\np = 0.5\nsample_size = {self.HUGE}\n"
            "repeats = 2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: section [huge]: Unable to allocate ")

    def test_determinism_across_runs(self, capsys, data_dir):
        config = data_dir / "scenarios_repeated.cfg"
        _, first, _ = run(capsys, "simulate", str(config), "--format", "csv")
        _, second, _ = run(capsys, "simulate", str(config), "--format", "csv")
        assert first == second

    def test_manifest_seed_is_the_one_sections_ran_with(self, capsys, data_dir):
        code, out, _ = run(capsys, "simulate", str(data_dir / "scenarios_repeated.cfg"))
        assert code == 0
        assert "seed: 42" in out.splitlines()
        code, out, _ = run(capsys, "simulate", str(data_dir / "threshold_demo.cfg"))
        assert code == 0
        assert "seed: 7" in out.splitlines()

    def test_small_design_permutes_with_the_section_seed(self, capsys, tmp_path):
        text = (
            "[rep]\ndistribution = point\np = 0.5\nsample_size = 4\n"
            "repeats = 3\nseed = 1\n"
        )
        config = tmp_path / "small.cfg"
        config.write_text(text, encoding="utf-8")
        spec = read_scenario_config(text)["rep"]
        data = simulate_repeated(spec)
        expected = clustering_test(data, permutation_seed=1).p_value_permutation
        # seed 0, the parameter's default, gives a different p-value here
        assert expected != clustering_test(data).p_value_permutation
        code, out, _ = run(capsys, "simulate", str(config), "--format", "csv")
        assert code == 0
        assert f"rep,clustering,p_value_permutation,{format_fixed(expected, 4)}" in (
            data_lines(out)
        )

    MIXED = (
        "[rep]\ndistribution = point\np = 0.5\nsample_size = 4\n"
        "repeats = 3\nseed = 1\n"
        "[exact]\ndistribution = point\np = 0.5\nsample_size = 4\n"
        "[cohort]\nmodel = threshold\nthreshold_location = 0.5\n"
        "provocation_rate = 2.0\nstrength_location = 0.0\n"
        "follow_up = 1.0\ncohort_size = 5\n"
    )

    def test_manifest_seed_names_each_section_when_they_differ(
        self, capsys, tmp_path
    ):
        config = tmp_path / "mixed.cfg"
        config.write_text(self.MIXED, encoding="utf-8")
        _, out, _ = run(capsys, "simulate", str(config), "--format", "csv")
        # the exact section draws nothing; cohort has no seed key
        assert "# seed: rep=1 cohort=0" in comment_lines(out)
        _, out, _ = run(capsys, "simulate", str(config), "--format", "csv", "--seed", "3")
        assert "# seed: 3" in comment_lines(out)
        _, out, _ = run(
            capsys, "simulate", str(config), "--format", "csv", "--reps", "1"
        )
        assert "# seed: 0" in comment_lines(out)

    def test_seed_environment_variable_is_ignored(
        self, capsys, monkeypatch, tmp_path
    ):
        config = tmp_path / "mixed.cfg"
        config.write_text(self.MIXED, encoding="utf-8")
        _, unset, _ = run(capsys, "simulate", str(config), "--format", "csv")
        monkeypatch.setenv("RISKBOUNDS_SEED", "abc")
        assert run(capsys, "simulate", str(config), "--format", "csv") == (0, unset, "")


# single-outcome, threshold, repeated, then single-outcome of the same size
MIXED_KINDS = (
    "[first]\ndistribution = point\np = 0.5\nsample_size = 2\n"
    "[cohort]\nmodel = threshold\nthreshold_location = 0.5\n"
    "provocation_rate = 2.0\nstrength_location = 0.0\nfollow_up = 1.0\n"
    "cohort_size = 5\nseed = 3\n"
    "[repeated]\ndistribution = point\np = 0.5\nsample_size = 2\nrepeats = 2\n"
    "seed = 4\n"
    "[last]\ndistribution = two_point\np1 = 1.0\nw1 = 0.5\np2 = 0.0\n"
    "sample_size = 2\n"
)


class TestSectionKinds:
    """Each section's kind, in config order; the values are tested elsewhere."""

    def _keys(self, capsys, config, *extra):
        code, out, err = run(capsys, "simulate", str(config), "--format", "csv", *extra)
        assert (code, err) == (0, "")
        seed = [line for line in comment_lines(out) if line.startswith("# seed:")]
        return [tuple(row.split(",")[:3]) for row in data_lines(out)[1:]], seed

    def test_each_kind_keeps_its_rows_in_config_order(self, capsys, tmp_path):
        config = tmp_path / "kinds.cfg"
        config.write_text(MIXED_KINDS, encoding="utf-8")
        keys, seed = self._keys(capsys, config)
        counts = [("count_distribution", str(k)) for k in range(3)]
        clustering = ["statistic", "df", "p_value", "p_value_permutation", "undefined"]
        assert keys == [
            *(("first", *key) for key in counts),
            ("cohort", "threshold", "cohort_size"),
            ("cohort", "threshold", "observed_frequency"),
            ("cohort", "threshold", "mean_latent_risk"),
            *(("repeated", "clustering", key) for key in clustering),
            ("repeated", "icc", "estimate"),
            ("repeated", "icc", "undefined"),
            *(("last", *key) for key in counts),
            ("first|last", "tv_distance", "value"),
        ]
        assert seed == ["# seed: cohort=3 repeated=4"]

    def test_reps_1_makes_every_mixture_single_outcome(self, capsys, tmp_path):
        # a one-person design of 3 repeats runs once --reps 1 leaves it one
        # outcome, and the first two single-outcome sections in config order
        # are paired
        config = tmp_path / "kinds.cfg"
        config.write_text(
            f"{MIXED_KINDS}[tiny]\ndistribution = point\np = 0.5\n"
            "sample_size = 1\nrepeats = 3\n",
            encoding="utf-8",
        )
        keys, seed = self._keys(capsys, config, "--reps", "1")
        counts = [("count_distribution", str(k)) for k in range(3)]
        assert keys == [
            *(("first", *key) for key in counts),
            ("cohort", "threshold", "cohort_size"),
            ("cohort", "threshold", "observed_frequency"),
            ("cohort", "threshold", "mean_latent_risk"),
            *(("repeated", *key) for key in counts),
            *(("last", *key) for key in counts),
            *(("tiny", *key) for key in counts[:2]),
            ("first|repeated", "tv_distance", "value"),
        ]
        assert seed == ["# seed: 3"]


class TestRefutedCommand:
    BANNER = (
        "# REFUTED CONSTRUCTION: the bounds below are not a valid confidence"
    )

    def test_hmc_row_and_banner(self, capsys):
        code, out, _ = run(
            capsys,
            "refuted",
            "--mode",
            "hmc",
            "--theta",
            "0.13",
            "--format",
            "csv",
            "--round",
            "2",
        )
        assert code == 0
        assert self.BANNER in comment_lines(out)
        assert data_lines(out) == [
            "theta_hat,n,lower,upper,level,method,valid,note",
            "0.13,1,0.00,0.84,0.95,fictitious_wilson,false,"
            "single-outcome Wilson interval misread as an individual-risk interval",
        ]

    def test_cm1_row_and_banner(self, capsys):
        code, out, _ = run(
            capsys,
            "refuted",
            "--mode",
            "cm1",
            "--beta0",
            "-2.0",
            "--beta1",
            "0.5",
            "--sigma",
            "1.0",
            "--n",
            "255",
            "--x-bar",
            "20",
            "--ss-x",
            "5000",
            "--x-new",
            "20",
            "--format",
            "csv",
            "--round",
            "4",
        )
        assert code == 0
        assert self.BANNER in comment_lines(out)
        assert data_lines(out) == [
            "point,lower,upper,level,method,valid,note",
            "0.9997,0.9976,1.0000,0.9500,cm1_pseudo,false,"
            "linear-regression prediction interval pushed through the logistic map",
        ]

    def test_cm1_requires_sigma(self, capsys):
        code, _, err = run(
            capsys,
            "refuted",
            "--mode",
            "cm1",
            "--beta0",
            "-2.0",
            "--beta1",
            "0.5",
            "--n",
            "255",
            "--x-bar",
            "20",
            "--ss-x",
            "5000",
            "--x-new",
            "20",
        )
        assert code == 2
        assert "--sigma" in err

    @pytest.mark.parametrize(
        "dropped,message",
        [
            (
                ["--sigma"],
                "--mode cm1 requires --sigma (sigma has no default by design: "
                "the fit provides no such quantity)",
            ),
            (["--x-new"], "--mode cm1 requires --x-new"),
            (
                ["--sigma", "--x-new"],
                "--mode cm1 requires --sigma, --x-new (sigma has no default by "
                "design: the fit provides no such quantity)",
            ),
        ],
    )
    def test_cm1_sigma_note_only_when_sigma_is_missing(
        self, capsys, dropped, message
    ):
        values = {"--sigma": "1.0", "--x-new": "20"}
        for flag in dropped:
            del values[flag]
        code, out, err = run(
            capsys, "refuted", "--mode", "cm1", "--beta0", "-2.0", "--beta1",
            "0.5", "--n", "255", "--x-bar", "20", "--ss-x", "5000",
            *(part for item in values.items() for part in item),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--sigma", "inf", "sigma_hat"),
            ("--sigma", "nan", "sigma_hat"),
            ("--ss-x", "inf", "ss_x"),
            ("--ss-x", "nan", "ss_x"),
        ],
    )
    def test_cm1_non_finite_spread_exits_2(self, capsys, flag, value, field):
        values = {"--sigma": "1.0", "--ss-x": "5000", flag: value}
        code, out, err = run(
            capsys, "refuted", "--mode", "cm1", "--beta0", "-2.0", "--beta1",
            "0.5", "--n", "255", "--x-bar", "20", "--x-new", "20",
            *(part for item in values.items() for part in item),
        )
        assert (code, out, err) == (2, "", f"error: {field} must be finite\n")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--n", "1", "n must be an integer >= 2, got 1"),
            ("--n", "2", "the default df = n - 2 needs n >= 3, got n = 2"),
            ("--ss-x", "0", "ss_x must be > 0, got 0.0"),
            ("--sigma", "-1", "sigma_hat must be >= 0, got -1.0"),
            ("--alpha", "1", "alpha must be in (0,1), got 1.0"),
        ],
    )
    def test_cm1_bad_value_exits_2_with_one_line(self, capsys, flag, value, message):
        values = {"--sigma": "1.0", "--ss-x": "5000", "--n": "255", flag: value}
        code, out, err = run(
            capsys, "refuted", "--mode", "cm1", "--beta0", "-2.0", "--beta1",
            "0.5", "--x-bar", "20", "--x-new", "20",
            *(part for item in values.items() for part in item),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--beta0", "-2.0"], "--mode hmc does not use --beta0"),
            (["--sigma", "1.0", "--df", "5"], "--mode hmc does not use --sigma, --df"),
            (
                ["--beta1", "0.5", "--n", "255", "--x-bar", "20", "--ss-x", "5000",
                 "--x-new", "20"],
                "--mode hmc does not use --beta1, --n, --x-bar, --ss-x, --x-new",
            ),
            (["--df", "5"], "--mode hmc does not use --df"),
        ],
    )
    def test_hmc_with_cm1_flags_exits_2(self, capsys, extra, message):
        code, out, err = run(
            capsys, "refuted", "--mode", "hmc", "--theta", "0.13", *extra
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_cm1_n_of_2_with_df_runs(self, capsys):
        code, out, err = run(
            capsys, "refuted", "--mode", "cm1", "--beta0", "-2.0", "--beta1",
            "0.5", "--sigma", "1.0", "--n", "2", "--x-bar", "20", "--ss-x",
            "5000", "--x-new", "20", "--df", "1", "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert data_lines(out)[1].split(",")[4:6] == ["cm1_pseudo", "false"]

    def test_cm1_with_theta_exits_2(self, capsys):
        code, out, err = run(
            capsys, "refuted", "--mode", "cm1", "--theta", "0.13", "--beta0", "-2.0",
            "--beta1", "0.5", "--sigma", "1.0", "--n", "255", "--x-bar", "20",
            "--ss-x", "5000", "--x-new", "20",
        )
        assert (code, out, err) == (2, "", "error: --mode cm1 does not use --theta\n")

    def test_mode_is_required(self, capsys):
        code, _, _ = run(capsys, "refuted", "--theta", "0.13")
        assert code == 2


class TestOutputFormats:
    def test_tsv_uses_tabs(self, capsys):
        code, out, _ = run(
            capsys,
            "coverage",
            "--n",
            "2",
            "--p",
            "0.5",
            "--format",
            "tsv",
            "--round",
            "4",
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "k\tprobability\tlower\tupper\tcovered"
        assert lines[1].split("\t") == ["0", "0.2500", "0.0000", "0.6576", "true"]

    def test_pretty_layout(self, capsys):
        code, out, _ = run(
            capsys,
            "coverage",
            "--n",
            "2",
            "--p",
            "0.5",
            "--format",
            "pretty",
            "--round",
            "4",
        )
        assert code == 0
        stripped = [line.rstrip() for line in out.splitlines()]
        assert "coverage: 1.0000" in stripped
        header = next(line for line in stripped if line.startswith("k "))
        assert "probability" in header and "covered" in header

    def test_unknown_format_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "coverage", "--n", "1", "--p", "0.5", "--format", "xml"
        )
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "nosuchcmd")
        assert code == 2

    @pytest.mark.parametrize(
        "fmt,digits,expected",
        [
            ("csv", 0, "# m\na,b,c,d,e,f,g,h,i\ntrue,false,3,7,x,0,0,0,nan\n"),
            (
                "csv",
                2,
                "# m\na,b,c,d,e,f,g,h,i\ntrue,false,3,7,x,0.13,0.13,0.00,nan\n",
            ),
            (
                "csv",
                4,
                "# m\na,b,c,d,e,f,g,h,i\n"
                "true,false,3,7,x,0.1250,0.1250,-0.0001,nan\n",
            ),
            (
                "tsv",
                0,
                "# m\na\tb\tc\td\te\tf\tg\th\ti\n"
                "true\tfalse\t3\t7\tx\t0\t0\t0\tnan\n",
            ),
            (
                "tsv",
                2,
                "# m\na\tb\tc\td\te\tf\tg\th\ti\n"
                "true\tfalse\t3\t7\tx\t0.13\t0.13\t0.00\tnan\n",
            ),
            (
                "tsv",
                4,
                "# m\na\tb\tc\td\te\tf\tg\th\ti\n"
                "true\tfalse\t3\t7\tx\t0.1250\t0.1250\t-0.0001\tnan\n",
            ),
            (
                "pretty",
                0,
                "m\n\n"
                "a     b      c  d  e  f  g  h  i  \n"
                "----  -----  -  -  -  -  -  -  ---\n"
                "true  false  3  7  x  0  0  0  nan\n",
            ),
            (
                "pretty",
                2,
                "m\n\n"
                "a     b      c  d  e  f     g     h     i  \n"
                "----  -----  -  -  -  ----  ----  ----  ---\n"
                "true  false  3  7  x  0.13  0.13  0.00  nan\n",
            ),
            (
                "pretty",
                4,
                "m\n\n"
                "a     b      c  d  e  f       g       h        i  \n"
                "----  -----  -  -  -  ------  ------  -------  ---\n"
                "true  false  3  7  x  0.1250  0.1250  -0.0001  nan\n",
            ),
        ],
    )
    def test_cell_types_render_as_pinned(self, fmt, digits, expected):
        # bool and numpy scalars are subclasses of the exact types that
        # _cell dispatches on first, so each must still print as before
        row = [True, False, 3, np.int64(7), "x", 0.125, np.float64(0.125)]
        row += [-0.0001, float("nan")]
        rendered = cli.render_table(list("abcdefghi"), [row], ["m"], fmt, digits)
        assert rendered == expected


class TestNumericalFailures:
    @pytest.mark.parametrize("theta,n_list", [("0.5", "1e-320"), ("0.3", "1e-300")])
    def test_underflowing_sample_size_exits_3(self, capsys, theta, n_list):
        # 4 * n * n underflows to 0 inside the score formula
        code, out, err = run(capsys, "wilson", "--fictitious", theta, n_list)
        assert code == 3
        assert out == ""
        assert err == f"numerical failure: 4 n**2 underflows to 0 at n = {n_list}\n"

    def test_cm1_overflow_names_the_quantity(self, capsys):
        # (x_new - x_bar)**2 overflows; it printed a bare errno tuple
        argv = (
            "refuted --mode cm1 --beta0 1e308 --beta1 5e-324 --sigma -0 "
            "--x-bar 1e308 --ss-x 1e-300 --x-new 5e-324 --n 3 --df 5 --alpha 0.9"
        )
        assert run(capsys, *argv.split()) == (
            3,
            "",
            "numerical failure: (x_new - x_bar)**2 / ss_x overflows at "
            "x_new - x_bar = -1e+308\n",
        )

    def test_cm1_difference_overflow_names_it(self, capsys):
        # x_new - x_bar overflows; it exited 2 naming NaN bounds
        argv = (
            "refuted --mode cm1 --beta0 0 --beta1 0 --sigma 0 --x-bar=-1e308 "
            "--ss-x 1 --x-new 1e308 --n 5"
        )
        assert run(capsys, *argv.split()) == (
            3,
            "",
            "numerical failure: x_new - x_bar overflows at x_new = 1e+308, "
            "x_bar = -1e+308\n",
        )

    def test_fit_overflow_is_one_line(self, capsys, vrag_path):
        # it printed two numpy overflow warnings, which escaped main as
        # exceptions under warnings-as-errors
        argv = ["fit", str(vrag_path), "--expand", str(10**306)]
        assert run(capsys, *argv) == (
            3,
            "",
            "numerical failure: the Newton sums overflow at iteration 1: the "
            "totals are too large for doubles\n",
        )

    def test_fit_past_the_iteration_limit_exits_3(self, capsys, monkeypatch, vrag_path):
        monkeypatch.setattr(logistic, "MAX_ITERATIONS", 1)
        assert run(capsys, "fit", str(vrag_path)) == (
            3, "", "numerical failure: no convergence after 1 iterations\n"
        )

    def test_failed_wilson_snap_exits_3(self, capsys):
        # at n ~ 1e-161 and a level near 0 the float bounds miss the point
        # by more than the snap tolerance, so wilson_interval raises
        code, out, err = run(
            capsys,
            "wilson",
            "--fictitious",
            "0.9999999997808171",
            "1.6578369151475657e-161",
            "--alpha",
            "0.9999999999999994",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: wilson upper bound ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["0.5", "1e-320"], "4 n**2 underflows to 0 at n = 1e-320"),
            (["0.3", "1e-300"], "4 n**2 underflows to 0 at n = 1e-300"),
            (
                [
                    "0.9999999997808171",
                    "1.6578369151475657e-161",
                    "--alpha",
                    "0.9999999999999994",
                ],
                "wilson upper bound 0.9994557828665974 below point "
                "0.9999999997808171",
            ),
        ],
    )
    def test_stderr_is_one_line_in_a_fresh_interpreter(self, argv, message):
        # capsys does not see warnings; a child process with the default
        # warning filters shows the whole of what a user's stderr gets
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-m", "riskbounds.cli", "wilson", "--fictitious", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == f"numerical failure: {message}\n"


class TestSourceDateEpoch:
    @pytest.mark.parametrize("value", ["zz", "1.5", ""])
    def test_non_integer_exits_2_before_any_work(
        self, capsys, monkeypatch, tmp_path, data_dir, vrag_path, value
    ):
        calls = []
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        monkeypatch.setattr(cli, "wilson_interval", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "score_bounds", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "simulate_repeated", lambda *a: calls.append(a))
        outcomes = tmp_path / "outcomes.csv"
        message = (
            "error: SOURCE_DATE_EPOCH must be an integer number of seconds, "
            f"got {value!r}\n"
        )
        for argv in (
            ("wilson", str(vrag_path)),
            ("wilson", "--fictitious", "0.5", "1e-320"),
            (
                "simulate",
                str(data_dir / "scenarios_repeated.cfg"),
                "--outcomes",
                str(outcomes),
            ),
        ):
            assert run(capsys, *argv) == (2, "", message)
        assert calls == []
        assert not outcomes.exists()


    @pytest.mark.parametrize(
        "value", ["253402300800", "99999999999999999", "-62135596801"]
    )
    def test_out_of_range_exits_2_naming_the_variable(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        message = f"SOURCE_DATE_EPOCH must fall in the years 1 to 9999, got {value}"
        assert run(capsys, "coverage", "--n", "1", "--p", "0.2") == (
            2, "", f"error: {message}\n"
        )

    @pytest.mark.parametrize(
        "value,stamp",
        [
            ("253402300799", "9999-12-31T23:59:59Z"),
            # years before 1000 are padded to four digits, as ISO 8601 asks
            ("-62135596800", "0001-01-01T00:00:00Z"),
            ("-30610224001", "0999-12-31T23:59:59Z"),
        ],
    )
    def test_first_and_last_second_still_print(
        self, capsys, monkeypatch, value, stamp
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        code, out, _ = run(
            capsys, "coverage", "--n", "1", "--p", "0.2", "--format", "csv"
        )
        assert code == 0
        assert f"# timestamp: {stamp}" in comment_lines(out)


class TestRoundOption:
    def test_more_digits_than_the_default_decimal_context(self, capsys):
        code, out, _ = run(
            capsys, "wilson", "--fictitious", "0.5", "1", "--round", "400",
            "--format", "csv",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["theta_hat"] == "0.5" + "0" * 399
        assert row["n"] == "1." + "0" * 400

    @pytest.mark.parametrize(
        "digits,message",
        [("-1", "--round must be >= 0"), ("1075", "--round must be <= 1074")],
    )
    def test_out_of_range_digits_exit_2(self, capsys, vrag_path, digits, message):
        for argv in (
            ("wilson", "--fictitious", "0.5", "1"),
            ("fit", str(vrag_path)),
            ("coverage", "--n", "2", "--p", "0.5"),
        ):
            code, out, err = run(capsys, *argv, "--round", digits)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"


@pytest.fixture
def parser_builds(monkeypatch):
    """Count build_parser calls, starting from an empty parser memo."""
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    yield builds
    cli._parser.cache_clear()


class TestParserReuse:
    @staticmethod
    def _play(capsys, steps, fresh):
        results = []
        for step in steps:
            if fresh:
                cli._parser.cache_clear()
            results.append(run(capsys, *step))
        return results

    def _reused_equals_fresh(self, capsys, builds, steps):
        reused = self._play(capsys, steps, fresh=False)
        assert len(builds) == 1
        fresh = self._play(capsys, steps, fresh=True)
        assert reused == fresh
        return reused

    def test_parser_is_built_once(self, capsys, parser_builds, vrag_path):
        for _ in range(5):
            assert run(capsys, "wilson", str(vrag_path))[0] == 0
            assert run(capsys, "fit", str(vrag_path), "--format", "csv")[0] == 0
            assert run(capsys, "coverage", "--n", "3", "--p", "0.4")[0] == 0
            assert run(capsys, "refuted", "--mode", "hmc", "--theta", "0.1")[0] == 0
        assert len(parser_builds) == 1

    def test_defaults_do_not_leak_between_calls(
        self, capsys, parser_builds, vrag_path
    ):
        steps = [
            ("fit", str(vrag_path), "--expand", "3", "--format", "csv"),
            ("fit", str(vrag_path), "--format", "csv"),
        ]
        expanded, plain = self._reused_equals_fresh(capsys, parser_builds, steps)
        assert "expand=3" in expanded[1]
        assert "expand=1" in plain[1]

    def test_usage_error_then_valid_call(self, capsys, parser_builds, vrag_path):
        steps = [("fit",), ("wilson", str(vrag_path)), ("--version",), ("nosuch",)]
        results = self._reused_equals_fresh(capsys, parser_builds, steps)
        assert [code for code, _, _ in results] == [2, 0, 0, 2]
        assert results[0][2].startswith("usage: riskbounds fit")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "wilson --fictitious 0.13 167,x",
            "--fictitious expects THETA and a comma-separated n list",
        ),
        ("wilson --fictitious 0.13 ,", "--fictitious n list is empty"),
        ("fit data/vrag_categories.csv --alpha 0.05,x", "bad --alpha list '0.05,x'"),
        ("fit data/vrag_categories.csv --alpha ,", "--alpha list is empty"),
        ("simulate data/scenarios_repeated.cfg --reps 0", "--reps must be >= 1"),
    ],
)
def test_bad_list_or_count_exits_2_with_one_line(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(ROOT)
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        "wilson data/vrag_categories.csv --alpha 1e-17",
        "wilson --fictitious 0.13 10 --alpha 1e-17",
        "fit data/vrag_categories.csv --alpha 1e-17",
        "refuted --mode hmc --theta 0.13 --alpha 1e-17",
        "refuted --mode cm1 --beta0 -2.0 --beta1 0.5 --sigma 1.0 --n 255 "
        "--x-bar 20 --ss-x 5000 --x-new 20 --alpha 1e-17",
        "coverage --n 10 --p 0.2 --level 0.9999999999999999",
    ],
)
def test_alpha_or_level_without_a_quantile_exits_2_naming_it(
    capsys, monkeypatch, argv
):
    # 1 - alpha/2 rounds to 1 (alpha = 1 - level for coverage); the refusal
    # names the flag, not the quantile function's argument
    monkeypatch.chdir(ROOT)
    name, value = argv.split()[-2:]
    edge = 1 if name == "--level" else 0
    message = (
        f"error: {name[2:]} = {value} is too close to {edge}: "
        "its quantile point 1 - alpha/2 rounds to 1\n"
    )
    assert run(capsys, *argv.split()) == (2, "", message)


@pytest.mark.parametrize("level", ["1e-20", "1e-17", "5.551115123125783e-17"])
def test_coverage_level_whose_alpha_rounds_to_1_exits_2_naming_it(capsys, level):
    # 1 - level rounds to 1 at level <= 2**-54: the refusal names the level,
    # not the alpha = 1.0 derived from it
    message = (
        f"error: level = {level} is too close to 0: its alpha = 1 - level "
        "rounds to 1\n"
    )
    argv = ("coverage", "--n", "10", "--p", "0.2", "--level", level)
    assert run(capsys, *argv) == (2, "", message)
    # 2**-53, the smallest power of 2 whose 1 - level is below 1, still runs
    assert run(capsys, *argv[:-1], repr(2.0**-53))[0] == 0


def _fresh_python(code: str) -> str:
    """stdout of ``python -c code`` in a fresh interpreter on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return child.stdout


def test_import_leaves_numpy_random_and_scipy_special_unloaded():
    # both load on first use; at start-up they would add to every CLI call
    stdout = _fresh_python(
        "import sys, riskbounds.cli; "
        "print(sorted({'numpy.random', 'scipy.special'} & set(sys.modules)))"
    )
    assert stdout == "[]\n"


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["wilson", "vrag_categories.csv"], ["numpy"]),
        (["wilson", "--fictitious", "0.13", "167,50,10,5,1"], ["numpy"]),
        # bounds that miss their point by float dust, snapped without numpy
        (["wilson", "--fictitious", "0", "1,2,3,0.5,11,1e-5"], ["numpy"]),
        (["refuted", "--mode", "hmc", "--theta", "0.13"], ["numpy"]),
        (
            ["coverage", "--n", "40", "--p", "0.37"],
            ["riskbounds.identifiability", "riskbounds.logistic"],
        ),
        (["fit", "vrag_categories.csv"], ["riskbounds.identifiability"]),
        # the clustering test's p-value and the threshold cohort need no scipy
        (["simulate", "scenarios_repeated.cfg"], ["riskbounds.logistic", "scipy"]),
        (["simulate", "threshold_demo.cfg"], ["riskbounds.logistic", "scipy"]),
    ],
    ids=[
        "wilson", "fictitious", "fictitious-snap", "hmc", "coverage", "fit",
        "simulate", "threshold",
    ],
)
def test_a_call_loads_only_the_modules_it_uses(argv, unloaded):
    # a command imports the submodules it calls, and numpy only with them;
    # the three commands that touch no array run without numpy, and
    # simulate loads scipy only for single-outcome sections
    argv = [str(ROOT / "data" / a) if a.endswith((".csv", ".cfg")) else a for a in argv]
    stdout = _fresh_python(
        "import contextlib, io, sys\n"
        "from riskbounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, [m for m in {unloaded!r} if m in sys.modules])\n"
    )
    assert stdout == "0 []\n"


@pytest.mark.parametrize(
    "module, name, argv, calls, other",
    [
        ("logistic", "fit_grouped_logistic", ["fit", "vrag_categories.csv"], 1,
         "trend_test"),
        ("identifiability", "simulate_repeated",
         ["simulate", "scenarios_repeated.cfg"], 2, "clustering_test"),
    ],
    ids=["fit", "simulate"],
)
def test_a_name_set_before_the_first_call_is_kept(module, name, argv, calls, other):
    # perfbench/tracing.py replaces riskbounds.cli's names by setattr
    # before any call; loading the submodule on first use must keep them
    argv = [str(ROOT / "data" / a) if a.endswith((".csv", ".cfg")) else a for a in argv]
    stdout = _fresh_python(
        "import contextlib, io, sys\n"
        "from riskbounds import cli\n"
        f"print('riskbounds.{module}' in sys.modules)\n"
        f"from riskbounds import {module} as source\n"
        "calls = []\n"
        "def spy(*args, **kwargs):\n"
        "    calls.append(args)\n"
        f"    return source.{name}(*args, **kwargs)\n"
        f"setattr(cli, {name!r}, spy)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, len(calls), cli.{name} is spy)\n"
        f"print(cli.{other} is source.{other})\n"
    )
    assert stdout.splitlines() == ["False", f"0 {calls} True", "True"]


def test_the_exported_names_of_the_numpy_modules_read_from_cli():
    # before any call, each name the package exports from identifiability
    # and logistic is an attribute of cli, the package's own object; a name
    # the package does not export is not
    stdout = _fresh_python(
        "import riskbounds\n"
        "from riskbounds import cli\n"
        "names = [*riskbounds._EXPORTS['identifiability'],\n"
        "         *riskbounds._EXPORTS['logistic']]\n"
        "same = [getattr(cli, n) is getattr(riskbounds, n) for n in names]\n"
        "print(len(names), all(same))\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert stdout.splitlines() == [
        "26 True", "module 'riskbounds.cli' has no attribute 'no_such_name'"
    ]


def test_import_riskbounds_loads_no_numpy_scipy_or_submodule():
    # names load on first read, and a name loads only its submodule; the
    # submodules resolve as attributes of the bare package
    stdout = _fresh_python(
        "import sys, riskbounds\n"
        "def loaded():\n"
        "    roots = {'numpy', 'scipy', 'riskbounds'}\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "print(loaded())\n"
        "riskbounds.format_fixed\n"
        "print(loaded())\n"
        "for name in ('data', 'identifiability', 'logistic', 'refuted',\n"
        "             'rounding', 'wilson'):\n"
        "    module = getattr(riskbounds, name)\n"
        "    print(module is sys.modules['riskbounds.' + name], module.__name__)\n"
    )
    assert stdout.splitlines() == [
        "['riskbounds']",
        "['riskbounds', 'riskbounds.rounding']",
        "True riskbounds.data",
        "True riskbounds.identifiability",
        "True riskbounds.logistic",
        "True riskbounds.refuted",
        "True riskbounds.rounding",
        "True riskbounds.wilson",
    ]
