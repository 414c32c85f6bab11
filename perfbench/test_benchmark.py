"""Self-test of the benchmark (not part of the riskbounds test suite).

    python3 -m pytest perfbench -q

from the root of the source tree.  It runs every workload once untraced
and once traced at the shortest length (one pass or cycle), checks that
every named metric comes out with its unit and that spans nest, and feeds
each oracle a deliberately corrupted output that it must flag.  The runs
take about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from riskbounds import cli, identifiability, wilson  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def runs():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _bench(workload, trace)
            assert done.returncode == 0, done.stderr
            report, line = done.stdout.strip().splitlines()[-2:]
            results[workload, trace] = json.loads(report), json.loads(line)
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, listed in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        report, line = runs[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
        assert {m["name"]: m["unit"] for m in listed} == {
            name: value["unit"] for name, value in line["metrics"].items()
        }
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        named = SPEC["workloads"][workload]["metrics"]
        assert {k: v["unit"] for k, v in report["metrics"].items()} == named
    assert all(runs[workload, 0][1]["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(runs, workload):
    checks = runs[workload, 1][0]["span_checks"]
    assert checks["spans"] > 0
    assert checks["nesting_errors"] == 0
    assert checks["min_self_s"] >= 0.0


def test_known_defects_stay_visible(runs):
    report, line = runs["report_batch", 0]
    known = report["known_defects"]
    assert set(known["by_cause"]) == set(oracles.KNOWN_DEFECTS)
    assert 0 < known["tables_set_aside"] < known["tables"]
    assert known["misfired_rows"] > 0
    assert report["metrics"]["error_rate"]["value"] == known["failed_checks"] / known["checks"] > 0
    layers = runs["report_batch", 1][1]["metrics"]
    assert layers["wilson.fictitious_misfire_rows"]["value"] == known["misfired_rows"]
    assert layers["logistic.deviance_rise_tables"]["value"] == known["by_cause"][
        "deviance_rise_at_optimum"
    ]
    for workload in WORKLOADS:
        assert runs[workload, 0][1]["failed"] == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("coverage_grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each oracle flags a corrupted output


def test_cli_oracle_flags_corruption():
    bodies = json.loads((HERE / "cli_bodies.json").read_text(encoding="utf-8"))
    manifest = "riskbounds 0.1.0\nsubcommand: coverage\n\n"
    good = {"stdout": manifest + bodies["coverage"]["stdout"]}
    assert oracles.check_cli_call("coverage", 0, good, bodies["coverage"]) == []
    assert oracles.check_cli_call("coverage", 3, good, bodies["coverage"]) == ["exit_3"]
    perturbed = {"stdout": good["stdout"].replace("coverage: 0.8000", "coverage: 0.8001")}
    assert "anchor_mismatch" in oracles.check_cli_call(
        "coverage", 0, perturbed, bodies["coverage"]
    )
    table = bodies["wilson_table"]
    flipped = {"stdout": manifest + table["stdout"].replace("wilson  true", "wilson  false", 1)}
    assert oracles.check_cli_call("wilson_table", 0, flipped, table) == ["body_mismatch"]


def _coverage_fields(report):
    outcomes = report.per_outcome
    return dict(
        coverage=report.coverage,
        lowers=[o.interval.lower for o in outcomes],
        uppers=[o.interval.upper for o in outcomes],
        covered=[o.covered for o in outcomes],
        probs=[o.probability for o in outcomes],
        methods={o.interval.method for o in outcomes},
    )


def test_coverage_oracle_flags_corruption():
    assert oracles.check_coverage(1, 0.2, 0.95, **_coverage_fields(wilson.exact_coverage(1, 0.2, 0.95))) == []
    fields = _coverage_fields(wilson.exact_coverage(40, 0.3, 0.9))
    assert oracles.check_coverage(40, 0.3, 0.9, **fields) == []
    swapped = dict(fields, lowers=list(fields["lowers"]), uppers=list(fields["uppers"]))
    swapped["lowers"][7], swapped["uppers"][7] = fields["uppers"][7], fields["lowers"][7]
    assert "bounds" in oracles.check_coverage(40, 0.3, 0.9, **swapped)
    assert "label" in oracles.check_coverage(40, 0.3, 0.9, **dict(fields, methods={"wald"}))
    assert "coverage" in oracles.check_coverage(
        40, 0.3, 0.9, **dict(fields, coverage=fields["coverage"] + 1e-6)
    )
    flipped = list(fields["covered"])
    flipped[12] = not flipped[12]
    assert "covered_flag" in oracles.check_coverage(40, 0.3, 0.9, **dict(fields, covered=flipped))


def _cli(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


COUNTS = [(1, 120, 9), (2, 150, 20), (3, 90, 25), (4, 60, 30)]


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "category,total,events\n" + "".join(f"{c},{t},{e}\n" for c, t, e in COUNTS),
        encoding="utf-8",
    )
    return str(path)


def test_wilson_oracle_flags_corruption(table):
    code, out, _ = _cli(["wilson", table, "--format", "csv"])
    assert oracles.check_wilson_csv(COUNTS, code, out) == ([], 0)
    lines = out.splitlines()
    row = lines[-1].split(",")
    row[4], row[5] = row[5], row[4]  # swapped bounds
    swapped = "\n".join(lines[:-1] + [",".join(row)])
    assert oracles.check_wilson_csv(COUNTS, code, swapped)[0] == ["bounds"]
    flipped = out.replace("wilson,true", "fictitious_wilson,false", 1)
    assert oracles.check_wilson_csv(COUNTS, code, flipped) == (["fictitious_misfire"], 1)
    relabelled = out.replace("wilson,true", "wilson,false", 1)
    assert oracles.check_wilson_csv(COUNTS, code, relabelled)[0] == ["label"]


def test_fit_oracle_flags_corruption(table):
    code, out, err = _cli(["fit", table, "--alpha", "0.05,0.20", "--format", "csv"])
    assert oracles.check_fit_csv(COUNTS, code, out, err) == []
    lines = out.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = lines[body[2]].split(",")
    row[5] = f"{float(row[5]) + 0.01:.4f}"  # perturbed fitted risk
    lines[body[2]] = ",".join(row)
    assert "fit_values" in oracles.check_fit_csv(COUNTS, code, "\n".join(lines), err)
    beta = next(tok for tok in out.split() if tok.startswith("beta0="))
    nudged = out.replace(beta, f"beta0={float(beta.split('=')[1]) + 0.01:.4f}")
    assert "score_not_zero" in oracles.check_fit_csv(COUNTS, code, nudged, err)
    stalled = "numerical failure: deviance would not decrease at iteration 4"
    assert oracles.check_fit_csv(COUNTS, 3, "", stalled) == ["deviance_rise_at_optimum"]
    assert oracles.check_fit_csv(COUNTS, 3, "", "slope 51 exceeds 50") == ["numerical_failure"]


def test_separation_is_decided_from_integer_counts():
    assert oracles.finite_mle_exists([(1, 10, 1), (2, 10, 3), (3, 10, 10)])
    assert oracles.finite_mle_exists([(1, 10, 0), (2, 10, 5), (3, 10, 5), (4, 10, 10)])
    quasi = [(1, 10, 0), (2, 10, 0), (3, 10, 4), (4, 10, 10)]
    assert not oracles.finite_mle_exists(quasi)
    assert not oracles.finite_mle_exists([(1, 10, 0), (2, 10, 10)])
    assert not oracles.finite_mle_exists([(1, 10, 0), (2, 10, 0)])
    # a failed fit on data without a finite MLE is the right answer
    assert oracles.check_fit_csv(quasi, 3, "", "slope 51 exceeds 50") == []


def _replication(design, seed, name):
    dist = {
        "all_or_none": identifiability.TwoPointRisk(p1=1.0, w1=0.6, p2=0.0),
        "shared": identifiability.PointRisk(p=0.6),
    }[name]
    data = identifiability.simulate_repeated(identifiability.ScenarioSpec(dist, *design, seed=seed))
    test = identifiability.clustering_test(data, permutation_seed=seed)
    icc = identifiability.icc_estimate(data)
    return (
        data.outcomes,
        (test.statistic, test.df, test.p_value, test.p_value_permutation, test.undefined),
        (icc.value, icc.undefined),
    )


@pytest.mark.parametrize("design", [(10, 5), (6, 5)])
def test_repeated_oracle_flags_corruption(design):
    from worker import POPULATIONS

    for name, population in POPULATIONS.items():
        outcomes, test, icc = _replication(design, 11, name)
        assert oracles.check_repeated(population, *design, 11, outcomes, test, icc) == []
        perturbed = outcomes.copy()
        perturbed[3, 2] = 1 - perturbed[3, 2]
        assert oracles.check_repeated(population, *design, 11, perturbed, test, icc) == [
            "outcome_redraw"
        ]
        wrong = (test[0] + 0.5,) + test[1:]
        assert "statistic" in oracles.check_repeated(population, *design, 11, outcomes, wrong, icc)
        if design == (6, 5) and not test[4]:
            off = test[:3] + (min(1.0, test[3] + 0.2) if test[3] < 0.7 else test[3] - 0.3, False)
            assert "permutation_p" in oracles.check_repeated(
                population, *design, 11, outcomes, off, icc
            )


def test_cohort_oracle_flags_corruption():
    from worker import SimulationStudy

    model = SimulationStudy(0, None).model
    spec = identifiability.ThresholdModelSpec(**model)
    cohort = identifiability.simulate_threshold_cohort(spec, 200, 5)
    outcomes = cohort.outcomes.outcomes[:, 0]
    sample = list(range(0, 200, 9))
    assert oracles.check_cohort(model, 200, 5, outcomes, cohort.latent_risks, sample) == []
    flipped = outcomes.copy()
    flipped[sample[3]] = 1 - flipped[sample[3]]
    assert oracles.check_cohort(model, 200, 5, flipped, cohort.latent_risks, sample) == [
        "outcome_redraw"
    ]
    risks = np.array(cohort.latent_risks)
    risks[sample[5]] += 1e-6
    assert oracles.check_cohort(model, 200, 5, outcomes, risks, sample) == ["latent_risk"]
