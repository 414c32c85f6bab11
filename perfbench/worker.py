"""One benchmark process for the in-process workloads.

Run by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed S
--seconds T --mode probe|measure|trace --tmp DIR --out FILE``.  It imports
riskbounds, builds the seeded inputs, makes one warm-up call, and then:

- ``probe``: stops there; the parent times launch to first timed operation;
- ``measure``: runs whole passes over the inputs as a closed loop with one
  client until ``--seconds`` have passed, timing each operation;
- ``trace``: alternates untraced and traced passes, writing the spans.

Outputs are checked by ``oracles`` after each operation, outside its timed
region.  The first pass is checked in full; later passes must repeat the
first pass's outputs exactly.  The result is written to ``--out`` as JSON.

``report_batch`` first runs and checks every seeded table once, untimed, as
part of its set-up.  Tables whose only failures are known defects
(``oracles.KNOWN_DEFECTS``) are set aside and reported by cause; the timed
loop runs the rest, so none of its operations fails at a known defect.  A
table with any other failure stays in the timed loop and counts as failed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import configparser  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

LEVELS = (0.80, 0.90, 0.95, 0.99)
EDGE_P = (0.0, 0.2, 1.0)
COVERAGE_POOL = 96  # p uniform on (0, 1)
EDGE_DRAWS = 4  # per edge value of p
TABLE_COPIES = 5  # tables per strata count 2..40
ROUNDS = 40
POWER_REPS = 32
COHORT_RANGE = (300, 900)
SAMPLED_POWER_REPS = 8
SAMPLED_PEOPLE = 16
REFERENCE_EVERY_S = 0.02  # time calibrate.reference_work this often
POWER_DESIGN = (10, 5)  # README repeated-measures design, asymptotic route
SMALL_DESIGN = (6, 5)  # 30 observations < 40: permutation route
POPULATIONS = {
    "all_or_none": {"kind": "two_point", "p1": 1.0, "w1": 0.6, "p2": 0.0},
    "shared": {"kind": "point", "p": 0.6},
}


def _log_uniform_ints(rng, low, high, count):
    """Stratified log-uniform integers: one draw per equal-width log stratum."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return [int(round(math.exp(math.log(low) + u_i * math.log(high / low)))) for u_i in u]


class CoverageGrid:
    """exact_coverage over seeded (n, p, level) draws; work unit = outcome."""

    def __init__(self, seed, tmp):
        import numpy as np

        from riskbounds import wilson

        self.wilson = wilson
        rng = np.random.default_rng(seed)
        draws = [(n, float(p)) for n, p in zip(
            _log_uniform_ints(rng, 1, 10_000, COVERAGE_POOL), rng.random(COVERAGE_POOL)
        )]
        for p in EDGE_P:  # each edge gets its own stratified sizes
            draws += [(n, p) for n in _log_uniform_ints(rng, 1, 10_000, EDGE_DRAWS)]
        levels = [LEVELS[i % len(LEVELS)] for i in rng.permutation(len(draws))]
        order = rng.permutation(len(draws))
        # the published anchor: one draw at p = 0.2 is covered with probability 0.8
        self.pool = [(1, 0.2, 0.95)] + [draws[i] + (levels[i],) for i in order]

    def work(self, op):
        return op[0] + 1

    def run(self, op):
        return self.wilson.exact_coverage(*op)

    def check(self, op, report):
        outcomes = report.per_outcome
        from oracles import check_coverage

        causes = check_coverage(
            *op,
            coverage=report.coverage,
            lowers=[o.interval.lower for o in outcomes],
            uppers=[o.interval.upper for o in outcomes],
            covered=[o.covered for o in outcomes],
            probs=[o.probability for o in outcomes],
            methods={o.interval.method for o in outcomes},
        )
        return [("exact_coverage", causes)]

    def signature(self, report):
        return report.coverage


class ReportBatch:
    """cli.main wilson + fit on seeded tables; work unit = table (both calls)."""

    def __init__(self, seed, tmp):
        import numpy as np

        from riskbounds import cli

        self.cli = cli
        rng = np.random.default_rng(seed)
        folder = Path(tmp) / "tables"
        folder.mkdir(parents=True, exist_ok=True)
        strata = rng.permutation(np.repeat(np.arange(2, 41), TABLE_COPIES))
        self.pool = []
        for i, k in enumerate(strata):
            cats = np.arange(1, k + 1)
            totals = np.array(_log_uniform_ints(rng, 10, 10**9, k), dtype=np.int64)
            slope = rng.uniform(-1.0, 1.0) * 6.0 / k
            eta = rng.uniform(-2.0, 1.0) + slope * (cats - (k + 1) / 2.0)
            events = rng.binomial(totals, 1.0 / (1.0 + np.exp(-eta)))
            counts = [(int(c), int(t), int(e)) for c, t, e in zip(cats, totals, events)]
            path = folder / f"table{i:03d}.csv"
            path.write_text(
                "category,total,events\n" + "".join(f"{c},{t},{e}\n" for c, t, e in counts),
                encoding="utf-8",
            )
            self.pool.append((str(path), counts))
        self.known_defects = self._set_aside_known_defects()

    def _set_aside_known_defects(self):
        """Run and check every table once; keep in the pool only the tables
        that do not fail at a known defect alone."""
        from oracles import KNOWN_DEFECTS

        record = {
            "tables": len(self.pool), "tables_set_aside": 0, "rows": 0,
            "misfired_rows": 0, "checks": 0, "failed_checks": 0, "by_cause": {},
        }
        kept = []
        for op in self.pool:
            checks, misfired = self._checks(op, self.run(op))
            record["rows"] += len(op[1])
            record["misfired_rows"] += misfired
            causes = set()
            for _, op_causes in checks:
                record["checks"] += 1
                record["failed_checks"] += bool(op_causes)
                causes.update(op_causes)
            for cause in causes:
                record["by_cause"][cause] = record["by_cause"].get(cause, 0) + 1
            if causes and causes <= set(KNOWN_DEFECTS):
                record["tables_set_aside"] += 1
            else:
                kept.append(op)
        if not kept:
            raise RuntimeError("every table failed at a known defect")
        self.pool = kept
        return record

    def work(self, op):
        return 1

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed call
                code = f"exception_{type(exc).__name__}"
        return code, out.getvalue(), err.getvalue()

    def run(self, op):
        path = op[0]
        return (
            self._call(["wilson", path, "--format", "csv"]),
            self._call(["fit", path, "--alpha", "0.05,0.20", "--format", "csv"]),
        )

    def _checks(self, op, outputs):
        from oracles import check_fit_csv, check_wilson_csv

        counts = op[1]
        (w_code, w_out, _), (f_code, f_out, f_err) = outputs
        w_causes, misfired = check_wilson_csv(counts, w_code, w_out)
        return [
            ("wilson", w_causes),
            ("fit", check_fit_csv(counts, f_code, f_out, f_err)),
        ], misfired

    def check(self, op, outputs):
        return self._checks(op, outputs)[0]

    def signature(self, outputs):
        return outputs


class SimulationStudy:
    """Rounds of power replications, one small-design replication and one
    threshold cohort; work unit = round."""

    def __init__(self, seed, tmp):
        import numpy as np

        from riskbounds import identifiability as ident

        self.ident = ident
        self.np = np
        rng = np.random.default_rng(seed)
        self.specs = {
            "all_or_none": ident.TwoPointRisk(p1=1.0, w1=0.6, p2=0.0),
            "shared": ident.PointRisk(p=0.6),
        }
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(Path("data") / "threshold_demo.cfg", encoding="utf-8")
        section = parser["threshold_cohort"]
        self.model = {
            key: section.getfloat(key)
            for key in (
                "threshold_location", "threshold_spread", "fluctuation_sd",
                "provocation_rate", "strength_location", "strength_spread",
                "follow_up",
            )
        }
        self.model_spec = ident.ThresholdModelSpec(**self.model)
        base = int(rng.integers(0, 2**31))
        cohort_sizes = _log_uniform_ints(rng, *COHORT_RANGE, ROUNDS)
        self.pool = [
            {
                "power_seeds": [base + r * POWER_REPS + j for j in range(POWER_REPS)],
                "small_seed": base + ROUNDS * POWER_REPS + r,
                "cohort": (cohort_sizes[r], base + (ROUNDS + 1) * POWER_REPS + r),
                "sampled": sorted(
                    rng.choice(POWER_REPS, SAMPLED_POWER_REPS, replace=False).tolist()
                ),
            }
            for r in range(ROUNDS)
        ]
        self.blocks = {"power": [0, 0.0], "small": [0, 0.0], "cohort": [0, 0.0]}

    def work(self, op):
        return 1

    def _replicate(self, design, seed, permutation_seed=0):
        ident = self.ident
        results = []
        for name, dist in self.specs.items():
            data = ident.simulate_repeated(ident.ScenarioSpec(dist, *design, seed=seed))
            test = ident.clustering_test(data, permutation_seed=permutation_seed)
            icc = ident.icc_estimate(data)
            results.append((name, data, test, icc))
        return results

    def run(self, op):
        clock = time.perf_counter
        t0 = clock()
        power = [self._replicate(POWER_DESIGN, s) for s in op["power_seeds"]]
        t1 = clock()
        small = self._replicate(SMALL_DESIGN, op["small_seed"], op["small_seed"])
        t2 = clock()
        size, seed = op["cohort"]
        cohort = self.ident.simulate_threshold_cohort(self.model_spec, size, seed)
        t3 = clock()
        for key, count, spent in (
            ("power", len(power), t1 - t0),
            ("small", 1, t2 - t1),
            ("cohort", size, t3 - t2),
        ):
            self.blocks[key][0] += count
            self.blocks[key][1] += spent
        return power, small, cohort

    def check(self, op, outputs):
        from oracles import check_cohort, check_repeated

        power, small, cohort = outputs
        checks = []
        replications = [(POWER_DESIGN, op["power_seeds"][j], power[j]) for j in op["sampled"]]
        replications.append((SMALL_DESIGN, op["small_seed"], small))
        for design, seed, results in replications:
            for name, data, test, icc in results:
                causes = check_repeated(
                    POPULATIONS[name],
                    *design,
                    seed,
                    data.outcomes,
                    (test.statistic, test.df, test.p_value, test.p_value_permutation, test.undefined),
                    (icc.value, icc.undefined),
                )
                checks.append(("replication", causes))
        size, seed = op["cohort"]
        rng = self.np.random.default_rng(seed)
        sample = rng.choice(size, SAMPLED_PEOPLE, replace=False)
        checks.append(
            (
                "cohort",
                check_cohort(
                    self.model, size, seed, cohort.outcomes.outcomes[:, 0],
                    cohort.latent_risks, sample,
                ),
            )
        )
        return checks

    def signature(self, outputs):
        power, small, cohort = outputs
        return (
            [[(t.statistic, t.p_value) for _, _, t, _ in rep] for rep in power],
            [(t.statistic, t.p_value_permutation) for _, _, t, _ in small],
            int(cohort.outcomes.outcomes.sum()),
            float(cohort.latent_risks.sum()),
        )


WORKLOADS = {
    "coverage_grid": CoverageGrid,
    "report_batch": ReportBatch,
    "simulation_study": SimulationStudy,
}


def run_passes(workload, seconds, tracer):
    """Closed loop over whole passes; returns per-op timings and check results.

    With a tracer, passes alternate untraced / traced (at least one each).
    """
    from calibrate import time_reference  # imported after riskbounds was timed

    clock = time.perf_counter
    latencies = {False: [], True: []}
    reference = [time_reference()]
    op_reference = []  # index of the reference time measured last before each op
    last_reference = clock()
    work = {False: 0, True: 0}
    attempted = 0
    causes: dict[str, int] = {}
    first = []
    started = clock()
    n_pass = 0
    op_id = 0
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        for i, op in enumerate(workload.pool):
            op_id += 1
            if tracer is not None:
                tracer.op = op_id
            if clock() - last_reference >= REFERENCE_EVERY_S:
                reference.append(time_reference())
                last_reference = clock()
            t0 = clock()
            out = workload.run(op)
            latencies[traced].append(clock() - t0)
            if not traced:
                op_reference.append(len(reference) - 1)
            work[traced] += workload.work(op)
            if n_pass == 0:
                checks = workload.check(op, out)
                first.append((workload.signature(out), checks))
            else:
                checks = first[i][1]
                if workload.signature(out) != first[i][0]:
                    checks = checks + [("repeat", ["nondeterministic"])]
            del out  # free the result here, not inside the next op's timing
            for _, op_causes in checks:
                attempted += 1
                for cause in op_causes or []:
                    causes[cause] = causes.get(cause, 0) + 1
                if op_causes:
                    causes["_failed"] = causes.get("_failed", 0) + 1
        n_pass += 1
        if clock() - started >= seconds and (tracer is None or n_pass >= 2):
            break
    if tracer is not None:
        tracer.enabled = False
    failed = causes.pop("_failed", 0)
    reference.append(time_reference())
    return {
        "latencies": latencies[False],
        # the mean of the reference times measured just before and after each op
        "reference": [(reference[j] + reference[j + 1]) / 2.0 for j in op_reference],
        "work": work[False],
        "traced_latencies": latencies[True],
        "traced_work": work[True],
        "passes": n_pass,
        "attempted": attempted,
        "failed": failed,
        "causes": causes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import riskbounds  # noqa: F401
    import riskbounds.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    result = {
        "t_start": T_START,
        "import_s": import_s,
        "modules_loaded": len(sys.modules),
        "scipy_stats_loaded": "scipy.stats" in sys.modules,
    }
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.enabled = False
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.run(workload.pool[0])  # warm-up, not timed or counted
    if isinstance(workload, SimulationStudy):
        workload.blocks = {key: [0, 0.0] for key in workload.blocks}
    result["t_first"] = time.perf_counter()
    if args.mode != "probe":
        result.update(run_passes(workload, args.seconds, tracer))
        if isinstance(workload, ReportBatch):
            result["known_defects"] = workload.known_defects
        if isinstance(workload, SimulationStudy):
            result["blocks"] = workload.blocks
    if tracer is not None:
        spans = Path(args.tmp) / "spans-worker.json"
        tracer.write(spans)
        result["spans"] = [str(spans)]
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
