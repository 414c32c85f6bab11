"""riskbounds benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a riskbounds source tree (``src/riskbounds`` and
``data/`` must be there; the package need not be installed).  Workloads:

- ``cli_readme``: the README's eight CLI invocations, each in a fresh
  interpreter (``python -m riskbounds.cli`` with ``src`` on PYTHONPATH);
- ``coverage_grid``, ``report_batch``, ``simulation_study``: in-process
  loops driven by ``worker.py`` in a child process.

Each is a closed loop with one client.  ``setup_s`` is the median over
several fresh set-ups of the time from launch to the first timed operation.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from
spans recorded around the calls into each riskbounds module, plus
``trace.overhead_ratio``.  The line before it is a report with every metric
named in ``spec.json``, the per-cause failure counts and the environment;
for ``report_batch`` also the tables set aside at known defects, by cause
(see ``worker.py``).

Everything a run writes goes under ``.bench_tmp/`` in the current directory.
The run's own files are removed at the end; the bytecode cache
(``.bench_tmp/pycache``, used instead of writing into ``src/``) is kept for
later runs.  Exit status 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
from calibrate import NOMINAL_S, reference_time  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
CLI_BODIES_FILE = HERE / "cli_bodies.json"
PYCACHE = Path(".bench_tmp") / "pycache"
SETUP_PROBES = 3
MIN_CYCLES = 3  # of the eight README calls: 24 calls, so the tail is above the median
CALL_TIMEOUT_S = 60.0
SOURCE_DATE_EPOCH = "1700000000"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# the README's eight invocations; {tmp} is the run's scratch directory
INVOCATIONS = {
    "wilson_table": ["wilson", "data/vrag_categories.csv", "--round", "2"],
    "wilson_fictitious": ["wilson", "--fictitious", "0.13", "167,50,10,5,1", "--round", "2"],
    "fit": [
        "fit", "data/vrag_categories.csv", "--alpha", "0.05,0.20",
        "--figure", "{tmp}/figure.csv",
    ],
    "coverage": ["coverage", "--n", "1", "--p", "0.2", "--level", "0.95"],
    "simulate_single": ["simulate", "data/scenarios_single_outcome.cfg"],
    "simulate_repeated": [
        "simulate", "data/scenarios_repeated.cfg", "--outcomes", "{tmp}/outcomes.csv",
    ],
    "refuted_hmc": ["refuted", "--mode", "hmc", "--theta", "0.13"],
    "refuted_cm1": [
        "refuted", "--mode", "cm1", "--beta0", "-2.0", "--beta1", "0.5",
        "--sigma", "1.0", "--n", "255", "--x-bar", "20", "--ss-x", "5000",
        "--x-new", "20",
    ],
}
OUTPUT_FILES = {"fit": "figure.csv", "simulate_repeated": "outcomes.csv"}


class Child:
    """A finished child process: exit code, wall time, peak RSS, launch time."""

    def __init__(self, cmd, env, cwd, stdout, stderr):
        self.launched = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        self.wall_s = time.perf_counter() - self.launched
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux


def child_env(root: Path) -> dict:
    dropped = ("RISKBOUNDS_SEED", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached under .bench_tmp (kept between runs), never in src/
    env["PYTHONPYCACHEPREFIX"] = str(root / PYCACHE)
    return env


def environment(root: Path, env: dict) -> dict:
    cache_state = "warm" if (root / PYCACHE).is_dir() else "cold"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, numpy, scipy; print(json.dumps({'python': sys.version.split()[0],"
         " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"],
        env=env, cwd=root, capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True,
    )
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    record = json.loads(probe.stdout)
    record.update(
        {
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "git_commit": commit,
            "thread_env": {k: env[k] for k in THREAD_ENV},
            "bytecode_cache": {
                "prefix": str(PYCACHE),
                "state_at_start": cache_state,
                "before_timing": "warm (filled by the warm-up call)",
            },
            "source_date_epoch": SOURCE_DATE_EPOCH,
            "riskbounds_seed_env": "unset",
        }
    )
    return record


def bracketed(measure):
    """``(value, reference)``: a set-up time and the reference time around it."""
    before = reference_time()
    value = measure()
    return value, (before + reference_time()) / 2.0


# ---------------------------------------------------------------------------
# cli_readme


def load_cli_bodies() -> dict:
    return json.loads(CLI_BODIES_FILE.read_text(encoding="utf-8"))


def cli_call(key, root, env, tmp, spans=None):
    """Run one README invocation; returns (Child, outputs by name)."""
    argv = [a.replace("{tmp}", str(tmp)) for a in INVOCATIONS[key]]
    for name in OUTPUT_FILES.values():
        (tmp / name).unlink(missing_ok=True)
    if spans is None:
        cmd = [sys.executable, "-m", "riskbounds.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "shim.py"), str(spans), *argv]
    out_path, err_path = tmp / "stdout.txt", tmp / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = Child(cmd, env, root, out, err)
    outputs = {"stdout": out_path.read_text(encoding="utf-8")}
    if key in OUTPUT_FILES:
        path = tmp / OUTPUT_FILES[key]
        if path.exists():
            outputs[OUTPUT_FILES[key]] = path.read_text(encoding="utf-8")
    return child, outputs


def run_cli_readme(root, env, tmp, seed, seconds, trace):
    bodies = load_cli_bodies()
    order = random.Random(seed)
    cli_call("coverage", root, env, tmp)  # warm-up: fills the bytecode cache
    setup = [
        bracketed(lambda: Child([sys.executable, "-c", "import riskbounds"], env, root,
                                subprocess.DEVNULL, subprocess.DEVNULL).wall_s)
        for _ in range(SETUP_PROBES)
    ]
    calls = {False: [], True: []}
    causes: dict[str, int] = {}
    attempted = failed = 0
    spans, metas = [], []
    ref_times = []
    ref_before = reference_time()
    started = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        keys = list(INVOCATIONS)
        order.shuffle(keys)
        for key in keys:
            span_path = tmp / f"spans-{len(spans):04d}.json" if traced else None
            child, outputs = cli_call(key, root, env, tmp, span_path)
            calls[traced].append(child)
            # reference times bracket the call: the one before and the one after
            ref_after = reference_time()
            if not traced:
                ref_times.append((ref_before + ref_after) / 2.0)
            ref_before = ref_after
            if traced:
                spans.append(span_path)
                meta = json.loads(Path(str(span_path) + ".meta").read_text(encoding="utf-8"))
                meta["interpreter_s"] = meta["t_start"] - child.launched
                metas.append(meta)
            call_causes = oracles.check_cli_call(key, child.returncode, outputs, bodies[key])
            attempted += 1
            failed += bool(call_causes)
            for cause in call_causes:
                causes[cause] = causes.get(cause, 0) + 1
        cycle += 1
        if time.perf_counter() - started >= seconds and cycle >= MIN_CYCLES:
            break
    untraced = calls[False]
    latencies = [c.wall_s for c in untraced]
    result = {
        "setup": setup,
        "latencies": latencies,
        "reference": ref_times,
        "work": len(latencies),
        "peak_rss_mb": max(c.peak_rss_mb for c in untraced),
        "attempted": attempted,
        "failed": failed,
        "causes": causes,
    }
    if trace:
        result["traced_latencies"] = [c.wall_s for c in calls[True]]
        result["traced_work"] = len(calls[True])
        result["spans"] = spans
        result["imports"] = metas
    return result


# ---------------------------------------------------------------------------
# in-process workloads


def run_worker(workload, root, env, tmp, seed, seconds, trace):
    def worker(mode, tag):
        out = tmp / f"worker-{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--tmp", str(tmp), "--out", str(out),
        ]
        child = Child(cmd, env, root, subprocess.DEVNULL, None)
        if child.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {child.returncode}")
        data = json.loads(out.read_text(encoding="utf-8"))
        data["setup_s"] = data["t_first"] - child.launched
        data["interpreter_s"] = data["t_start"] - child.launched
        return child, data

    worker("probe", "warm-up")  # fills the bytecode cache
    setup = [
        bracketed(lambda: worker("probe", f"probe{i}")[1]["setup_s"])
        for i in range(SETUP_PROBES)
    ]
    child, result = worker("trace" if trace else "measure", "run")
    result["setup"] = setup
    result["peak_rss_mb"] = child.peak_rss_mb
    if trace:
        result["spans"] = [Path(p) for p in result["spans"]]
        result["imports"] = [result]
    return result


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """Highest percentile with at least ten samples beyond it (rank rule)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result) -> dict:
    """Gated metrics, corrected for the shared machine's speed drift.

    Each operation's latency and each set-up time is divided by the
    reference time measured around it (``calibrate``).  Throughput is then
    per reference time; set-up time is scaled back to seconds at the
    reference's nominal speed.
    """
    relative = sum(t / ref for t, ref in zip(result["latencies"], result["reference"]))
    return {
        "setup_s": statistics.median(t / ref * NOMINAL_S for t, ref in result["setup"]),
        "work_per_ref": result["work"] / relative,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def named_metrics(workload, result) -> dict:
    """Every metric spec.json names for this workload, with its unit."""
    latencies = result["latencies"]
    rate = result["work"] / sum(latencies)
    tail_value, tail_percentile = tail(latencies)
    known = result.get("known_defects")
    if known:  # report_batch: every check on the seeded tables, set-aside ones too
        error_rate = known["failed_checks"] / known["checks"]
    else:
        error_rate = result["failed"] / result["attempted"]
    values = {
        "setup_s": statistics.median(t for t, _ in result["setup"]),
        "error_rate": error_rate,
        "peak_rss_mb": result["peak_rss_mb"],
        "cli_call_median_s": statistics.median(latencies),
        "cli_call_tail_s": tail_value,
        "coverage_outcomes_per_s": rate,
        "report_tables_per_s": rate,
    }
    blocks = result.get("blocks")
    if blocks:
        values["power_reps_per_s"] = blocks["power"][0] / blocks["power"][1]
        values["small_design_reps_per_s"] = blocks["small"][0] / blocks["small"][1]
        values["cohort_people_per_s"] = blocks["cohort"][0] / blocks["cohort"][1]
    named = {}
    for name, unit in SPEC["workloads"][workload]["metrics"].items():
        named[name] = {"value": values[name], "unit": unit}
    if "cli_call_tail_s" in named:
        named["cli_call_tail_s"].update(percentile=tail_percentile, calls=len(latencies))
    return named


def per_layer(result) -> tuple[dict, dict]:
    summary = tracing.summarize(result["spans"])
    layers = tracing.layer_metrics(summary)
    imports = result["imports"]
    layers["import.interpreter_s"] = statistics.median(m["interpreter_s"] for m in imports)
    layers["import.riskbounds_s"] = statistics.median(m["import_s"] for m in imports)
    layers["import.scipy_stats_loaded"] = statistics.mean(
        1.0 if m["scipy_stats_loaded"] else 0.0 for m in imports
    )
    layers["import.modules_loaded"] = statistics.median(m["modules_loaded"] for m in imports)
    untraced = sum(result["latencies"]) / result["work"]
    traced = sum(result["traced_latencies"]) / result["traced_work"]
    layers["trace.overhead_ratio"] = traced / untraced
    known = result.get("known_defects", {})
    layers["wilson.fictitious_misfire_rows"] = known.get("misfired_rows", 0)
    layers["logistic.deviance_rise_tables"] = known.get("by_cause", {}).get(
        "deviance_rise_at_optimum", 0
    )
    checks = {
        "spans": summary["spans"],
        "nesting_errors": summary["nesting_errors"],
        "min_self_s": summary["min_self_s"],
    }
    return layers, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskbounds benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskbounds" / "__init__.py").is_file() or not (
        root / "data"
    ).is_dir():
        print("error: run from the root of a riskbounds source tree", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env(root)
    record = environment(root, env)
    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli_readme":
            result = run_cli_readme(root, env, tmp, args.seed, args.seconds, args.trace)
        else:
            result = run_worker(
                args.workload, root, env, tmp, args.seed, args.seconds, args.trace
            )
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "metrics": named_metrics(args.workload, result),
            "failures_by_cause": result["causes"],
            "environment": record,
        }
        for key in ("known_defects", "passes"):
            if key in result:
                report[key] = result[key]
        correct = result["failed"] == 0
        if args.trace:
            values, checks = per_layer(result)
            report["span_checks"] = checks
            correct = correct and checks["nesting_errors"] == 0 and checks["min_self_s"] >= 0
            wanted = bench["per_layer"]
        else:
            values = end_to_end(result)
            wanted = bench["end_to_end"]
        print(json.dumps(report))
        line = {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
