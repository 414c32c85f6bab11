"""Spans around the calls into each riskbounds module, recorded from outside.

A ``Tracer`` keeps spans in flat in-memory arrays (start, end, name,
parent span, operation id) and writes them out once, at the end of a run.
``install`` replaces each public function at the name its caller looks up
(``riskbounds.wilson.wilson_interval`` for ``exact_coverage``,
``riskbounds.cli.format_fixed`` for rendering, ...) with a recording
wrapper.  ``summarize`` reads the written files back, computes self times
from the parent links and checks that every span nests inside its parent.

Only the standard library is imported at module level, so the benchmark's
parent process can aggregate spans without importing numpy or riskbounds.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

# span name -> (module, attribute) call sites it wraps
SPAN_SITES = {
    "cli.main": [("riskbounds.cli", "main")],
    "cli.build_parser": [("riskbounds.cli", "build_parser")],
    "cli.render": [("riskbounds.cli", "render_table")],
    "rounding.format_fixed": [("riskbounds.cli", "format_fixed")],
    "data.parse": [("riskbounds.cli", "parse_category_table")],
    "wilson.interval": [
        ("riskbounds.wilson", "wilson_interval"),
        ("riskbounds.cli", "wilson_interval"),
        ("riskbounds.refuted", "wilson_interval"),
    ],
    "wilson.pmf": [
        ("riskbounds.wilson", "binomial_pmf"),
        ("riskbounds.identifiability", "binomial_pmf"),
    ],
    "wilson.coverage": [
        ("riskbounds.wilson", "exact_coverage"),
        ("riskbounds.cli", "exact_coverage"),
    ],
    "logistic.fit": [("riskbounds.cli", "fit_grouped_logistic")],
    "logistic.predict": [
        ("riskbounds.cli", "predict_risk"),
        ("riskbounds.logistic", "predict_risk"),
    ],
    "refuted.interval": [
        ("riskbounds.cli", "hmc_individual_interval"),
        ("riskbounds.cli", "cm1_pseudo_interval"),
    ],
    "identifiability.simulate_repeated": [
        ("riskbounds.identifiability", "simulate_repeated"),
        ("riskbounds.cli", "simulate_repeated"),
    ],
    "identifiability.clustering_test": [
        ("riskbounds.identifiability", "clustering_test"),
        ("riskbounds.cli", "clustering_test"),
    ],
    "identifiability.icc": [
        ("riskbounds.identifiability", "icc_estimate"),
        ("riskbounds.cli", "icc_estimate"),
    ],
    "identifiability.threshold_cohort": [
        ("riskbounds.identifiability", "simulate_threshold_cohort"),
        ("riskbounds.cli", "simulate_threshold_cohort"),
    ],
    "identifiability.exact_count": [
        ("riskbounds.identifiability", "exact_count_distribution"),
        ("riskbounds.cli", "exact_count_distribution"),
    ],
}


class Tracer:
    """In-memory span store; one per process, active only in traced runs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.op = 0
        self.enabled = True

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Return ``fn`` wrapped so each call records one span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, ops, stack = self.parents, self.ops, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def write(self, path: Path) -> None:
        """Write the spans as ``path`` (JSON header) plus ``path.bin``."""
        header = {
            "names": self.names,
            "counts": self.counts,
            "spans": len(self.starts),
        }
        path.write_text(json.dumps(header), encoding="utf-8")
        with open(str(path) + ".bin", "wb") as fh:
            for arr in (self.starts, self.ends, self.name_ids, self.parents, self.ops):
                arr.tofile(fh)


def _count_hooks(tracer: Tracer) -> dict:
    """Counters recorded at the same boundaries as the spans."""

    def render(result, args):
        columns, rows = args[0], args[1]
        tracer.count("cli.render_cells", len(columns) * len(rows))

    def parsed(result, args):
        tracer.count("data.rows_parsed", len(result.rows))

    def fitted(result, args):
        tracer.count("logistic.newton_iterations", result.iterations)

    def fit_failed(exc):
        tracer.count("logistic.fit_failures")
        trace = getattr(exc, "trace", None)
        if trace:
            tracer.count("logistic.newton_iterations", len(trace) - 1)

    def simulated(result, args):
        tracer.count("identifiability.people_simulated", result.n_individuals)

    def tested(result, args):
        if result.p_value_permutation is not None:
            tracer.count("identifiability.permutation_routes")

    def cohort(result, args):
        tracer.count("identifiability.cohort_people", result.outcomes.n_individuals)

    return {
        "cli.render": (render, None),
        "data.parse": (parsed, None),
        "logistic.fit": (fitted, fit_failed),
        "identifiability.simulate_repeated": (simulated, None),
        "identifiability.clustering_test": (tested, None),
        "identifiability.threshold_cohort": (cohort, None),
    }


def install(tracer: Tracer) -> None:
    """Wrap every call site in SPAN_SITES; riskbounds must be importable."""
    import argparse
    import importlib

    hooks = _count_hooks(tracer)
    for name, sites in SPAN_SITES.items():
        on_result, on_error = hooks.get(name, (None, None))
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if getattr(original, "__wrapped_by_perfbench__", False):
                continue
            setattr(module, attr, tracer.wrap(name, original, on_result, on_error))
    # ``main`` calls parse_args on the parser that build_parser returns
    parse_args = argparse.ArgumentParser.parse_args
    if not getattr(parse_args, "__wrapped_by_perfbench__", False):
        argparse.ArgumentParser.parse_args = tracer.wrap("cli.parse_args", parse_args)


def _read(path: Path):
    header = json.loads(path.read_text(encoding="utf-8"))
    n = header["spans"]
    arrays = [array(code) for code in ("d", "d", "i", "i", "i")]
    with open(str(path) + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def summarize(paths: list[Path]) -> dict:
    """Per-span-name totals, self times and counts over all span files.

    Returns ``{"inclusive": {name: s}, "self": {name: s}, "calls": {name:
    n}, "counts": {key: n}, "spans": n, "nesting_errors": n,
    "min_self_s": s}``.  A nesting error is a span that starts before or
    ends after its parent.
    """
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    total_spans = 0
    nesting_errors = 0
    min_self = 0.0
    for path in paths:
        header, (starts, ends, name_ids, parents, _ops) = _read(path)
        names = header["names"]
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        n = len(starts)
        total_spans += n
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                if starts[i] < starts[p] or ends[i] > ends[p]:
                    nesting_errors += 1
                child_time[p] += ends[i] - starts[i]
        for i in range(n):
            name = names[name_ids[i]]
            dur = ends[i] - starts[i]
            own = dur - child_time[i]
            min_self = min(min_self, own)
            inclusive[name] = inclusive.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
    return {
        "inclusive": inclusive,
        "self": self_time,
        "calls": calls,
        "counts": counts,
        "spans": total_spans,
        "nesting_errors": nesting_errors,
        "min_self_s": min_self,
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """Map a span summary onto the benchmark's per-layer metric names."""
    inc, own, calls, counts = (
        summary["inclusive"],
        summary["self"],
        summary["calls"],
        summary["counts"],
    )

    def s(name):
        return inc.get(name, 0.0)

    return {
        "cli.parse_args_s": s("cli.build_parser") + s("cli.parse_args"),
        "cli.render_s": s("cli.render"),
        "cli.render_cells": counts.get("cli.render_cells", 0),
        "cli.main_self_s": own.get("cli.main", 0.0),
        "rounding.format_s": s("rounding.format_fixed"),
        "rounding.format_calls": calls.get("rounding.format_fixed", 0),
        "data.parse_s": s("data.parse"),
        "data.rows_parsed": counts.get("data.rows_parsed", 0),
        "wilson.interval_s": s("wilson.interval"),
        "wilson.interval_calls": calls.get("wilson.interval", 0),
        "wilson.pmf_s": s("wilson.pmf"),
        "wilson.pmf_calls": calls.get("wilson.pmf", 0),
        "wilson.coverage_self_s": own.get("wilson.coverage", 0.0),
        "logistic.fit_s": s("logistic.fit"),
        "logistic.fit_calls": calls.get("logistic.fit", 0),
        "logistic.newton_iterations": counts.get("logistic.newton_iterations", 0),
        "logistic.fit_failures": counts.get("logistic.fit_failures", 0),
        "logistic.predict_s": s("logistic.predict"),
        "refuted.interval_s": s("refuted.interval"),
        "refuted.calls": calls.get("refuted.interval", 0),
        "identifiability.simulate_repeated_s": s("identifiability.simulate_repeated"),
        "identifiability.people_simulated": counts.get(
            "identifiability.people_simulated", 0
        ),
        "identifiability.clustering_test_s": s("identifiability.clustering_test"),
        "identifiability.permutation_routes": counts.get(
            "identifiability.permutation_routes", 0
        ),
        "identifiability.icc_s": s("identifiability.icc"),
        "identifiability.threshold_cohort_s": s("identifiability.threshold_cohort"),
        "identifiability.cohort_people": counts.get("identifiability.cohort_people", 0),
        "identifiability.exact_count_s": s("identifiability.exact_count"),
    }
