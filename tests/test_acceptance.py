"""Acceptance gate: ten checks, one pass/fail line per shipped claim.

Run ``pytest tests/test_acceptance.py -v`` for the one-line-per-criterion
report. Tolerances here are part of the package contract: bounds compared
against the published tables allow 0.01 per bound after two-decimal
rounding, percent-scale rows allow one percentage point, and the
equivalence and derivative checks pin hard numerical tolerances. Do not
loosen any of them.
"""

import time

import numpy as np
import pytest

import goldens
import oracles
from riskbounds import (
    PointRisk,
    ScenarioSpec,
    TwoPointRisk,
    WilsonInput,
    clustering_test,
    exact_count_distribution,
    exact_coverage,
    expand_weights,
    fit_grouped_logistic,
    format_fixed,
    marginal_equivalence_check,
    predict_risk,
    simulate_repeated,
    trend_test,
    wilson_interval,
)
from riskbounds.logistic import predict_bounds

BOUND_TOL = 0.01 + 1e-9
PERCENT_TOL = 1.0 + 1e-9


def _printed(x: float, digits: int) -> float:
    """x rounded half away from zero as the CLI prints it, read back."""
    return float(format_fixed(x, digits))


def test_01_category_proportions_and_totals(vrag_table):
    start = time.perf_counter()
    totals = sum(row.total for row in vrag_table.rows)
    events = sum(row.events for row in vrag_table.rows)
    proportions = [row.events / row.total for row in vrag_table.rows]
    elapsed = time.perf_counter() - start
    assert totals == goldens.VRAG_TOTAL_SUBJECTS
    assert events == goldens.VRAG_TOTAL_EVENTS
    for got, expected in zip(proportions, goldens.VRAG_PROPORTIONS_2DP):
        assert _printed(got, 2) == pytest.approx(expected, abs=1e-12)
    assert elapsed < 1.0


def test_02_published_interval_tables(vrag_table, vrag_fit):
    start = time.perf_counter()
    for row, (lo, hi) in zip(vrag_table.rows, goldens.WILSON_95_BOUNDS):
        est = wilson_interval(
            WilsonInput(theta_hat=row.events / row.total, n=row.total, alpha=0.05)
        )
        assert abs(_printed(est.lower, 2) - lo) <= BOUND_TOL
        assert abs(_printed(est.upper, 2) - hi) <= BOUND_TOL
    for alpha, table in (
        (0.05, goldens.LOGISTIC_95_BOUNDS),
        (0.20, goldens.LOGISTIC_80_BOUNDS),
    ):
        for row, (lo, hi) in zip(vrag_table.rows, table):
            pred = predict_risk(vrag_fit, row.category, alpha)
            assert abs(_printed(pred.interval.lower, 2) - lo) <= BOUND_TOL
            assert abs(_printed(pred.interval.upper, 2) - hi) <= BOUND_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_03_percent_scale_small_sample_rows():
    for n, events, lo_pct, hi_pct in goldens.PERCENT_SWEEP:
        theta = events / n if events is not None else 0.13
        est = wilson_interval(WilsonInput(theta_hat=theta, n=n, alpha=0.05))
        assert abs(est.lower * 100.0 - lo_pct) <= PERCENT_TOL
        assert abs(est.upper * 100.0 - hi_pct) <= PERCENT_TOL


def test_04_large_sample_interval_one_decimal():
    n, events, lo_pct, hi_pct = goldens.LARGE_SAMPLE_ROW
    est = wilson_interval(WilsonInput(theta_hat=events / n, n=n, alpha=0.05))
    assert _printed(est.lower * 100.0, 1) == pytest.approx(lo_pct, abs=1e-9)
    assert _printed(est.upper * 100.0, 1) == pytest.approx(hi_pct, abs=1e-9)


def test_05_single_draw_coverage_is_exactly_080():
    report = exact_coverage(1, 0.2, 0.95)
    assert report.coverage == goldens.COVERAGE_N1_P02


def test_06_trend_is_overwhelming(vrag_fit):
    result = trend_test(vrag_fit)
    assert result.p_value < 1e-4


def test_07_equal_mean_mixtures_are_indistinguishable():
    spec_a = ScenarioSpec(PointRisk(0.6), sample_size=2)
    spec_b = ScenarioSpec(TwoPointRisk(p1=1.0, w1=0.6, p2=0.0), sample_size=2)
    for spec in (spec_a, spec_b):
        dist = exact_count_distribution(spec)
        assert dist == pytest.approx(list(goldens.SINGLE_OUTCOME_N2), abs=1e-12)
    assert marginal_equivalence_check(spec_a, spec_b, n=2) < 1e-12

    rng = np.random.default_rng(418)
    for trial in range(50):
        mu = rng.uniform(0.05, 0.95)
        p1 = rng.uniform(mu, 1.0)
        p2 = rng.uniform(0.0, mu)
        w1 = (mu - p2) / (p1 - p2)
        mixture = TwoPointRisk(p1=p1, w1=w1, p2=p2)
        if trial % 2 == 0:
            other = PointRisk(mu)
        else:
            q1 = rng.uniform(mu, 1.0)
            q2 = rng.uniform(0.0, mu)
            other = TwoPointRisk(p1=q1, w1=(mu - q2) / (q1 - q2), p2=q2)
        n = int(rng.integers(1, 13))
        tv = marginal_equivalence_check(
            ScenarioSpec(mixture, sample_size=2),
            ScenarioSpec(other, sample_size=2),
            n=n,
        )
        assert tv < 1e-12


def test_08_repeated_design_separates_the_scenarios():
    start = time.perf_counter()
    seeds = range(1000, 2000)
    rejections_b = 0
    rejections_a = 0
    for seed in seeds:
        spec_b = ScenarioSpec(
            TwoPointRisk(p1=1.0, w1=0.6, p2=0.0), sample_size=10, repeats=5, seed=seed
        )
        if clustering_test(simulate_repeated(spec_b)).p_value < 0.05:
            rejections_b += 1
        spec_a = ScenarioSpec(PointRisk(0.6), sample_size=10, repeats=5, seed=seed)
        if clustering_test(simulate_repeated(spec_a)).p_value < 0.05:
            rejections_a += 1
    elapsed = time.perf_counter() - start
    assert rejections_b >= 990
    assert 30 <= rejections_a <= 80
    assert elapsed < 30.0


def test_09_count_replication_narrows_intervals(vrag_table):
    # what `fit --expand K` prints: the widths at K = 100 over those at K = 1
    widths = []
    for k in (1, 100):
        fit = fit_grouped_logistic(expand_weights(vrag_table, k))
        _, lower, upper = predict_bounds(fit, vrag_table.categories, 0.05)
        widths.append(upper - lower)
    ratios = widths[1] / widths[0]
    assert len(ratios) == 9
    for ratio in ratios:
        assert 0.095 <= ratio <= 0.105


def test_10_likelihood_derivatives_check_out(vrag_table, vrag_fit):
    # the reference formulas; tests/test_logistic.py ties the fit's own
    # score and deviance to them bit for bit
    score, log_likelihood = oracles.table_score, oracles.table_log_likelihood
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(10):
        beta0 = rng.uniform(-5.0, 1.0)
        beta1 = rng.uniform(-1.0, 1.5)
        analytic = score(vrag_table, beta0, beta1)
        numeric = np.array(
            [
                (
                    log_likelihood(vrag_table, beta0 + h, beta1)
                    - log_likelihood(vrag_table, beta0 - h, beta1)
                )
                / (2.0 * h),
                (
                    log_likelihood(vrag_table, beta0, beta1 + h)
                    - log_likelihood(vrag_table, beta0, beta1 - h)
                )
                / (2.0 * h),
            ]
        )
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1.0)
        assert np.all(rel < 1e-4)
    residual = score(vrag_table, vrag_fit.beta0, vrag_fit.beta1)
    assert np.max(np.abs(residual)) < 1e-8
