import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from riskbounds import (
    CoverageOutcome,
    IntervalEstimate,
    WilsonInput,
    binomial_pmf,
    exact_coverage,
    standard_normal_quantile,
    wilson_interval,
)
from riskbounds.wilson import binomial_pmf_array


def interval_for(theta: float, n: float, alpha: float = 0.05) -> IntervalEstimate:
    return wilson_interval(WilsonInput(theta_hat=theta, n=n, alpha=alpha))


def coverage_by_scalar_calls(n: int, p: float, level: float):
    """Coverage and per-outcome (probability, interval, covered), built one k
    at a time from the scalar interval.  ``binomial_pmf(k, n, p)`` is element
    k of ``binomial_pmf_array(n, p)``, so the masses come from one call."""
    outcomes = []
    masses = binomial_pmf_array(n, p).tolist()
    for k in range(n + 1):
        est = interval_for(k / n, n, 1.0 - level)
        outcomes.append((masses[k], est, est.lower <= p <= est.upper))
    return math.fsum(prob for prob, _, covered in outcomes if covered), outcomes


class TestNormalQuantile:
    def test_frozen_values(self):
        assert standard_normal_quantile(0.975) == goldens.Z_975
        assert standard_normal_quantile(0.90) == goldens.Z_90

    def test_agrees_with_independent_route(self):
        for p in (0.01, 0.1, 0.5, 0.9, 0.975, 0.999):
            assert standard_normal_quantile(p) == pytest.approx(
                oracles.normal_quantile(p), abs=1e-12
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            standard_normal_quantile(p)


class TestIntervalEstimate:
    def test_valid_flag_is_tied_to_method(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "wilson", valid=False)
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "fictitious_wilson", valid=True)

    def test_rejects_disordered_bounds(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.6, 0.4, 0.95, "wilson", valid=True)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "bayes", valid=True)
        # no construction emits a Wald interval, so the tag is not accepted
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "wald", valid=True)

    def test_valid_interval_must_contain_point(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.9, 0.1, 0.2, 0.95, "wilson", valid=True)


class TestWilsonInterval:
    def test_golden_two_decimal_bounds(self, vrag_table):
        for row, (lo, hi) in zip(vrag_table.rows, goldens.WILSON_95_BOUNDS):
            est = interval_for(row.proportion, row.total)
            assert est.method == "wilson"
            assert est.valid
            assert abs(est.lower - lo) <= 0.01 + 1e-9
            assert abs(est.upper - hi) <= 0.01 + 1e-9

    def test_integral_design_is_tagged_real(self):
        est = interval_for(14 / 107, 107)
        assert est.method == "wilson"
        assert est.valid and est.note is None

    def test_fractional_event_count_is_tagged_fictitious(self):
        est = interval_for(0.13, 50)
        assert est.method == "fictitious_wilson"
        assert not est.valid
        assert "no such design" in est.note

    def test_fractional_n_is_tagged_fictitious(self):
        est = interval_for(0.5, 10.5)
        assert est.method == "fictitious_wilson"
        assert not est.valid

    @pytest.mark.parametrize(
        "theta,n",
        [(0.5, 1e-12), (0.5, 1e-9), (0.0, 1.0 - 1e-10), (1.0, 1.0 - 1e-10), (0.0, 0.5)],
    )
    def test_sample_size_below_one_is_tagged_fictitious(self, theta, n):
        # n and theta*n within 1e-9 of integers, but no design has n < 1
        est = interval_for(theta, n)
        assert est.method == "fictitious_wilson"
        assert not est.valid

    def test_sample_size_one_is_real(self):
        for theta in (0.0, 1.0):
            assert interval_for(theta, 1.0).method == "wilson"

    def test_degenerate_proportions(self):
        at_zero = interval_for(0.0, 11)
        assert at_zero.lower == 0.0
        assert at_zero.upper == pytest.approx(0.2588329669680317, abs=1e-12)
        at_one = interval_for(1.0, 9)
        assert at_one.upper == 1.0
        # symmetry: the interval at theta and 1-theta mirror each other
        assert at_one.lower == pytest.approx(
            1.0 - interval_for(0.0, 9).upper, abs=1e-12
        )

    @settings(deadline=None, max_examples=200)
    @given(
        events=st.integers(min_value=0, max_value=400),
        extra=st.integers(min_value=0, max_value=400),
        alpha=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_bounds_solve_defining_quadratic(self, events, extra, alpha):
        n = events + extra + 1
        est = interval_for(events / n, n, alpha)
        z = oracles.normal_quantile(1.0 - alpha / 2.0)
        for bound in (est.lower, est.upper):
            residual = (est.point - bound) ** 2 - z * z * bound * (
                1.0 - bound
            ) / n
            assert abs(residual) < 1e-9

    @settings(deadline=None, max_examples=200)
    @given(
        events=st.integers(min_value=0, max_value=400),
        extra=st.integers(min_value=0, max_value=400),
    )
    def test_bounds_within_unit_interval_and_contain_point(self, events, extra):
        n = events + extra + 1
        est = interval_for(events / n, n)
        assert 0.0 <= est.lower <= est.point <= est.upper <= 1.0

    def test_agrees_with_root_finding_oracle(self):
        z = oracles.normal_quantile(0.975)
        for theta, n in ((0.13, 1.0), (0.13, 167.0), (0.5, 30.0), (0.0, 11.0)):
            lo, hi = oracles.wilson_bounds_by_roots(theta, n, z)
            est = interval_for(theta, n)
            assert est.lower == pytest.approx(max(lo, 0.0), abs=1e-12)
            assert est.upper == pytest.approx(min(hi, 1.0), abs=1e-12)

    def test_width_shrinks_with_n(self):
        widths = [interval_for(0.13, n).width for n in (1, 5, 10, 50, 167, 1e5)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            WilsonInput(theta_hat=1.2, n=10, alpha=0.05)
        with pytest.raises(ValueError):
            WilsonInput(theta_hat=0.5, n=0, alpha=0.05)
        with pytest.raises(ValueError):
            WilsonInput(theta_hat=0.5, n=10, alpha=1.0)
        with pytest.raises(ValueError):
            WilsonInput(theta_hat=0.5, n=math.inf, alpha=0.05)


class TestBinomialPmf:
    def test_edge_masses_are_exact_powers(self):
        assert binomial_pmf(0, 1, 0.2) == 0.8
        assert binomial_pmf(1, 1, 0.2) == 0.2
        assert binomial_pmf(0, 2, 0.5) == 0.25
        assert binomial_pmf(3, 3, 0.5) == 0.125

    def test_degenerate_p(self):
        assert binomial_pmf(0, 5, 0.0) == 1.0
        assert binomial_pmf(3, 5, 0.0) == 0.0
        assert binomial_pmf(5, 5, 1.0) == 1.0
        assert binomial_pmf(4, 5, 1.0) == 0.0

    def test_out_of_support(self):
        assert binomial_pmf(-1, 5, 0.4) == 0.0
        assert binomial_pmf(6, 5, 0.4) == 0.0

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_matches_comb_formula_and_sums_to_one(self, n, p):
        masses = [binomial_pmf(k, n, p) for k in range(n + 1)]
        for k, mass in enumerate(masses):
            direct = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
            assert mass == pytest.approx(direct, rel=1e-12, abs=1e-300)
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_stays_finite_at_large_n(self):
        mass = binomial_pmf(13_000, 100_000, 0.13)
        assert 0.0 < mass < 1.0


class TestExactCoverage:
    def test_single_trial_low_risk_coverage_is_exact(self):
        report = exact_coverage(1, 0.2, 0.95)
        assert report.coverage == goldens.COVERAGE_N1_P02
        k0, k1 = report.per_outcome
        assert k0.covered and not k1.covered
        assert k0.interval.upper == pytest.approx(
            goldens.COVERAGE_N1_P02_K0_UPPER, abs=1e-15
        )
        assert k1.interval.lower == pytest.approx(
            goldens.COVERAGE_N1_P02_K1_LOWER, abs=1e-15
        )

    def test_single_trial_even_risk_always_covered(self):
        assert exact_coverage(1, 0.5, 0.95).coverage == 1.0

    def test_agrees_with_root_finding_oracle(self):
        for n, p in ((1, 0.2), (10, 0.3), (25, 0.13), (60, 0.5)):
            assert exact_coverage(n, p, 0.95).coverage == pytest.approx(
                oracles.coverage_by_roots(n, p, 0.95), abs=1e-12
            )

    def test_large_n_coverage_approaches_nominal(self):
        report = exact_coverage(2000, 0.13, 0.95)
        assert abs(report.coverage - 0.95) < 0.01

    def test_equals_scalar_construction_bit_for_bit(self):
        rng = random.Random(401)
        levels = (0.80, 0.90, 0.95, 0.99)
        cases = [(1, 0.2, 0.95), (10_000, 0.2, 0.9), (4096, rng.random(), 0.95)]
        for n in (1, 2, 37):
            cases += [(n, p, rng.choice(levels)) for p in (0.0, 0.2, 1.0)]
        for _ in range(12):
            n = round(math.exp(rng.uniform(0.0, math.log(10_000))))
            cases.append((n, rng.random(), rng.choice(levels)))
        for n, p, level in cases:
            report = exact_coverage(n, p, level)
            coverage, outcomes = coverage_by_scalar_calls(n, p, level)
            assert report.coverage == coverage, (n, p, level)
            fields = zip(report.probability, report.lower, report.upper, report.covered)
            assert list(fields) == [
                (prob, est.lower, est.upper, covered) for prob, est, covered in outcomes
            ], (n, p, level)
            assert all(type(flag) is bool for flag in report.covered)
            assert report.per_outcome == tuple(
                CoverageOutcome(k, *outcome) for k, outcome in enumerate(outcomes)
            )
            for outcome in report.per_outcome:
                assert isinstance(outcome.interval, IntervalEstimate)
                assert outcome.interval.method == "wilson"
                assert outcome.interval.valid is True

    def test_per_outcome_probabilities_sum_to_one(self):
        report = exact_coverage(40, 0.37, 0.9)
        assert math.fsum(o.probability for o in report.per_outcome) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_coverage(0, 0.2, 0.95)
        with pytest.raises(ValueError):
            exact_coverage(10, 1.2, 0.95)
        with pytest.raises(ValueError):
            exact_coverage(10, 0.2, 1.0)
        with pytest.raises(ValueError):  # 1 - level rounds to 1
            exact_coverage(10, 0.2, 1e-20)
