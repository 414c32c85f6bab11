import dataclasses
import math
import random
import time

import numpy as np
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
from riskbounds.wilson import CoverageReport, binomial_pmf_array, score_bounds


def interval_for(theta: float, n: float, alpha: float = 0.05) -> IntervalEstimate:
    return wilson_interval(WilsonInput(theta_hat=theta, n=n, alpha=alpha))


def pmf_by_three_gammaln_calls(n: int, p: float) -> np.ndarray:
    """Binomial masses for n >= 2 and 0 < p < 1 by the direct formula:
    ``gammaln`` at n + 1, k + 1 and n - k + 1, and ``math.exp`` on every
    interior log-mass."""
    from scipy.special import gammaln

    masses = np.zeros(n + 1)
    masses[0] = (1.0 - p) ** n
    masses[n] = p**n
    k = np.arange(1, n)
    log_pmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    masses[1:n] = list(map(math.exp, log_pmf.tolist()))
    return masses


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
        # valid is read from the method tag; it cannot be set apart from it
        for method in ("wilson", "logistic_delta", "fictitious_wilson", "cm1_pseudo"):
            estimate = IntervalEstimate(0.5, 0.4, 0.6, 0.95, method)
            assert estimate.valid is (method in ("wilson", "logistic_delta"))
        assert "valid" not in {f.name for f in dataclasses.fields(IntervalEstimate)}
        with pytest.raises(TypeError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "wilson", valid=False)

    def test_rejects_disordered_bounds(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.6, 0.4, 0.95, "wilson")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "bayes")
        # no construction emits a Wald interval, so the tag is not accepted
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "wald")

    def test_valid_interval_must_contain_point(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.9, 0.1, 0.2, 0.95, "wilson")


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


def score_bounds_outcome(theta, n, alpha: float):
    """``score_bounds`` against ``oracles.score_bounds_checked``: the same
    array types, shapes and bytes (sign bits included), or the same
    exception type and message.  Returns the exception type, or None."""
    try:
        expected = oracles.score_bounds_checked(theta, n, alpha)
    except (ArithmeticError, AssertionError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            score_bounds(theta, n, alpha)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return type(exc)
    for got, want in zip(score_bounds(theta, n, alpha), expected):
        assert (type(got), got.shape) == (type(want), want.shape)
        assert got.tobytes() == want.tobytes(), (theta, n, alpha)
    return None


class TestScoreBoundsAcceptOnce:
    """``score_bounds`` skips the snap and order check when every clamped
    bound already contains its point; it must return and raise exactly
    what running them at every call does."""

    LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999999)

    def test_coverage_windows(self):
        rng = random.Random(20)
        sizes = list(range(1, 101))
        sizes += [round(math.exp(rng.uniform(0.0, math.log(1e5)))) for _ in range(40)]
        for n in sizes:
            # the full row reaches k = 0 and k = n, where the clamped bounds
            # miss the point by float dust at 39 of the sizes 1..100, so the
            # snap runs
            assert score_bounds_outcome(np.arange(n + 1) / n, n, 0.05) is None
            for p in (0.0, 1.0, 1e-9, rng.random(), rng.random()):
                for level in self.LEVELS:
                    z = standard_normal_quantile(1.0 - (1.0 - level) / 2.0)
                    half = z * math.sqrt(n * p * (1.0 - p))
                    lo = max(math.floor(n * p - half) - 2, 0)
                    hi = min(math.ceil(n * p + half) + 2, n)
                    theta = np.arange(float(lo), hi + 1.0) / n
                    assert score_bounds_outcome(theta, n, 1.0 - level) is None

    def test_table_proportions(self):
        rng = random.Random(21)
        for _ in range(50):
            totals = [int(10 ** rng.uniform(0.0, 18.0)) for _ in range(20)]
            totals += [2**63 + 2048, 2**64, 10**19]
            events = [rng.choice([0, t, rng.randint(0, t)]) for t in totals]
            theta = np.array([e / t for e, t in zip(events, totals)])
            n = np.array([float(t) for t in totals])
            alpha = rng.choice([0.05, 0.2, 1e-6, rng.random()])
            assert score_bounds_outcome(theta, n, alpha) is None

    @pytest.mark.parametrize(
        "theta,n,alpha,raises",
        [
            (0.0, 11.0, 0.05, None),
            (-0.0, 11.0, 0.05, None),
            (-0.0, 1.0, 0.5, None),
            (1.0, 9.0, 0.05, None),
            (0.13, 167.0, 0.05, None),
            (0.5, 10.5, 0.05, None),
            (0.5, 1e-12, 0.05, None),
            (0.5, 1e-320, 0.05, ZeroDivisionError),
            (0.3, 1e-300, 0.05, ZeroDivisionError),
            # float dust beyond the snap tolerance (the CLI's exit-3 case)
            (0.9999999997808171, 1.6578369151475657e-161, 0.9999999999999994,
             AssertionError),
        ],
    )
    def test_python_floats(self, theta, n, alpha, raises):
        assert score_bounds_outcome(theta, n, alpha) is raises

    @pytest.mark.parametrize(
        "bad,n,raises",
        [
            (math.nan, 1.0, ValueError),
            (math.nan, 4.0, ValueError),
            (-0.1, 1.0, AssertionError),
            (-0.1, 4.0, AssertionError),
            (1.5, 1.0, AssertionError),
        ],
    )
    def test_out_of_contract_theta(self, bad, n, raises):
        theta = np.array([0.2, bad, 0.5, bad])
        assert score_bounds_outcome(theta, n, 0.05) is raises


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

    def test_bit_identical_to_three_gammaln_formula(self):
        subnormal = 0
        for n in (2, 3, 12, 13, 14, 999, 1000, 1001, 1100, 1200, 5000, 10_000):
            for p in (1e-300, 1e-9, 0.003, 0.13, 0.2, 0.5, 0.87, 1 - 1e-9):
                masses = binomial_pmf_array(n, p)
                reference = pmf_by_three_gammaln_calls(n, p)
                assert (masses == reference).all(), (n, p)
                assert (np.signbit(masses) == np.signbit(reference)).all(), (n, p)
                subnormal += int(((0.0 < masses) & (masses < 2.0**-1022)).sum())
        # subnormal masses (2**-1074 to 2**-1022) are where math.exp
        # underflows to +0.0, so the rows must reach them
        assert subnormal > 0

    def test_stays_finite_at_large_n(self):
        mass = binomial_pmf(13_000, 100_000, 0.13)
        assert 0.0 < mass < 1.0

    def test_single_mass_and_slices_equal_the_full_row(self):
        rng = random.Random(16)
        # k = 0 and k = n, p at 0 and 1, a mass that underflows to +0.0
        # (below_cut: under the least subnormal double), a subnormal one and
        # the large-n mass above, then seeded draws
        cases = [(0, 7, 0.3), (7, 7, 0.3), (0, 9, 0.0), (4, 9, 0.0), (9, 9, 1.0),
                 (3, 9, 1.0), (10, 2000, 0.5), (5, 1100, 0.5), (13_000, 100_000, 0.13)]
        for _ in range(60):
            n = round(math.exp(rng.uniform(0.0, math.log(20_000))))
            p = rng.choice([rng.random(), 1e-300, 1e-9, 1 - 1e-9])
            cases.append((rng.randint(0, n), n, p))
        below_cut = subnormal = 0
        for k, n, p in cases:
            full = binomial_pmf_array(n, p)
            mass = binomial_pmf(k, n, p)
            assert type(mass) is float
            assert mass == full[k] and math.copysign(1.0, mass) == 1.0, (k, n, p)
            below_cut += mass == 0.0 and 0.0 < p < 1.0
            subnormal += 0.0 < mass < 2.0**-1022
            lo = rng.randint(0, k)
            hi = rng.randint(k, n)
            window = binomial_pmf_array(n, p, lo, hi)
            assert (window == full[lo : hi + 1]).all(), (lo, hi, n, p)
            assert not np.signbit(window).any()
        assert below_cut and subnormal


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
        for n, p in ((1, 0.2), (10, 0.3), (25, 0.13), (60, 0.5), (5000, 0.003)):
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
            for values in (report.probability, report.lower, report.upper):
                assert all(type(x) is float for x in values)
            assert all(type(flag) is bool for flag in report.covered)
            assert report.per_outcome == tuple(
                CoverageOutcome(k, *outcome) for k, outcome in enumerate(outcomes)
            )
            for outcome in report.per_outcome:
                assert isinstance(outcome.interval, IntervalEstimate)
                assert outcome.interval.method == "wilson"
                assert outcome.interval.valid is True

    def test_outcome_tuples_are_built_on_first_read(self):
        report = exact_coverage(40, 0.37, 0.9)
        lazy = ("probability", "lower", "upper", "covered", "per_outcome")
        assert not set(lazy) & set(vars(report))
        for name in lazy:
            first = getattr(report, name)
            assert len(first) == 41
            assert getattr(report, name) is first

    def test_backing_arrays_are_read_only(self):
        report = exact_coverage(12, 0.3, 0.95)
        for array in report._arrays:
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_reports_of_one_design_compare_and_hash_equal(self):
        first, second = exact_coverage(300, 0.2, 0.9), exact_coverage(300, 0.2, 0.9)
        assert first == second
        assert hash(first) == hash(second)
        assert first != exact_coverage(300, 0.2, 0.95)
        assert repr(first) == (
            f"CoverageReport(n=300, p_true=0.2, level=0.9, coverage={first.coverage!r})"
        )

    def test_per_outcome_probabilities_sum_to_one(self):
        report = exact_coverage(40, 0.37, 0.9)
        assert math.fsum(o.probability for o in report.per_outcome) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_window_equals_full_enumeration(self):
        rng = random.Random(4)
        levels = (0.80, 0.90, 0.95, 0.99)
        sizes = list(range(1, 301))
        sizes += [round(math.exp(rng.uniform(0.0, math.log(1e5)))) for _ in range(30)]
        subnormal = 0
        for n in sizes:
            # p at 0 and 1, within 1e-9 of each, tiny enough for subnormal
            # masses, and one seeded draw
            for p in (0.0, 1.0, 1e-9, 1 - 1e-9, 1e-300, 5e-324, rng.random()):
                masses = binomial_pmf_array(n, p)
                subnormal += int(((0.0 < masses) & (masses < 2.0**-1022)).sum())
                for level in levels:
                    lower, upper = score_bounds(np.arange(n + 1) / n, n, 1.0 - level)
                    covered = (lower <= p) & (p <= upper)
                    full = math.fsum(masses[covered].tolist())
                    assert exact_coverage(n, p, level).coverage == full, (n, p, level)
        assert subnormal > 0

    def test_no_full_array_is_built_until_read(self):
        report = exact_coverage(10_000, 0.3, 0.95)
        assert set(vars(report)) == {"n", "p_true", "level", "coverage"}
        assert len(report._arrays[0]) == 10_001
        assert "_arrays" in vars(report)

    def test_first_read_rechecks_the_coverage(self):
        report = CoverageReport(30, 0.2, 0.95, exact_coverage(30, 0.2, 0.95).coverage)
        assert len(report.covered) == 31
        wrong = CoverageReport(30, 0.2, 0.95, report.coverage + 1e-12)
        with pytest.raises(AssertionError, match="not the windowed"):
            wrong.probability

    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_refuses_n_beyond_memory_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="do not fit in memory"):
            exact_coverage(n, 0.2, 0.95)
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_coverage(0, 0.2, 0.95)
        with pytest.raises(ValueError):
            exact_coverage(10, 1.2, 0.95)
        with pytest.raises(ValueError):
            exact_coverage(10, 0.2, 1.0)
        with pytest.raises(ValueError):  # 1 - level rounds to 1
            exact_coverage(10, 0.2, 1e-20)
