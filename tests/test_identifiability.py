import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from riskbounds import (
    BetaRisk,
    InputError,
    PointRisk,
    RepeatedOutcomes,
    ScenarioSpec,
    ThresholdModelSpec,
    ThresholdScenario,
    TwoPointRisk,
    binomial_pmf,
    clustering_test,
    exact_count_distribution,
    icc_estimate,
    latent_risk,
    marginal_equivalence_check,
    read_scenario_config,
    simulate_repeated,
    simulate_threshold_cohort,
)

SCENARIO_A = ScenarioSpec(PointRisk(0.6), sample_size=2)
SCENARIO_B = ScenarioSpec(TwoPointRisk(p1=1.0, w1=0.6, p2=0.0), sample_size=2)


def chi2_survival(stat: float, df: int) -> float:
    """Upper chi-square tail at 50 digits, independent of scipy."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))


@st.composite
def discrete_mixtures(draw):
    n_atoms = draw(st.integers(min_value=1, max_value=2))
    if n_atoms == 1:
        return PointRisk(draw(st.floats(min_value=0.0, max_value=1.0)))
    return TwoPointRisk(
        p1=draw(st.floats(min_value=0.0, max_value=1.0)),
        w1=draw(st.floats(min_value=0.0, max_value=1.0)),
        p2=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


class TestExactCountDistribution:
    def test_matched_mean_scenarios_share_one_distribution(self):
        dist_a = exact_count_distribution(SCENARIO_A)
        dist_b = exact_count_distribution(SCENARIO_B)
        for dist in (dist_a, dist_b):
            assert dist == pytest.approx([0.16, 0.48, 0.36], abs=1e-12)
        assert float(0.5 * np.abs(dist_a - dist_b).sum()) < 1e-12

    def test_matches_enumeration_oracle(self):
        for mixture, n in (
            (PointRisk(0.6), 2),
            (TwoPointRisk(1.0, 0.6, 0.0), 2),
            (TwoPointRisk(0.9, 0.25, 0.1), 7),
            (PointRisk(0.13), 8),
        ):
            dist = exact_count_distribution(
                ScenarioSpec(mixture, sample_size=n)
            )
            enum = oracles.count_distribution_enumerated(list(mixture.atoms()), n)
            assert oracles.total_variation(list(dist), enum) < 1e-12

    def test_beta_mixture_matches_quadrature_oracle(self):
        dist = exact_count_distribution(ScenarioSpec(BetaRisk(3.0, 7.0), 6))
        quad = oracles.count_distribution_quadrature(3.0, 7.0, 6)
        assert oracles.total_variation(list(dist), quad) < 1e-12

    def test_rejects_repeated_designs(self):
        with pytest.raises(InputError):
            exact_count_distribution(ScenarioSpec(PointRisk(0.5), 2, repeats=3))

    @pytest.mark.parametrize("mu", [0.0, 1.0, 0.2, 0.5, 0.13, 1e-300, 1.0 - 2.0**-53])
    def test_equals_scalar_pmf_bit_for_bit(self, mu):
        for n in (1, 2, 7, 40, 997):
            dist = exact_count_distribution(ScenarioSpec(PointRisk(mu), n))
            assert dist.tolist() == [binomial_pmf(k, n, mu) for k in range(n + 1)]

    @settings(deadline=None, max_examples=100)
    @given(mixture=discrete_mixtures(), n=st.integers(min_value=1, max_value=40))
    def test_is_a_probability_vector(self, mixture, n):
        dist = exact_count_distribution(ScenarioSpec(mixture, sample_size=n))
        assert dist.shape == (n + 1,)
        assert np.all(dist >= 0.0)
        assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)


class TestMarginalEquivalence:
    def test_equal_mean_mixtures_are_indistinguishable(self):
        assert marginal_equivalence_check(SCENARIO_A, SCENARIO_B, 2) < 1e-12
        beta = ScenarioSpec(BetaRisk(3.0, 7.0), 1)
        point = ScenarioSpec(PointRisk(0.3), 1)
        assert marginal_equivalence_check(beta, point, 9) < 1e-12

    def test_strict_mode_rejects_unequal_means(self):
        lo = ScenarioSpec(PointRisk(0.3), 1)
        hi = ScenarioSpec(PointRisk(0.4), 1)
        with pytest.raises(InputError):
            marginal_equivalence_check(lo, hi, 5)

    def test_non_strict_mode_reports_the_gap(self):
        lo = ScenarioSpec(PointRisk(0.3), 1)
        hi = ScenarioSpec(PointRisk(0.4), 1)
        assert marginal_equivalence_check(lo, hi, 1, strict=False) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_rejects_repeated_designs(self):
        repeated = ScenarioSpec(PointRisk(0.6), 2, repeats=5)
        with pytest.raises(InputError):
            marginal_equivalence_check(repeated, SCENARIO_B, 2)

    @settings(deadline=None, max_examples=50)
    @given(
        mean=st.floats(min_value=0.05, max_value=0.95),
        w1=st.floats(min_value=0.05, max_value=0.95),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_every_equal_mean_pair_collapses(self, mean, w1, n):
        # spread the mean over two atoms: p1 scaled so w1*p1 + 0 = mean
        p1 = min(mean / w1, 1.0)
        if p1 == 1.0:
            w1 = mean  # keep the mixture mean exactly equal to `mean`
        two_point = ScenarioSpec(TwoPointRisk(p1=p1, w1=w1, p2=0.0), 1)
        point = ScenarioSpec(PointRisk(mean), 1)
        assert marginal_equivalence_check(point, two_point, n) < 1e-12


class TestSimulateRepeated:
    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(BetaRisk(2.0, 5.0), 8, repeats=4, seed=11)
        first = simulate_repeated(spec)
        second = simulate_repeated(spec)
        assert np.array_equal(first.outcomes, second.outcomes)

    def test_seed_changes_the_draw(self):
        base = ScenarioSpec(PointRisk(0.5), 10, repeats=5, seed=0)
        other = ScenarioSpec(PointRisk(0.5), 10, repeats=5, seed=1)
        assert not np.array_equal(
            simulate_repeated(base).outcomes, simulate_repeated(other).outcomes
        )

    def test_shape_and_ids(self):
        data = simulate_repeated(ScenarioSpec(PointRisk(0.4), 6, repeats=3, seed=2))
        assert data.outcomes.shape == (6, 3)
        assert data.individual_ids == tuple(range(6))
        assert set(np.unique(data.outcomes)) <= {0, 1}

    def test_all_or_none_mixture_gives_constant_rows(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.6, 0.0), 12, repeats=6, seed=3)
        rows = simulate_repeated(spec).outcomes
        sums = rows.sum(axis=1)
        assert np.all((sums == 0) | (sums == 6))

    def test_outcomes_are_read_only(self):
        data = simulate_repeated(ScenarioSpec(PointRisk(0.4), 3, repeats=2, seed=4))
        with pytest.raises(ValueError):
            data.outcomes[0, 0] = 1


class TestScenarioSpecType:
    def test_rejects_bool_sample_size(self):
        with pytest.raises(InputError):
            ScenarioSpec(PointRisk(0.5), sample_size=True)

    def test_rejects_bool_repeats(self):
        with pytest.raises(InputError):
            ScenarioSpec(PointRisk(0.5), 2, repeats=True)


class TestRepeatedOutcomesType:
    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            RepeatedOutcomes((0, 1), np.array([[0, 2], [1, 0]]))

    def test_rejects_mismatched_ids(self):
        with pytest.raises(InputError):
            RepeatedOutcomes((0,), np.array([[0, 1], [1, 0]]))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(InputError):
            RepeatedOutcomes((0, 1), np.array([0, 1]))


class TestClusteringTest:
    def test_all_or_none_cohort_is_detected(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.6, 0.0), 10, repeats=5, seed=42)
        result = clustering_test(simulate_repeated(spec))
        # every row is 0/5 or 5/5, which maximizes the statistic at n*m
        assert result.statistic == pytest.approx(50.0, abs=1e-9)
        assert result.df == 9
        assert result.p_value == pytest.approx(1.077238202257473e-07, rel=1e-9)
        assert not result.undefined
        assert result.p_value_permutation is None  # 50 observations >= 40

    def test_homogeneous_cohort_is_not_flagged(self):
        spec = ScenarioSpec(PointRisk(0.6), 10, repeats=5, seed=42)
        result = clustering_test(simulate_repeated(spec))
        assert result.statistic == pytest.approx(16.18357487922705, rel=1e-12)
        assert result.p_value == pytest.approx(0.0631456279234644, rel=1e-12)
        assert result.p_value > 0.05

    def test_statistic_matches_contingency_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = rng.integers(0, 2, size=(8, 6))
            counts = rows.sum(axis=1)
            if counts.sum() in (0, 48):
                continue
            data = RepeatedOutcomes(tuple(range(8)), rows)
            result = clustering_test(data)
            expected = oracles.homogeneity_statistic_contingency(counts, 6)
            assert result.statistic == pytest.approx(expected, rel=1e-10)

    def test_p_value_matches_chi2_tail(self):
        spec = ScenarioSpec(PointRisk(0.6), 10, repeats=5, seed=42)
        result = clustering_test(simulate_repeated(spec))
        assert result.p_value == pytest.approx(
            chi2_survival(result.statistic, result.df), rel=1e-10
        )

    def test_degenerate_pooled_proportion_is_undefined(self):
        data = RepeatedOutcomes((0, 1, 2), np.zeros((3, 4), dtype=int))
        result = clustering_test(data)
        assert result.undefined
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_small_designs_get_a_permutation_p_value(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.5, 0.0), 5, repeats=4, seed=11)
        result = clustering_test(simulate_repeated(spec))
        assert result.p_value_permutation is not None
        assert result.p_value_permutation < 0.01
        # permutation route is seeded, so it reproduces exactly
        again = clustering_test(simulate_repeated(spec))
        assert again.p_value_permutation == result.p_value_permutation

    def test_permutation_p_for_homogeneous_small_design_is_large(self):
        spec = ScenarioSpec(PointRisk(0.5), 5, repeats=4, seed=12)
        result = clustering_test(simulate_repeated(spec))
        assert result.p_value_permutation is not None
        assert result.p_value_permutation > 0.2

    def test_add_one_rule_keeps_permutation_p_positive(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.5, 0.0), 5, repeats=4, seed=11)
        result = clustering_test(simulate_repeated(spec), permutations=100)
        assert result.p_value_permutation >= 1.0 / 101.0

    def test_rejects_degenerate_designs(self):
        with pytest.raises(InputError):
            clustering_test(RepeatedOutcomes((0,), np.array([[0, 1]])))
        with pytest.raises(InputError):
            clustering_test(RepeatedOutcomes((0, 1), np.array([[0], [1]])))


class TestIccEstimate:
    def test_perfectly_consistent_individuals(self):
        data = RepeatedOutcomes(
            (0, 1, 2), np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]])
        )
        assert icc_estimate(data).value == pytest.approx(1.0, abs=1e-12)

    def test_all_or_none_simulated_cohort(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.6, 0.0), 10, repeats=5, seed=42)
        assert icc_estimate(simulate_repeated(spec)).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_perfect_churn_hits_the_lower_bound(self):
        data = RepeatedOutcomes((0, 1), np.array([[0, 1], [1, 0]]))
        estimate = icc_estimate(data)
        # lower bound is -1/(m-1) = -1 for m = 2
        assert estimate.value == pytest.approx(-1.0, abs=1e-12)

    def test_constant_outcomes_are_undefined(self):
        data = RepeatedOutcomes((0, 1), np.ones((2, 3), dtype=int))
        estimate = icc_estimate(data)
        assert estimate.undefined
        assert math.isnan(estimate.value)

    def test_matches_hand_computed_anova(self):
        rows = np.array([[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 0]])
        data = RepeatedOutcomes((0, 1, 2), rows)
        n, m = rows.shape
        y = rows.astype(float)
        row_means = y.mean(axis=1)
        grand = y.mean()
        ms_between = m * ((row_means - grand) ** 2).sum() / (n - 1)
        ms_within = ((y - row_means[:, None]) ** 2).sum() / (n * (m - 1))
        expected = (ms_between - ms_within) / (ms_between + (m - 1) * ms_within)
        assert icc_estimate(data).value == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_cohort_estimate_is_near_zero(self):
        spec = ScenarioSpec(PointRisk(0.6), 10, repeats=5, seed=42)
        estimate = icc_estimate(simulate_repeated(spec))
        assert estimate.value == pytest.approx(0.18393782383419688, rel=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_estimate_stays_in_range(self, seed):
        spec = ScenarioSpec(BetaRisk(0.5, 0.5), 8, repeats=4, seed=seed)
        estimate = icc_estimate(simulate_repeated(spec))
        if not estimate.undefined:
            assert -1.0 / 3.0 - 1e-12 <= estimate.value <= 1.0 + 1e-12

    def test_rejects_degenerate_designs(self):
        with pytest.raises(InputError):
            icc_estimate(RepeatedOutcomes((0,), np.array([[0, 1]])))
        with pytest.raises(InputError):
            icc_estimate(RepeatedOutcomes((0, 1), np.array([[0], [1]])))


class TestThresholdModel:
    BASE = ThresholdModelSpec(
        threshold_location=0.5,
        threshold_spread=1.0,
        fluctuation_sd=0.5,
        provocation_rate=2.0,
        strength_location=0.0,
        strength_spread=1.0,
        follow_up=1.0,
    )

    def test_zero_rate_means_zero_risk(self):
        spec = ThresholdModelSpec(0.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0)
        assert latent_risk(spec, 0.3) == 0.0
        cohort = simulate_threshold_cohort(spec, 50, seed=1)
        assert cohort.outcomes.outcomes.sum() == 0
        assert cohort.latent_risks.max() == 0.0

    def test_certain_exceedance_gives_poisson_survival(self):
        spec = ThresholdModelSpec(0.0, 0.0, 0.0, 2.0, 10.0, 0.0, 1.5)
        expected = -math.expm1(-2.0 * 1.5)
        assert latent_risk(spec, 0.0) == pytest.approx(expected, rel=1e-15)
        cohort = simulate_threshold_cohort(spec, 2000, seed=2)
        assert np.unique(cohort.latent_risks) == pytest.approx([expected])

    def test_sharp_threshold_cases(self):
        sharp = ThresholdModelSpec(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
        # strength equal to the threshold: exceedance probability one half
        assert latent_risk(sharp, 0.0) == pytest.approx(
            -math.expm1(-0.5), rel=1e-15
        )
        # threshold far above any strength: no events
        assert latent_risk(sharp, 5.0) == 0.0

    def test_closed_form_uses_combined_spread(self):
        q = 0.5 * math.erfc(
            -(self.BASE.strength_location - 0.5)
            / (math.hypot(1.0, 0.5) * math.sqrt(2.0))
        )
        expected = -math.expm1(-2.0 * 1.0 * q)
        assert latent_risk(self.BASE, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_observed_frequency_tracks_mean_latent_risk(self):
        cohort = simulate_threshold_cohort(self.BASE, 20_000, seed=3)
        mean_risk = cohort.latent_risks.mean()
        observed = cohort.outcomes.outcomes.mean()
        # three Monte Carlo standard deviations of the observed frequency
        sd = math.sqrt(
            float(np.sum(cohort.latent_risks * (1.0 - cohort.latent_risks)))
        ) / 20_000
        assert abs(observed - mean_risk) < 3.0 * sd

    def test_deterministic_per_seed(self):
        first = simulate_threshold_cohort(self.BASE, 100, seed=9)
        second = simulate_threshold_cohort(self.BASE, 100, seed=9)
        assert np.array_equal(first.outcomes.outcomes, second.outcomes.outcomes)
        assert np.array_equal(first.latent_risks, second.latent_risks)

    def test_spread_creates_heterogeneous_risks(self):
        cohort = simulate_threshold_cohort(self.BASE, 200, seed=4)
        assert np.std(cohort.latent_risks) > 0.01

    def test_validation(self):
        with pytest.raises(InputError):
            ThresholdModelSpec(0.0, 1.0, 0.5, -1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            ThresholdModelSpec(0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InputError):
            ThresholdModelSpec(0.0, -1.0, 0.5, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            simulate_threshold_cohort(self.BASE, 0, seed=1)


class TestScenarioConfig:
    def test_reads_mixture_sections(self, data_dir):
        text = (data_dir / "scenarios_single_outcome.cfg").read_text()
        specs = read_scenario_config(text)
        assert set(specs) == {"scenario_a", "scenario_b"}
        a, b = specs["scenario_a"], specs["scenario_b"]
        assert isinstance(a.risk_distribution, PointRisk)
        assert isinstance(b.risk_distribution, TwoPointRisk)
        assert a.sample_size == b.sample_size == 2
        assert a.repeats == b.repeats == 1

    def test_reads_threshold_sections(self, data_dir):
        text = (data_dir / "threshold_demo.cfg").read_text()
        specs = read_scenario_config(text)
        (scenario,) = specs.values()
        assert isinstance(scenario, ThresholdScenario)
        assert scenario.cohort_size == 500
        assert scenario.seed == 7
        assert scenario.model.provocation_rate == 2.0

    def test_seed_override_beats_section_seed(self, data_dir):
        text = (data_dir / "scenarios_repeated.cfg").read_text()
        specs = read_scenario_config(text, seed_override=99)
        assert all(spec.seed == 99 for spec in specs.values())

    def test_fallback_seed_fills_missing_seeds_only(self):
        text = "[has_seed]\ndistribution = point\np = 0.5\nsample_size = 4\nseed = 3\n\n[no_seed]\ndistribution = point\np = 0.5\nsample_size = 4\n"
        specs = read_scenario_config(text, fallback_seed=17)
        assert specs["has_seed"].seed == 3
        assert specs["no_seed"].seed == 17

    def test_inline_comments_are_stripped(self):
        text = "[s]\ndistribution = point  # shared risk\np = 0.5\nsample_size = 4\n"
        specs = read_scenario_config(text)
        assert specs["s"].risk_distribution == PointRisk(0.5)

    def test_unknown_distribution_rejected(self):
        text = "[s]\ndistribution = cauchy\nsample_size = 4\n"
        with pytest.raises(InputError):
            read_scenario_config(text)

    def test_section_without_kind_rejected(self):
        with pytest.raises(InputError):
            read_scenario_config("[s]\nsample_size = 4\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(InputError):
            read_scenario_config("[s]\ndistribution = point\np = 0.5\n")

    def test_empty_config_rejected(self):
        with pytest.raises(InputError):
            read_scenario_config("")

    def test_malformed_ini_rejected(self):
        with pytest.raises(InputError):
            read_scenario_config("not an ini file at all\n")
