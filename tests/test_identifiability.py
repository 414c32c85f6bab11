import dataclasses
import inspect
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from riskbounds import (
    BetaRisk,
    IccEstimate,
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
from riskbounds import identifiability
from riskbounds.identifiability import (
    _child_words,
    _permutation_table,
    _person_uniforms,
    _substream_states,
)

SCENARIO_A = ScenarioSpec(PointRisk(0.6), sample_size=2)
SCENARIO_B = ScenarioSpec(TwoPointRisk(p1=1.0, w1=0.6, p2=0.0), sample_size=2)


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
        # each mixture with its (risk, weight) atoms
        for mixture, atoms, n in (
            (PointRisk(0.6), [(0.6, 1.0)], 2),
            (TwoPointRisk(1.0, 0.6, 0.0), [(1.0, 0.6), (0.0, 0.4)], 2),
            (TwoPointRisk(0.9, 0.25, 0.1), [(0.9, 0.25), (0.1, 0.75)], 7),
            (PointRisk(0.13), [(0.13, 1.0)], 8),
        ):
            dist = exact_count_distribution(
                ScenarioSpec(mixture, sample_size=n)
            )
            enum = oracles.count_distribution_enumerated(atoms, n)
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
        # one row per person, in person order: row i is person i's draw
        data = simulate_repeated(ScenarioSpec(PointRisk(0.4), 6, repeats=3, seed=2))
        assert data.outcomes.shape == (6, 3)
        assert data.n_individuals == 6 and data.n_repeats == 3
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

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="^seed must be an integer >= 0, got -1$"):
            ScenarioSpec(PointRisk(0.5), 2, seed=-1)

    @pytest.mark.parametrize(
        "p1,w1,p2,message",
        [
            (1.5, 2.0, -1.0, r"p1 must be in \[0,1\], got 1.5"),
            (0.5, 2.0, -1.0, r"p2 must be in \[0,1\], got -1.0"),
            (0.5, 2.0, 0.5, r"w1 must be in \[0,1\], got 2.0"),
        ],
    )
    def test_two_point_risk_names_its_first_value_out_of_range(
        self, p1, w1, p2, message
    ):
        # p1, then p2, then w1
        with pytest.raises(InputError, match=f"^{message}$"):
            TwoPointRisk(p1=p1, w1=w1, p2=p2)


class TestRepeatedOutcomesType:
    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            RepeatedOutcomes(np.array([[0, 2], [1, 0]]))

    def test_rejects_fractions_instead_of_truncating_them(self):
        with pytest.raises(InputError, match="0 or 1"):
            RepeatedOutcomes([[0.5, 1.0], [0.9, 0.0]])

    def test_accepts_whole_floats_and_bools_as_int64(self):
        data = RepeatedOutcomes([[0.0, 1.0], [True, False]])
        assert data.outcomes.dtype == np.int64
        assert data.outcomes.tolist() == [[0, 1], [1, 0]]

    def test_holds_the_outcomes_alone(self):
        # row i is person i: no id column to keep in step with the rows
        assert [f.name for f in dataclasses.fields(RepeatedOutcomes)] == ["outcomes"]
        data = RepeatedOutcomes(np.zeros((4, 2), dtype=bool))
        assert (data.n_individuals, data.n_repeats) == (4, 2)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(InputError):
            RepeatedOutcomes(np.array([0, 1]))

    def test_rejects_zero_repeats(self):
        with pytest.raises(
            InputError, match="^each individual needs at least one observation$"
        ):
            RepeatedOutcomes(np.zeros((3, 0), dtype=int))


def _permutation_route_reference(
    data: RepeatedOutcomes, permutation_seed: int
) -> tuple[float, float, int]:
    """clustering_test's statistic and permutation p-value as first built:
    10,000 shuffles of a tiled copy of the outcomes, summed over the inner
    axis, with exceedance decided on the float statistic less 1e-12.  Also
    returns how many shuffles counted only through that allowance (ties
    whose statistic rounded below the observed one)."""
    permutations = 10_000
    n, m = data.outcomes.shape
    counts = data.outcomes.sum(axis=1)
    p_hat = float(counts.sum()) / (n * m)
    expected = m * p_hat
    stat = float(np.sum((counts - expected) ** 2) / (m * p_hat * (1.0 - p_hat)))
    rng = np.random.default_rng(permutation_seed)
    flat = np.tile(data.outcomes.ravel(), (permutations, 1))
    shuffled = rng.permuted(flat, axis=1).reshape(permutations, n, m)
    perm_counts = shuffled.sum(axis=2)
    perm_stats = ((perm_counts - expected) ** 2).sum(axis=1) / (
        m * p_hat * (1.0 - p_hat)
    )
    exceed = int(np.sum(perm_stats >= stat - 1e-12))
    rescued = int(np.sum((perm_stats < stat) & (perm_stats >= stat - 1e-12)))
    return stat, (1 + exceed) / (1 + permutations), rescued


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
            data = RepeatedOutcomes(rows)
            result = clustering_test(data)
            expected = oracles.homogeneity_statistic_contingency(counts, 6)
            assert result.statistic == pytest.approx(expected, rel=1e-10)

    def test_p_value_matches_chi2_tail(self):
        spec = ScenarioSpec(PointRisk(0.6), 10, repeats=5, seed=42)
        result = clustering_test(simulate_repeated(spec))
        assert result.p_value == pytest.approx(
            oracles.chi2_survival(result.statistic, result.df), rel=1e-10
        )

    def test_degenerate_pooled_proportion_is_undefined(self):
        data = RepeatedOutcomes(np.zeros((3, 4), dtype=int))
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
        result = clustering_test(simulate_repeated(spec))
        assert result.p_value_permutation >= 1.0 / 10_001.0
        # the shuffle count is fixed: every p-value is (1 + exceed) / 10,001
        assert result.p_value_permutation in {(1 + e) / 10_001 for e in range(10_001)}

    def test_shuffle_count_is_not_a_parameter(self):
        assert list(inspect.signature(clustering_test).parameters) == [
            "data",
            "permutation_seed",
        ]
        data = simulate_repeated(ScenarioSpec(PointRisk(0.5), 5, repeats=4, seed=12))
        with pytest.raises(TypeError):
            clustering_test(data, 0, 100)

    # (5, 6) and (12, 3) share their n*m, and so their kept table, with
    # (6, 5) and (3, 12)
    @pytest.mark.parametrize(
        "design", [(6, 5), (2, 2), (13, 3), (3, 12), (5, 6), (12, 3)]
    )
    def test_permutation_route_matches_first_construction(self, design):
        tested = 0
        for seed in range(4):
            spec = ScenarioSpec(TwoPointRisk(0.2, 0.5, 0.8), *design, seed=seed)
            data = simulate_repeated(spec)
            result = clustering_test(data, permutation_seed=seed)
            if result.undefined:
                continue
            statistic, p_value, _ = _permutation_route_reference(data, seed)
            assert result.statistic == statistic
            assert result.p_value_permutation == p_value
            tested += 1
        assert tested >= 2

    def test_integer_exceedance_equals_float_rule(self):
        # every small design from (2, 2) to (19, 2) and (2, 19), three risk
        # shapes each; the float rule needs its allowance on some ties
        risks = (PointRisk(0.4), TwoPointRisk(0.9, 0.3, 0.1), BetaRisk(0.7, 1.3))
        designs = [(n, m) for n in range(2, 20) for m in range(2, 20) if n * m < 40]
        tested = rescued = 0
        for i, (n, m) in enumerate(designs):
            for j, risk in enumerate(risks):
                seed = 3 * i + j
                data = simulate_repeated(ScenarioSpec(risk, n, repeats=m, seed=seed))
                result = clustering_test(data, permutation_seed=seed)
                if result.undefined:
                    continue
                _, p_value, ties = _permutation_route_reference(data, seed)
                assert result.p_value_permutation == p_value, (n, m, risk, seed)
                tested += 1
                rescued += ties
        assert tested >= 200
        assert rescued > 0

    def test_rejects_degenerate_designs(self):
        with pytest.raises(InputError):
            clustering_test(RepeatedOutcomes(np.array([[0, 1]])))
        with pytest.raises(InputError):
            clustering_test(RepeatedOutcomes(np.array([[0], [1]])))

    def test_kept_tables_are_read_back_exactly(self):
        # each key serves two calls on different data, the second of which
        # reads the kept table back; the table depends on n*m alone, so a
        # (5, 6) design reads back the (6, 5) table; keys come back after
        # another (a, b, a), so that the kept table is replaced and built again
        keys = [
            (5, (6, 5)),
            (5, (5, 6)),
            (9, (13, 3)),
            (5, (6, 5)),
            (9, (6, 5)),
            (5, (3, 9)),
            (2**40 + 1, (3, 12)),
            (9, (6, 5)),
        ]
        risk = TwoPointRisk(0.2, 0.5, 0.8)
        hits = _permutation_table.cache_info().hits
        expected_hits, last = 0, None
        for step, (seed, (n, m)) in enumerate(keys):
            for data_seed in (2 * step, 2 * step + 1):
                data = simulate_repeated(ScenarioSpec(risk, n, m, seed=data_seed))
                result = clustering_test(data, seed)
                if result.undefined:  # returns before the table is looked up
                    continue
                expected_hits += last == (seed, n * m)
                last = (seed, n * m)
                _, p_value, _ = _permutation_route_reference(data, seed)
                assert result.p_value_permutation == p_value, (step, data_seed)
        assert expected_hits >= 6
        assert _permutation_table.cache_info().hits - hits == expected_hits

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"permutation_seed": None}, "permutation_seed must be an integer >= 0, got None"),
            ({"permutation_seed": True}, "permutation_seed must be an integer >= 0, got True"),
            ({"permutation_seed": -1}, "permutation_seed must be an integer >= 0, got -1"),
            ({"permutation_seed": [1, 2]}, "permutation_seed must be an integer >= 0, got [1, 2]"),
            ({"permutation_seed": 1.0}, "permutation_seed must be an integer >= 0, got 1.0"),
        ],
    )
    @pytest.mark.parametrize("design", [(5, 4), (10, 5)], ids=["small", "large"])
    def test_rejects_bad_permutation_arguments(self, arguments, message, design):
        risk = TwoPointRisk(1.0, 0.5, 0.0)
        data = simulate_repeated(ScenarioSpec(risk, *design, seed=11))
        with pytest.raises(InputError, match=re.escape(message)):
            clustering_test(data, **arguments)


class TestKeptSeedWork:
    """The last uniforms per person and permutation table are kept and reused."""

    def test_person_uniforms_survive_a_call_in_between(self):
        first = _person_uniforms(42, 10, 6)
        kept = first.copy()
        assert _person_uniforms(42, 10, 6) is first  # read back, not redrawn
        for seed, n in ((43, 10), (42, 11)):
            assert not np.array_equal(_person_uniforms(seed, n, 6), kept)
            again = _person_uniforms(42, 10, 6)
            assert np.array_equal(again, kept)
        # a narrower matrix is a new one, and holds the same leading uniforms
        narrower = _person_uniforms(42, 10, 5)
        assert np.array_equal(narrower, kept[:, :5])
        again = _person_uniforms(42, 10, 6)
        assert again is not first and np.array_equal(again, kept)
        generators = oracles.substream_generators(42, 10)
        assert np.array_equal(again, [rng.random(6) for rng in generators])

    @pytest.mark.parametrize("reverse", [False, True], ids=["point_first", "two_point_first"])
    def test_matched_pair_builds_each_generator_once(self, monkeypatch, reverse):
        built = []
        substreams = identifiability._substreams

        def counting_substreams(seed, n):
            built.append((seed, n))
            return substreams(seed, n)

        monkeypatch.setattr(identifiability, "_substreams", counting_substreams)
        _person_uniforms.cache_clear()
        (point, draw_point), (two_point, draw_two_point), (beta, draw_beta) = (
            CONTRACT_RISKS
        )
        pair = [(point, draw_point), (two_point, draw_two_point)]
        if reverse:
            pair.reverse()
        n, m = 10, 5
        for seed in (42, 43):
            for dist, draw_risk in pair:
                data = simulate_repeated(ScenarioSpec(dist, n, m, seed=seed))
                expected = oracles.repeated_outcomes(draw_risk, n, m, seed)
                assert np.array_equal(data.outcomes, expected), (dist, seed)
            # a beta population at the same seed draws person by person and
            # leaves the kept uniforms alone
            data = simulate_repeated(ScenarioSpec(beta, n, m, seed=seed))
            expected = oracles.repeated_outcomes(draw_beta, n, m, seed)
            assert np.array_equal(data.outcomes, expected), (beta, seed)
        # one pass over the people per pair, one per beta population
        assert built == [(42, n), (42, n), (43, n), (43, n)]

    def test_permutation_table_is_the_shuffled_positions(self):
        table = _permutation_table(3, 39)
        assert table.dtype == np.int8 and table.shape == (10_000, 39)
        positions = np.tile(np.arange(39), (10_000, 1))
        expected = np.random.default_rng(3).permuted(positions, axis=1)
        assert np.array_equal(table, expected)
        assert _permutation_table(3, 39) is table

    def test_kept_arrays_refuse_writes(self):
        for kept in (_person_uniforms(7, 3, 2), _permutation_table(7, 6)):
            with pytest.raises(ValueError):
                kept[0, 0] = kept[0, 1]


class TestIccEstimate:
    def test_perfectly_consistent_individuals(self):
        data = RepeatedOutcomes(np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]]))
        assert icc_estimate(data).value == pytest.approx(1.0, abs=1e-12)

    def test_all_or_none_simulated_cohort(self):
        spec = ScenarioSpec(TwoPointRisk(1.0, 0.6, 0.0), 10, repeats=5, seed=42)
        assert icc_estimate(simulate_repeated(spec)).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_perfect_churn_hits_the_lower_bound(self):
        data = RepeatedOutcomes(np.array([[0, 1], [1, 0]]))
        estimate = icc_estimate(data)
        # lower bound is -1/(m-1) = -1 for m = 2
        assert estimate.value == pytest.approx(-1.0, abs=1e-12)

    def test_constant_outcomes_are_undefined(self):
        data = RepeatedOutcomes(np.ones((2, 3), dtype=int))
        estimate = icc_estimate(data)
        assert estimate.undefined
        assert math.isnan(estimate.value)

    def test_undefined_is_read_from_the_value(self):
        assert [field.name for field in dataclasses.fields(IccEstimate)] == ["value"]
        assert IccEstimate(math.nan).undefined is True
        assert IccEstimate(0.25).undefined is False
        assert icc_estimate(RepeatedOutcomes([[0, 1], [1, 1]])).undefined is False

    def test_matches_hand_computed_anova(self):
        rows = np.array([[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 0]])
        data = RepeatedOutcomes(rows)
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

    def test_python_float_steps_equal_the_numpy_scalar_steps(self):
        def numpy_scalar_icc(data):
            # the scalar steps on numpy float64 scalars, as icc_estimate once did
            n, m = data.n_individuals, data.n_repeats
            y = data.outcomes.astype(float)
            row_sums = y.sum(axis=1)
            row_means = row_sums / m
            grand = row_sums.sum() / (n * m)
            ms_between = m * np.sum((row_means - grand) ** 2) / (n - 1)
            ms_within = np.sum((y - row_means[:, None]) ** 2) / (n * (m - 1))
            denom = ms_between + (m - 1) * ms_within
            if denom == 0.0:
                return math.nan
            return float((ms_between - ms_within) / denom)

        rng = np.random.default_rng(2015)
        dists = [PointRisk(0.3), TwoPointRisk(0.9, 0.4, 0.1), BetaRisk(0.5, 0.5)]
        nan_cases = 0
        for n in range(2, 41):
            for m in range(2, 9):
                panels = [np.zeros((n, m), dtype=int), np.ones((n, m), dtype=int)]
                panels += [
                    simulate_repeated(
                        ScenarioSpec(dist, n, m, seed=int(rng.integers(2**32)))
                    ).outcomes
                    for dist in dists
                ]
                for panel in panels:
                    data = RepeatedOutcomes(panel)
                    got, want = icc_estimate(data).value, numpy_scalar_icc(data)
                    if math.isnan(want):
                        assert math.isnan(got), (n, m)
                        nan_cases += 1
                    else:
                        assert got == want, (n, m, panel)
        assert nan_cases >= 2 * 39 * 7

    def test_rejects_degenerate_designs(self):
        with pytest.raises(InputError):
            icc_estimate(RepeatedOutcomes(np.array([[0, 1]])))
        with pytest.raises(InputError):
            icc_estimate(RepeatedOutcomes(np.array([[0], [1]])))


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
            simulate_threshold_cohort(self.BASE, 0, seed=1)

    @pytest.mark.parametrize("rate, follow_up", [(1e308, 1.0), (1e200, 1e200)])
    def test_rate_numpy_cannot_draw_names_the_product(self, rate, follow_up):
        spec = dataclasses.replace(
            self.BASE, provocation_rate=rate, follow_up=follow_up
        )
        message = (
            f"provocation_rate * follow_up = {rate * follow_up!r} is too large "
            "for a Poisson draw"
        )
        with pytest.raises(ValueError) as excinfo:
            simulate_threshold_cohort(spec, 3, seed=1)
        assert str(excinfo.value) == message
        # numpy's own refusal is chained, so its limit stays numpy's
        assert type(excinfo.value.__cause__) is ValueError

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("provocation_rate", -1.0, "provocation_rate must be >= 0, got -1.0"),
            ("follow_up", 0.0, "follow_up must be > 0, got 0.0"),
            ("threshold_spread", -1.0, "threshold_spread must be >= 0, got -1.0"),
            ("fluctuation_sd", -0.5, "fluctuation_sd must be >= 0, got -0.5"),
            ("strength_spread", -2.0, "strength_spread must be >= 0, got -2.0"),
        ],
    )
    def test_range_messages_name_the_value(self, name, value, message):
        with pytest.raises(InputError) as excinfo:
            dataclasses.replace(self.BASE, **{name: value})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (10, None, "seed must be an integer >= 0, got None"),
            (10, -1, "seed must be an integer >= 0, got -1"),
            (10, True, "seed must be an integer >= 0, got True"),
            (10, 1.0, "seed must be an integer >= 0, got 1.0"),
            (True, 1, "cohort size must be an integer >= 1, got True"),
            (2.0, 1, "cohort size must be an integer >= 1, got 2.0"),
        ],
    )
    def test_rejects_bad_size_or_seed(self, n, seed, message):
        with pytest.raises(InputError) as excinfo:
            simulate_threshold_cohort(self.BASE, n, seed)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("size", [0, True, 2.0])
    def test_scenario_rejects_bad_cohort_size(self, size):
        # refused when a config is read, not when the cohort is drawn
        with pytest.raises(InputError) as excinfo:
            ThresholdScenario(self.BASE, size, 1)
        assert str(excinfo.value) == (
            f"cohort_size must be an integer >= 1, got {size!r}"
        )


# the substream contract at seeds of every word count the seeding can see:
# one 32-bit word, the edges of two, three words, five words, plus random
# seeds of 1 to 160 bits
_seed_rng = random.Random(20151)
CONTRACT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17] + [
    _seed_rng.getrandbits(_seed_rng.randint(1, 160)) for _ in range(30)
]
CONTRACT_SIZES = (1, 2, 10, 600)
CONTRACT_RISKS = [
    (PointRisk(0.3), lambda rng: 0.3),
    (TwoPointRisk(0.1, 0.4, 0.7), lambda rng: 0.1 if rng.random() < 0.4 else 0.7),
    (BetaRisk(0.5, 1.5), lambda rng: float(rng.beta(0.5, 1.5))),
]


@pytest.mark.parametrize("seed", CONTRACT_SEEDS)
class TestSubstreamContract:
    """Person i draws from default_rng(child i of SeedSequence(seed).spawn(n))."""

    def test_states_equal_numpy_pcg64_seeding(self, seed):
        for n in CONTRACT_SIZES:
            children = np.random.SeedSequence(seed).spawn(n)
            got = _substream_states(seed, n)
            assert got.shape == (n, 4) and got.dtype == np.uint64
            assert got.flags.c_contiguous
            mismatched = [
                i
                for i, child in enumerate(children)
                if not np.array_equal(got[i], child.generate_state(4, np.uint64))
                or np.random.PCG64(_child_words()(got[i])).state
                != np.random.PCG64(child).state
            ]
            assert not mismatched, (
                f"numpy {np.__version__} seeds PCG64 from SeedSequence({seed})"
                f".spawn({n}) differently from _substream_states: children "
                f"{mismatched[:5]} differ"
            )

    def test_repeated_outcomes_follow_the_contract(self, seed):
        for n in CONTRACT_SIZES:
            for dist, draw_risk in CONTRACT_RISKS:
                data = simulate_repeated(ScenarioSpec(dist, n, repeats=5, seed=seed))
                expected = oracles.repeated_outcomes(draw_risk, n, 5, seed)
                assert np.array_equal(data.outcomes, expected), (dist, n)

    def test_threshold_cohort_follows_the_contract(self, seed):
        self._check_cohort(TestThresholdModel.BASE, seed)

    # no provocations (no normals drawn), counts of 20-35 per person, and
    # strengths and fluctuations that do not vary
    @pytest.mark.parametrize(
        "change",
        [
            {"provocation_rate": 0.0},
            {"provocation_rate": 25.0},
            {"strength_spread": 0.0, "fluctuation_sd": 0.0},
        ],
        ids=["no_provocations", "high_rate", "fixed_strengths"],
    )
    def test_threshold_cohort_draw_split_follows_the_contract(self, seed, change):
        self._check_cohort(dataclasses.replace(TestThresholdModel.BASE, **change), seed)

    @staticmethod
    def _check_cohort(model, seed):
        for n in CONTRACT_SIZES:
            cohort = simulate_threshold_cohort(model, n, seed)
            outcomes, thresholds = oracles.threshold_cohort(
                n, seed, **dataclasses.asdict(model)
            )
            assert np.array_equal(cohort.outcomes.outcomes[:, 0], outcomes), n
            risks = [latent_risk(model, t) for t in thresholds]
            assert np.array_equal(cohort.latent_risks, risks), n


@pytest.mark.parametrize("seed", CONTRACT_SEEDS)
def test_seed_words_follow_the_specification(seed):
    # numpy mixes the seed; the package hashes each spawn key into that pool
    # and draws the output words.  The plain-loop oracle checks both stages
    # against SeedSequence's documented algorithm, apart from numpy itself.
    pool = oracles.seed_sequence_pool(seed)
    assert np.random.SeedSequence(seed).pool.tolist() == pool, (
        f"seed pool: numpy {np.__version__} mixes SeedSequence({seed}) "
        "differently from the specification"
    )
    expected = [
        oracles.seed_sequence_state64(oracles.seed_sequence_pool(seed, (i,)), 4)
        for i in range(max(CONTRACT_SIZES))
    ]
    for n in CONTRACT_SIZES:
        got = _substream_states(seed, n).tolist()
        mismatched = [i for i in range(n) if got[i] != expected[i]]
        assert not mismatched, (
            f"spawn key and output words: _substream_states({seed}, {n}) differs "
            f"from the specification at children {mismatched[:5]} (numpy "
            f"{np.__version__})"
        )


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
