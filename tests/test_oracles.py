"""Self-checks for the independent oracle routes.

The oracles judge the package, so they are cross-checked against each
other and against algebraic closed forms before anything else relies on
them.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles


@pytest.mark.parametrize("p", [0.001, 0.025, 0.05, 0.5, 0.9, 0.975, 0.999])
def test_normal_quantile_roundtrip(p):
    x = oracles.normal_quantile(p)
    back = 0.5 * math.erfc(-x / math.sqrt(2.0))
    assert abs(back - p) < 1e-14


def test_normal_quantile_symmetry():
    assert abs(oracles.normal_quantile(0.975) + oracles.normal_quantile(0.025)) < 1e-14
    assert abs(oracles.normal_quantile(0.5)) < 1e-15


def test_t_quantile_against_closed_forms():
    for p in (0.6, 0.75, 0.9, 0.975, 0.995):
        assert oracles.t_quantile(p, 1) == pytest.approx(
            oracles.t_quantile_df1(p), rel=1e-12
        )
        assert oracles.t_quantile(p, 2) == pytest.approx(
            oracles.t_quantile_df2(p), rel=1e-12
        )


def test_t_quantile_roundtrip_and_limit():
    x = oracles.t_quantile(0.9, 7)
    assert oracles.t_cdf(x, 7) == pytest.approx(0.9, abs=1e-12)
    # at huge df the t quantile approaches the normal quantile
    assert oracles.t_quantile(0.975, 10**8) == pytest.approx(
        oracles.normal_quantile(0.975), abs=1e-6
    )


def test_quantile_and_cm1_goldens_are_the_oracle_values():
    # pins the goldens to the oracle, not to any implementation's output
    for df, golden in (
        (1, goldens.T_975_DF1),
        (253, goldens.T_975_DF253),
        (1_000_000, goldens.T_975_DF1M),
    ):
        assert oracles.t_quantile(0.975, df) == golden
    assert oracles.cm1_interval(-2.0, 0.5, 1.0, 255, 20.0, 5000.0, 20.0, 0.05) == (
        goldens.CM1_EXAMPLE_POINT,
        goldens.CM1_EXAMPLE_LOWER,
        goldens.CM1_EXAMPLE_UPPER,
    )


def test_chi2_survival_matches_erfc_identity():
    for x in (0.5, 1.0, 3.84, 10.0, 97.6):
        assert oracles.chi2_survival_1df(x) == pytest.approx(
            math.erfc(math.sqrt(x / 2.0)), rel=1e-12
        )


def test_wilson_roots_solve_the_quadratic():
    z = oracles.normal_quantile(0.975)
    for theta, n in ((0.0, 11), (0.13, 1), (0.5, 30), (1.0, 9)):
        for bound in oracles.wilson_bounds_by_roots(theta, n, z):
            residual = (theta - bound) ** 2 - z * z * bound * (1.0 - bound) / n
            assert abs(residual) < 1e-12


def test_enumerated_distribution_is_a_distribution():
    dist = oracles.count_distribution_enumerated([(0.7, 0.3), (0.2, 0.7)], 6)
    assert all(mass >= 0.0 for mass in dist)
    assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_matches_quadrature_for_matched_means():
    # beta(3, 7) has mean 0.3; compare with the one-atom mixture at 0.3
    enum = oracles.count_distribution_enumerated([(0.3, 1.0)], 5)
    quad = oracles.count_distribution_quadrature(3.0, 7.0, 5)
    assert oracles.total_variation(enum, quad) < 1e-12


@settings(deadline=None, max_examples=50)
@given(
    risk=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=8),
)
def test_enumeration_of_degenerate_mixture_is_binomial(risk, n):
    dist = oracles.count_distribution_enumerated([(risk, 1.0)], n)
    for k, mass in enumerate(dist):
        direct = math.comb(n, k) * risk**k * (1.0 - risk) ** (n - k)
        assert mass == pytest.approx(direct, rel=1e-10, abs=1e-15)


def test_two_point_logistic_reproduces_the_data():
    beta0, beta1, _ = oracles.two_point_logistic(1, 100, 10, 2, 100, 90)
    # the saturated fit passes through both observed proportions
    p1 = 1.0 / (1.0 + math.exp(-(beta0 + beta1 * 1)))
    p2 = 1.0 / (1.0 + math.exp(-(beta0 + beta1 * 2)))
    assert p1 == pytest.approx(0.1, abs=1e-12)
    assert p2 == pytest.approx(0.9, abs=1e-12)
    assert beta1 == pytest.approx(2.0 * math.log(9.0), rel=1e-14)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 502787328, 301886893), (2, 131, 89)),
        ((1, 100, 10), (2, 100, 90)),
        ((2, 50, 7), (7, 40, 31)),
        ((1, 10**9, 1), (2, 10**9, 10**9 - 1)),
        ((3, 2, 1), (4, 10**9 - 1, 10**9 - 2)),
    ],
)
def test_saturated_mle_fits_the_observed_risks(rows):
    beta0, beta1 = oracles.saturated_two_stratum_mle(rows)
    with mpmath.workdps(50):
        for category, total, events in rows:
            risk = 1 / (1 + mpmath.exp(-(beta0 + beta1 * category)))
            observed = mpmath.mpf(events) / total
            assert abs(risk / observed - 1) < mpmath.mpf(10) ** -40, rows


def test_homogeneity_statistic_all_or_none_identity():
    # half the rows all events, half all failures: statistic equals n*m
    counts = np.array([5, 0, 5, 0, 5, 0, 5, 0, 5, 0])
    assert oracles.homogeneity_statistic_contingency(counts, 5) == pytest.approx(
        50.0, abs=1e-12
    )
