"""Loader's stirlerr table and the chi-square upper tail against mpmath.

``riskbounds._loader.chi2_upper_tail`` gives the clustering test its p-value
without scipy.  Its error is checked against 50-digit mpmath
(``oracles.chi2_survival``) over df from 1 to 99,999 and statistics from 0
to the far tail, the only reference that does not share its formulas.
"""

import math
import threading

import pytest

import oracles
from riskbounds import _loader
from riskbounds._loader import bd0, chi2_upper_tail, stirlerr

DFS = (1, 2, 3, 4, 5, 9, 10, 17, 40, 99, 999, 2000, 9999, 29999, 99999)


def grid_stats(df: int) -> list[float]:
    """Statistics 0 to the far tail: fixed points, steps of the chi-square
    SD about df, fractions of df, and far-tail values of small df (mpmath
    gives up far beyond the tail's 1e-300 at df 99,999, so no multiple of
    df above 1 is taken)."""
    sd = math.sqrt(2 * df)
    stats = {0.0, 1e-300, 1e-40, 1e-10, 0.5, 2.9, 60.0, 200.0, 600.0, 1300.0}
    stats |= {df + k * sd for k in (-8, -4, -2, -1, -0.25, 0, 0.25, 1, 2, 4, 8, 16, 24, 32)}
    stats |= {f * df for f in (0.5, 0.8)}
    return sorted(s for s in stats if s >= 0.0)


def test_stirlerr_table_is_the_oracle_rounded_to_double():
    # n = 0, 1/2, ..., 15; stirlerr(0) is +inf
    halves = _loader._STIRLERR_HALVES
    assert len(halves) == 31
    for k, value in enumerate(halves):
        assert value == oracles.stirlerr(k / 2), k / 2
        assert stirlerr(k / 2) == value


@pytest.mark.parametrize("n", [15.5, 16, 35, 35.5, 80, 80.5, 500, 500.5, 1e4, 1e7])
def test_stirlerr_series_beyond_the_table(n):
    # an error in stirlerr is an absolute error in a term's exponent; the
    # series' cut-offs leave at most 1.6e-16, just above the table's end
    assert stirlerr(n) == pytest.approx(oracles.stirlerr(n), rel=0, abs=2e-16)


@pytest.mark.parametrize(
    "i,x",
    [(0.5, 3.0), (3.5, 8.09), (498.5, 1552.72), (4998.5, 6000.0), (1000.0, 1000.5),
     (29998.5, 38000.0), (50000.0, 20000.0), (2.0, 1e-30)],
)
def test_bd0_keeps_only_the_rounding_of_its_log(i, x):
    # i / x on both sides of 1, in the series range and beyond it: the
    # error stays within one ulp of log(i / x), times i
    hi, lo = bd0(i, x)
    mp = oracles.mpmath
    with mp.workdps(50):
        exact = i * mp.log(mp.mpf(i) / x) + x - i
        bound = 2.0**-52 * max(1.0, i * abs(math.log(i / x)))
        assert abs(mp.mpf(hi) + lo - exact) <= bound, (i, x)


def test_chi2_upper_tail_matches_the_oracle():
    # 2e-13 relative wherever the tail is at least 1e-300 (scipy 1.17's
    # gammaincc is up to 6e-12 off on this grid, at df 9999)
    worst = (0.0, (0, 0.0))
    for df in DFS:
        for stat in grid_stats(df):
            want = oracles.chi2_survival(stat, df)
            if want < 1e-300:
                continue
            err = abs(chi2_upper_tail(df, stat) - want) / want
            worst = max(worst, (err, (df, stat)))
    assert worst[0] <= 2e-13, worst


@pytest.mark.parametrize(
    "df,stat",
    [
        # the README design's two statistics
        (9, 16.18357487922705),
        (9, 50.0),
        # all-or-none at n = 2001, m = 2, far in the tail
        (2000, 4002.0),
        (1, 0.0),
        (99999, 0.0),
    ],
)
def test_tail_at_named_points(df, stat):
    want = oracles.chi2_survival(stat, df)
    assert chi2_upper_tail(df, stat) == pytest.approx(want, rel=2e-13)


@pytest.mark.parametrize("stat", [2.9, 1.0, 1e-10])
def test_an_underflowing_first_term_ends_the_sum(stat):
    # at df 999 and stat < 3 the first term underflows to 0; a stop on a
    # term strictly below 1e-17 of the sum would then never come
    result = []
    worker = threading.Thread(
        target=lambda: result.append(chi2_upper_tail(999, stat)), daemon=True
    )
    worker.start()
    worker.join(10.0)
    assert result == [1.0]


@pytest.mark.parametrize("stat", [-1.0, math.inf, math.nan])
def test_a_stat_outside_its_domain_is_refused(stat):
    with pytest.raises(ValueError, match="stat must be finite and >= 0"):
        chi2_upper_tail(9, stat)


def test_extreme_statistics_round_to_the_bounds():
    # 1e-33 and below: 1 - Q <= erf(sqrt(x)) < 2**-54; and the far tail of
    # a statistic near the largest double underflows to 0
    assert chi2_upper_tail(3, 5e-324) == 1.0
    assert chi2_upper_tail(99999, 1e-30) == 1.0
    for df in (1, 2, 9, 4002):
        assert chi2_upper_tail(df, 1.7e308) == 0.0
