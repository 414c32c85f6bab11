import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from riskbounds import (
    cm1_pseudo_interval,
    hmc_individual_interval,
    standard_normal_quantile,
    student_t_quantile,
    wilson_interval,
)
from riskbounds.refuted import (
    NOTE_PREDICTION_INTERVAL,
    NOTE_SINGLE_OUTCOME,
    REFUTATION_BANNER,
)


class TestStudentTQuantile:
    def test_frozen_values(self):
        # the goldens are correctly rounded; the documented accuracy is
        # 1e-8 and scipy's t.ppf is not correctly rounded (a few ulp off
        # at some df), so allow 4 ulp and name the distance
        for df, golden in (
            (1, goldens.T_975_DF1),
            (253, goldens.T_975_DF253),
            (1_000_000, goldens.T_975_DF1M),
        ):
            got = student_t_quantile(0.975, df)
            ulps = abs(got - golden) / math.ulp(golden)
            assert ulps <= 4, f"df={df}: got {got!r}, {ulps:.0f} ulp from {golden!r}"

    def test_agrees_with_bisection_oracle(self):
        for p in (0.6, 0.9, 0.975, 0.995):
            for df in (1, 2, 5, 30, 253):
                assert student_t_quantile(p, df) == pytest.approx(
                    oracles.t_quantile(p, df), rel=1e-9
                )

    def test_agrees_with_closed_forms(self):
        for p in (0.6, 0.75, 0.9, 0.975):
            assert student_t_quantile(p, 1) == pytest.approx(
                oracles.t_quantile_df1(p), rel=1e-9
            )
            assert student_t_quantile(p, 2) == pytest.approx(
                oracles.t_quantile_df2(p), rel=1e-9
            )

    def test_symmetry_and_median(self):
        assert student_t_quantile(0.5, 7) == pytest.approx(0.0, abs=1e-15)
        assert student_t_quantile(0.9, 7) == pytest.approx(
            -student_t_quantile(0.1, 7), abs=1e-12
        )

    def test_heavier_tails_than_normal(self):
        z = standard_normal_quantile(0.975)
        for df in (1, 2, 10, 100):
            assert student_t_quantile(0.975, df) > z

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.975, 0)
        with pytest.raises(ValueError):
            student_t_quantile(0.975, 2.5)


class TestSingleOutcomeRecipe:
    def test_frozen_bounds_for_013(self):
        est = hmc_individual_interval(0.13)
        assert est.lower == pytest.approx(goldens.HMC_013_LOWER, abs=1e-15)
        assert est.upper == pytest.approx(goldens.HMC_013_UPPER, abs=1e-15)
        # the published row on the percent scale
        assert round(est.lower * 100) == 0
        assert round(est.upper * 100) == 84

    def test_worked_example_at_035(self):
        est = hmc_individual_interval(0.35)
        assert round(est.lower, 2) == 0.03
        assert round(est.upper, 2) == 0.91

    def test_always_flagged_invalid(self):
        for theta in (0.0, 0.13, 0.5, 1.0):
            est = hmc_individual_interval(theta)
            assert est.method == "fictitious_wilson"
            assert not est.valid
            assert est.note == NOTE_SINGLE_OUTCOME

    def test_bounds_match_unit_sample_score_interval(self):
        base = wilson_interval(0.13, 1.0, 0.05)
        est = hmc_individual_interval(0.13)
        assert est.lower == base.lower
        assert est.upper == base.upper

    def test_symmetry_at_even_odds(self):
        est = hmc_individual_interval(0.5)
        assert est.lower == pytest.approx(1.0 - est.upper, abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(theta=st.floats(min_value=0.0, max_value=1.0))
    def test_never_valid_and_always_bounded(self, theta):
        est = hmc_individual_interval(theta)
        assert not est.valid
        assert 0.0 <= est.lower <= est.upper <= 1.0

    @settings(deadline=None, max_examples=50)
    @given(
        theta=st.floats(min_value=0.05, max_value=0.95),
        n=st.integers(min_value=2, max_value=500),
    )
    def test_wider_than_any_real_design(self, theta, n):
        single = hmc_individual_interval(theta)
        real = wilson_interval(theta, float(n), 0.05)
        assert single.width > real.width


class TestPredictionIntervalRecipe:
    EXAMPLE = dict(
        beta0=-2.0,
        beta1=0.5,
        sigma_hat=1.0,
        n=255,
        x_bar=20.0,
        ss_x=5000.0,
        x_new=20.0,
        alpha=0.05,
    )

    def test_frozen_worked_example(self):
        est = cm1_pseudo_interval(**self.EXAMPLE)
        assert est.point == pytest.approx(goldens.CM1_EXAMPLE_POINT, abs=1e-15)
        assert est.lower == pytest.approx(goldens.CM1_EXAMPLE_LOWER, abs=1e-15)
        assert est.upper == pytest.approx(goldens.CM1_EXAMPLE_UPPER, abs=1e-15)
        assert est.method == "cm1_pseudo"
        assert not est.valid
        assert est.note == NOTE_PREDICTION_INTERVAL

    def test_half_width_matches_oracle_route(self):
        inp = self.EXAMPLE
        est = cm1_pseudo_interval(**inp)
        t = oracles.t_quantile(1.0 - inp["alpha"] / 2.0, inp["n"] - 2)
        half = (
            t
            * inp["sigma_hat"]
            * math.sqrt(
                1.0 + 1.0 / inp["n"] + (inp["x_new"] - inp["x_bar"]) ** 2 / inp["ss_x"]
            )
        )
        eta = inp["beta0"] + inp["beta1"] * inp["x_new"]
        assert est.lower == pytest.approx(
            1.0 / (1.0 + math.exp(-(eta - half))), rel=1e-9
        )
        assert est.upper == pytest.approx(
            1.0 / (1.0 + math.exp(-(eta + half))), rel=1e-9
        )

    def test_df_defaults_to_n_minus_2_and_can_be_overridden(self):
        inp = self.EXAMPLE
        default = cm1_pseudo_interval(**inp)
        explicit = cm1_pseudo_interval(**inp, df=inp["n"] - 2)
        assert default.lower == explicit.lower and default.upper == explicit.upper
        single_df = cm1_pseudo_interval(**inp, df=1)
        # df=1 uses a much heavier tail, so the interval must widen
        assert single_df.width > default.width

    def test_n_of_2_needs_df(self):
        # the default df = n - 2 would be 0: the refusal names n, not df
        message = r"^the default df = n - 2 needs n >= 3, got n = 2$"
        with pytest.raises(ValueError, match=message):
            cm1_pseudo_interval(**{**self.EXAMPLE, "n": 2})
        est = cm1_pseudo_interval(**{**self.EXAMPLE, "n": 2}, df=1)
        assert est.lower < est.point < est.upper

    def test_alpha_without_a_quantile_is_refused_by_name(self):
        # 1 - alpha/2 rounds to 1 at alpha = 2**-53, not at 2**-52
        message = (
            r"^alpha = 1\.1102230246251565e-16 is too close to 0: its quantile "
            r"point 1 - alpha/2 rounds to 1$"
        )
        with pytest.raises(ValueError, match=message):
            cm1_pseudo_interval(**{**self.EXAMPLE, "alpha": 2.0**-53})
        with pytest.raises(ValueError, match=message):
            hmc_individual_interval(0.13, 2.0**-53)
        est = cm1_pseudo_interval(**{**self.EXAMPLE, "alpha": 2.0**-52})
        assert est.lower < est.point < est.upper

    def test_overflowing_leverage_names_the_quantity(self):
        # (20 - 1e200)**2 is beyond the largest double
        message = (
            r"^\(x_new - x_bar\)\*\*2 / ss_x overflows at x_new - x_bar = -1e\+200$"
        )
        with pytest.raises(ArithmeticError, match=message):
            cm1_pseudo_interval(**{**self.EXAMPLE, "x_bar": 1e200})

    @pytest.mark.parametrize("sigma_hat", [0.0, 1.0])
    def test_overflowing_difference_names_it(self, sigma_hat):
        # 1e308 - (-1e308) is beyond the largest double; at sigma_hat = 0
        # the half-width was 0 * inf = NaN, and at sigma_hat = 1 the bounds
        # were read off an infinite leverage
        message = r"^x_new - x_bar overflows at x_new = 1e\+308, x_bar = -1e\+308$"
        args = {**self.EXAMPLE, "sigma_hat": sigma_hat, "x_bar": -1e308}
        with pytest.raises(ArithmeticError, match=message):
            cm1_pseudo_interval(**{**args, "x_new": 1e308})

    def test_zero_sigma_collapses_to_a_point(self):
        est = cm1_pseudo_interval(**{**self.EXAMPLE, "sigma_hat": 0.0})
        assert est.lower == est.point == est.upper
        assert not est.valid

    def test_log_odds_width_never_vanishes(self):
        # growing n with proportionally growing predictor spread: a real
        # confidence interval would shrink to nothing, this recipe cannot
        z = standard_normal_quantile(0.975)
        for n in (10, 100, 10_000, 1_000_000):
            inp = {**self.EXAMPLE, "n": n, "ss_x": 5000.0 * n}
            est = cm1_pseudo_interval(**inp)
            eta_width = math.log(est.upper / (1.0 - est.upper)) - math.log(
                est.lower / (1.0 - est.lower)
            )
            assert eta_width > 2.0 * z * inp["sigma_hat"]

    def test_log_odds_width_limit_is_two_z_sigma(self):
        z = standard_normal_quantile(0.975)
        inp = {**self.EXAMPLE, "n": 1_000_000, "ss_x": 5000.0 * 1_000_000}
        est = cm1_pseudo_interval(**inp)
        eta_width = math.log(est.upper / (1.0 - est.upper)) - math.log(
            est.lower / (1.0 - est.lower)
        )
        assert eta_width == pytest.approx(2.0 * z * inp["sigma_hat"], abs=1e-4)

    def test_probability_width_plateaus(self):
        inp_big = {**self.EXAMPLE, "n": 10_000, "ss_x": 5000.0 * 10_000}
        inp_bigger = {**self.EXAMPLE, "n": 1_000_000, "ss_x": 5000.0 * 1_000_000}
        width_big = cm1_pseudo_interval(**inp_big).width
        width_bigger = cm1_pseudo_interval(**inp_bigger).width
        assert width_bigger > 0.002
        assert width_big == pytest.approx(width_bigger, rel=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cm1_pseudo_interval(**{**self.EXAMPLE, "n": 1})
        with pytest.raises(ValueError):
            cm1_pseudo_interval(**{**self.EXAMPLE, "sigma_hat": -0.1})
        with pytest.raises(ValueError):
            cm1_pseudo_interval(**{**self.EXAMPLE, "ss_x": 0.0})
        with pytest.raises(ValueError):
            cm1_pseudo_interval(**{**self.EXAMPLE, "alpha": 0.0})
        with pytest.raises(ValueError):
            cm1_pseudo_interval(**{**self.EXAMPLE, "beta0": math.inf})
        # an infinite sigma_hat used to give the interval (0, 1), an infinite
        # ss_x a finite one, and a NaN a bounds error naming neither
        for field in ("sigma_hat", "ss_x"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                    cm1_pseudo_interval(**{**self.EXAMPLE, field: value})

    @settings(deadline=None, max_examples=100)
    @given(
        beta0=st.floats(min_value=-10, max_value=10),
        beta1=st.floats(min_value=-5, max_value=5),
        sigma=st.floats(min_value=0.0, max_value=10.0),
        n=st.integers(min_value=3, max_value=10_000),
        x_new=st.floats(min_value=-50, max_value=50),
    )
    def test_never_valid_and_always_inside_unit_interval(
        self, beta0, beta1, sigma, n, x_new
    ):
        est = cm1_pseudo_interval(
            beta0=beta0,
            beta1=beta1,
            sigma_hat=sigma,
            n=n,
            x_bar=0.0,
            ss_x=100.0,
            x_new=x_new,
            alpha=0.05,
        )
        assert not est.valid
        assert 0.0 <= est.lower <= est.point <= est.upper <= 1.0


def test_banner_names_the_problem():
    assert "REFUTED" in REFUTATION_BANNER
    assert "not a valid confidence" in REFUTATION_BANNER
