import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, xlogy

import goldens
import oracles
from riskbounds import (
    CategoryRow,
    CategoryTable,
    InputError,
    IntervalEstimate,
    LogisticFit,
    NonConvergenceError,
    NumericalError,
    SeparationError,
    expand_weights,
    fit_grouped_logistic,
    predict_risk,
    standard_normal_quantile,
    trend_test,
)
from riskbounds import logistic
from riskbounds.logistic import RiskPrediction, predict_bounds


def make_table(counts):
    return CategoryTable(rows=tuple(CategoryRow(*c) for c in counts))


# report_batch seed 6105's table045: saturated, and the fit stops 1.4e-5 from
# its closed-form MLE with converged=True
TABLE045 = ((1, 502787328, 301886893), (2, 131, 89))


def _seeded_two_stratum_rows(seed=2151, count=400):
    """Two-stratum tables with 1 <= events <= total - 1 in each row (a finite,
    saturated MLE), totals log-uniform on 10..1e9."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(count):
        c1 = int(rng.integers(1, 9))
        categories = (c1, int(rng.integers(c1 + 1, 10)))
        totals = [round(10 ** rng.uniform(1.0, 9.0)) for _ in categories]
        tables.append(
            tuple((c, t, int(rng.integers(1, t))) for c, t in zip(categories, totals))
        )
    return tables


class TestFit:
    def test_frozen_parameter_pins(self, vrag_fit):
        assert vrag_fit.beta0 == pytest.approx(goldens.VRAG_BETA0, abs=1e-12)
        assert vrag_fit.beta1 == pytest.approx(goldens.VRAG_BETA1, abs=1e-12)
        assert math.sqrt(vrag_fit.cov[0, 0]) == pytest.approx(
            goldens.VRAG_SE0, abs=1e-12
        )
        assert math.sqrt(vrag_fit.cov[1, 1]) == pytest.approx(
            goldens.VRAG_SE1, abs=1e-12
        )
        assert vrag_fit.deviance == pytest.approx(goldens.VRAG_DEVIANCE, abs=1e-9)
        assert vrag_fit.iterations == goldens.VRAG_ITERATIONS
        assert vrag_fit.converged

    def test_score_vanishes_at_mle(self, vrag_table, vrag_fit):
        residuals = oracles.table_score(vrag_table, vrag_fit.beta0, vrag_fit.beta1)
        assert np.all(np.abs(residuals) < 1e-8)

    def test_matches_external_glm(self, vrag_table, vrag_fit):
        sm = pytest.importorskip("statsmodels.api")
        endog = np.array([[r.events, r.total - r.events] for r in vrag_table.rows])
        exog = sm.add_constant(
            np.array([float(r.category) for r in vrag_table.rows])
        )
        result = sm.GLM(endog, exog, family=sm.families.Binomial()).fit()
        assert vrag_fit.beta0 == pytest.approx(result.params[0], abs=1e-8)
        assert vrag_fit.beta1 == pytest.approx(result.params[1], abs=1e-8)
        assert vrag_fit.deviance == pytest.approx(result.deviance, abs=1e-8)
        assert np.allclose(vrag_fit.cov, result.cov_params(), atol=1e-8)

    def test_two_point_closed_form(self):
        table = make_table([(1, 100, 10), (2, 100, 90)])
        fit = fit_grouped_logistic(table)
        beta0, beta1, cov = oracles.two_point_logistic(1, 100, 10, 2, 100, 90)
        assert fit.beta1 == pytest.approx(beta1, rel=1e-10)
        assert fit.beta0 == pytest.approx(beta0, rel=1e-10)
        assert fit.beta1 == pytest.approx(2.0 * math.log(9.0), rel=1e-10)
        for i in range(2):
            for j in range(2):
                assert fit.cov[i, j] == pytest.approx(cov[i][j], rel=1e-8)
        # the two-stratum fit is saturated: deviance collapses to zero
        assert abs(fit.deviance) < 1e-8

    def test_symmetric_table_has_flat_trend(self):
        table = make_table([(1, 50, 20), (2, 50, 20)])
        fit = fit_grouped_logistic(table)
        assert fit.beta1 == pytest.approx(0.0, abs=1e-12)
        assert trend_test(fit).p_value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_stratum(self):
        with pytest.raises(InputError):
            fit_grouped_logistic(make_table([(1, 10, 3)]))

    def test_rejects_uninformative_tables(self):
        with pytest.raises(InputError):
            fit_grouped_logistic(make_table([(1, 10, 0), (2, 10, 0)]))
        with pytest.raises(InputError):
            fit_grouped_logistic(make_table([(1, 10, 10), (2, 10, 10)]))

    def test_separation_raises(self):
        table = make_table([(1, 40, 0), (2, 40, 40)])
        with pytest.raises(SeparationError):
            fit_grouped_logistic(table)

    @pytest.mark.parametrize(
        "counts,message",
        [
            # complete: the slope runs to +inf
            (
                [(1, 40, 0), (2, 40, 0), (3, 40, 40), (4, 40, 40)],
                "every non-event is in categories <= 2 and every event in "
                "categories >= 3",
            ),
            # quasi-complete, shared category 1: the Newton loop used to stop
            # at beta1 = -24.65 and report converged=True, se0 = 131072
            (
                [(1, 866250, 156367), (2, 12, 0)],
                "every event is in categories <= 1 and every non-event in "
                "categories >= 1",
            ),
            # quasi-complete, shared category 2: used to converge at -28.25
            (
                [(1, 41, 41), (2, 5, 3)],
                "every event is in categories <= 2 and every non-event in "
                "categories >= 2",
            ),
        ],
    )
    def test_separation_decided_before_newton(self, counts, message):
        with pytest.raises(SeparationError) as exc:
            fit_grouped_logistic(make_table(counts))
        assert message in str(exc.value)
        assert "MLE does not exist" in str(exc.value)

    @pytest.mark.parametrize("total", [10**13, 10**15])
    def test_steep_overlapping_table_is_not_called_separated(self, total):
        # events and non-events overlap in both categories, so the MLE is
        # finite, with a slope of 2 * log(total - 1) (about 59.9 at 1e13);
        # a bound of 50 on the slope used to call this table separated
        table = make_table([(1, total, 1), (2, total, total - 1)])
        try:
            fit = fit_grouped_logistic(table)
        except SeparationError as exc:
            pytest.fail(f"an overlapping table was called separated: {exc}")
        except NumericalError:
            return  # whether Newton converges here is not this test's concern
        assert fit.beta1 == pytest.approx(2.0 * math.log(total - 1), rel=1e-6)

    def test_overlapping_tables_reach_newton(self):
        # overlap in one shared category on each side is enough
        for counts in ([(1, 10, 3), (2, 10, 10), (3, 10, 0)], [(1, 5, 1), (2, 5, 4)]):
            assert fit_grouped_logistic(make_table(counts)).converged

    def test_stalled_fit_raises_with_trace(self):
        # the MLE is finite (events and non-events overlap in both
        # categories), but the deviance cannot fall by 1e-12 next to it,
        # so the Newton loop stalls and reports its trace
        table = make_table([(1, 19, 17), (2, 2314, 36)])
        with pytest.raises(NonConvergenceError) as exc:
            fit_grouped_logistic(table)
        trace = exc.value.trace
        assert len(trace) > 1
        iteration, beta0, beta1, dev = trace[-1]
        assert iteration >= 1 and math.isfinite(dev)

    @pytest.mark.parametrize("rejected", [12, 13])
    def test_step_is_halved_at_most_twelve_times(
        self, monkeypatch, vrag_table, rejected
    ):
        # the first `rejected` candidates of iteration 1 get an infinite
        # deviance: the full step and twelve halvings are tried, no more
        real, calls = logistic._deviance, []

        def deviance(*args):
            calls.append(args)
            return math.inf if 1 < len(calls) <= 1 + rejected else real(*args)

        monkeypatch.setattr(logistic, "_deviance", deviance)
        if rejected == 13:
            with pytest.raises(NonConvergenceError, match="at iteration 1$"):
                fit_grouped_logistic(vrag_table)
            assert len(calls) == 1 + 13
        else:
            assert fit_grouped_logistic(vrag_table).converged

    def test_weight_expansion_leaves_mle_fixed(self, vrag_table, vrag_fit):
        fit100 = fit_grouped_logistic(expand_weights(vrag_table, 100))
        assert fit100.beta0 == pytest.approx(vrag_fit.beta0, abs=1e-10)
        assert fit100.beta1 == pytest.approx(vrag_fit.beta1, abs=1e-10)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the Newton fit stops early or exits 3 on "
        "saturated two-stratum tables",
    )
    def test_two_stratum_fits_reach_the_saturated_mle(self):
        misses = []
        for rows in (TABLE045, *_seeded_two_stratum_rows()):
            want = [float(b) for b in oracles.saturated_two_stratum_mle(rows)]
            try:
                fit = fit_grouped_logistic(make_table(rows))
            except NumericalError as exc:
                misses.append((rows, str(exc)))
                continue
            off = max(abs(fit.beta0 - want[0]), abs(fit.beta1 - want[1]))
            if off > 1e-12:
                misses.append((rows, off))
        assert misses == []


class TestGradient:
    def test_finite_difference_agreement(self, vrag_table):
        rng = np.random.default_rng(2024)
        h = 1e-6
        for _ in range(10):
            beta0 = rng.uniform(-5.0, 1.0)
            beta1 = rng.uniform(-1.0, 1.5)
            analytic = oracles.table_score(vrag_table, beta0, beta1)
            numeric = np.array(
                [
                    (
                        oracles.table_log_likelihood(vrag_table, beta0 + h, beta1)
                        - oracles.table_log_likelihood(vrag_table, beta0 - h, beta1)
                    )
                    / (2.0 * h),
                    (
                        oracles.table_log_likelihood(vrag_table, beta0, beta1 + h)
                        - oracles.table_log_likelihood(vrag_table, beta0, beta1 - h)
                    )
                    / (2.0 * h),
                ]
            )
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1.0)
            assert np.all(rel < 1e-4)

    def test_likelihood_is_maximal_at_fit(self, vrag_table, vrag_fit):
        log_likelihood = oracles.table_log_likelihood
        at_mle = log_likelihood(vrag_table, vrag_fit.beta0, vrag_fit.beta1)
        rng = np.random.default_rng(7)
        for _ in range(20):
            d0, d1 = rng.normal(scale=0.2, size=2)
            assert (
                log_likelihood(vrag_table, vrag_fit.beta0 + d0, vrag_fit.beta1 + d1)
                <= at_mle + 1e-12
            )


class TestPredictRisk:
    def test_golden_two_decimal_bounds(self, vrag_table, vrag_fit):
        for alpha, golden in (
            (0.05, goldens.LOGISTIC_95_BOUNDS),
            (0.20, goldens.LOGISTIC_80_BOUNDS),
        ):
            for row, (lo, hi) in zip(vrag_table.rows, golden):
                pred = predict_risk(vrag_fit, row.category, alpha)
                assert pred.interval.method == "logistic_delta"
                assert pred.interval.valid
                assert abs(pred.interval.lower - lo) <= 0.01 + 1e-9
                assert abs(pred.interval.upper - hi) <= 0.01 + 1e-9

    def test_bounds_strictly_inside_unit_interval(self, vrag_fit):
        for category in range(1, 10):
            pred = predict_risk(vrag_fit, category, 0.05)
            assert 0.0 < pred.interval.lower < pred.risk < pred.interval.upper < 1.0

    def test_narrower_level_is_nested(self, vrag_fit):
        for category in range(1, 10):
            wide = predict_risk(vrag_fit, category, 0.05).interval
            narrow = predict_risk(vrag_fit, category, 0.20).interval
            assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_interval_collapses_as_alpha_grows(self, vrag_fit):
        pred = predict_risk(vrag_fit, 5, 1.0 - 1e-12)
        assert pred.interval.width < 1e-6

    def test_rejects_bad_alpha(self, vrag_fit):
        with pytest.raises(ValueError):
            predict_risk(vrag_fit, 5, 0.0)
        with pytest.raises(ValueError):
            predict_risk(vrag_fit, 5, 1.0)

    @settings(deadline=None, max_examples=50)
    @given(category=st.integers(min_value=-20, max_value=30))
    def test_extrapolation_stays_in_unit_interval(self, vrag_fit, category):
        pred = predict_risk(vrag_fit, category, 0.05)
        assert 0.0 < pred.interval.lower <= pred.interval.upper < 1.0


class TestTrendTest:
    def test_frozen_pins(self, vrag_fit):
        result = trend_test(vrag_fit)
        assert result.wald_chi2 == pytest.approx(goldens.VRAG_WALD_CHI2, abs=1e-9)
        assert result.p_value == pytest.approx(goldens.VRAG_WALD_P, rel=1e-9)

    def test_p_value_matches_chi2_tail_oracle(self, vrag_fit):
        result = trend_test(vrag_fit)
        assert result.p_value == pytest.approx(
            oracles.chi2_survival_1df(result.wald_chi2), rel=1e-10
        )

    def test_undefined_for_zero_variance(self):
        fit = LogisticFit(
            beta0=0.0,
            beta1=0.5,
            cov=np.array([[1.0, 0.0], [0.0, 0.0]]),
            deviance=0.0,
            iterations=1,
            converged=True,
        )
        with pytest.raises(NumericalError):
            trend_test(fit)


def replicated_widths(table, k, alpha=0.05):
    """Per-category interval widths of the fit to ``table`` replicated k-fold."""
    fit = fit_grouped_logistic(expand_weights(table, k))
    _, lower, upper = predict_bounds(fit, table.categories, alpha)
    return upper - lower


class TestNarrowing:
    def test_hundredfold_expansion_shrinks_widths_tenfold(self, vrag_table):
        ratios = replicated_widths(vrag_table, 100) / replicated_widths(vrag_table, 1)
        assert len(ratios) == 9
        assert np.all((0.095 <= ratios) & (ratios <= 0.105))

    def test_width_sequence_is_decreasing(self, vrag_table):
        widths = [replicated_widths(vrag_table, k) for k in (1, 10, 100)]
        assert np.all((widths[0] > widths[1]) & (widths[1] > widths[2]))


class TestLogisticFitType:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            LogisticFit(
                beta0=0.0,
                beta1=0.0,
                cov=np.array([[1.0, 0.5], [0.2, 1.0]]),
                deviance=0.0,
                iterations=1,
                converged=True,
            )

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            LogisticFit(
                beta0=0.0,
                beta1=0.0,
                cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
                deviance=0.0,
                iterations=1,
                converged=True,
            )

    def test_covariance_is_read_only(self, vrag_fit):
        with pytest.raises(ValueError):
            vrag_fit.cov[0, 0] = 99.0

    def test_callers_covariance_stays_writable(self):
        c = np.eye(2)
        fit = LogisticFit(
            beta0=0.0, beta1=0.0, cov=c, deviance=0.0, iterations=1, converged=True
        )
        c[0, 0] = 2.0
        assert fit.cov[0, 0] == 1.0

    @pytest.mark.parametrize("entry", [math.inf, -math.inf])
    def test_rejects_non_finite_covariance(self, entry):
        # eigvalsh gives NaN here, which a PSD test alone lets through
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            LogisticFit(
                beta0=0.0,
                beta1=0.0,
                cov=np.array([[1.0, entry], [entry, 1.0]]),
                deviance=0.0,
                iterations=1,
                converged=True,
            )


# ---------------------------------------------------------------------------
# the Newton loop as it stood when it rebuilt the arrays from the table rows
# on every score and deviance call (the oracles' table_* formulas); the
# array-level fit must match it bit for bit


def _table_information(x, t, beta):
    pi = expit(beta[0] + beta[1] * x)
    w = t * pi * (1.0 - pi)
    wx = w * x
    return np.array([[w.sum(), wx.sum()], [wx.sum(), (wx * x).sum()]])


def _table_rebuilding_fit(table):
    """(beta0, beta1, cov, deviance, iterations, halvings), or the error."""
    x, t, e = oracles.table_arrays(table)
    pooled = table.total_events / table.total_subjects
    beta = np.array([math.log(pooled / (1.0 - pooled)), 0.0])
    dev = oracles.table_deviance(table, beta[0], beta[1])
    trace = [(0, beta[0], beta[1], dev)]
    total_halvings = 0
    for iteration in range(1, 51):
        grad = oracles.table_score(table, beta[0], beta[1])
        info = _table_information(x, t, beta)
        step = np.linalg.solve(info, grad)
        candidate = beta + step
        new_dev = oracles.table_deviance(table, candidate[0], candidate[1])
        halvings = 0
        while (not math.isfinite(new_dev) or new_dev > dev + 1e-12) and (
            halvings < 12
        ):
            step = step / 2.0
            candidate = beta + step
            new_dev = oracles.table_deviance(table, candidate[0], candidate[1])
            halvings += 1
        total_halvings += halvings
        if not math.isfinite(new_dev) or new_dev > dev + 1e-12:
            return NonConvergenceError("no decrease", trace)
        beta = candidate
        trace.append((iteration, beta[0], beta[1], new_dev))
        if abs(dev - new_dev) < 1e-10:
            cov = np.linalg.inv(_table_information(x, t, beta))
            cov = (cov + cov.T) / 2.0
            return (
                float(beta[0]),
                float(beta[1]),
                cov,
                float(new_dev),
                iteration,
                total_halvings,
            )
        dev = new_dev
    return NonConvergenceError("no convergence", trace)


def _seeded_tables(seed=20151, count=60):
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < count:
        k = int(rng.integers(2, 41))
        totals = rng.integers(1, 10**int(rng.integers(2, 10)), k)
        eta = rng.uniform(-3.0, 3.0) + rng.uniform(-6.0, 6.0) / k * np.arange(k)
        events = rng.binomial(totals, expit(eta))
        counts = [(c + 1, int(n), int(y)) for c, (n, y) in enumerate(zip(totals, events))]
        table = make_table(counts)
        if 0 < table.total_events < table.total_subjects:
            tables.append(table)
    return tables


HALVING_TABLES = [
    make_table([(1, 41, 41), (2, 5, 3)]),
    make_table([(1, 35, 34), (2, 5, 1)]),
    make_table([(1, 7, 1), (2, 56, 55)]),
]


def _finite_mle(table):
    """Events and non-events overlap on the category axis."""
    with_event = [r.category for r in table.rows if r.events > 0]
    with_non_event = [r.category for r in table.rows if r.events < r.total]
    return max(with_non_event) > min(with_event) and max(with_event) > min(
        with_non_event
    )


class TestArrayLevelFit:
    def test_halving_tables_take_halved_steps(self):
        for table in HALVING_TABLES:
            assert _table_rebuilding_fit(table)[5] > 0

    @pytest.mark.parametrize(
        "table",
        _seeded_tables() + HALVING_TABLES,
        ids=lambda table: f"{len(table.rows)}_strata",
    )
    def test_bit_identical_to_table_rebuilding_loop(self, table):
        if not _finite_mle(table):
            # refused before Newton; the loop copy would run to a slope of
            # about -28 and call that converged
            with pytest.raises(SeparationError):
                fit_grouped_logistic(table)
            return
        expected = _table_rebuilding_fit(table)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as exc:
                fit_grouped_logistic(table)
            if isinstance(expected, NonConvergenceError):
                assert exc.value.trace == expected.trace
            return
        fit = fit_grouped_logistic(table)
        beta0, beta1, cov, dev, iterations, _ = expected
        assert fit.beta0 == beta0
        assert fit.beta1 == beta1
        assert np.array_equal(fit.cov, cov)
        assert fit.deviance == dev
        assert fit.iterations == iterations

    def test_vrag_fit_bit_identical(self, vrag_table, vrag_fit):
        beta0, beta1, cov, dev, iterations, _ = _table_rebuilding_fit(vrag_table)
        assert (vrag_fit.beta0, vrag_fit.beta1) == (beta0, beta1)
        assert np.array_equal(vrag_fit.cov, cov)
        assert (vrag_fit.deviance, vrag_fit.iterations) == (dev, iterations)

    @pytest.mark.parametrize("beta0", [-3.0, -0.7, 0.0, 1.3])
    @pytest.mark.parametrize("beta1", [-2.5, -0.1, 0.0, 0.4, 60.0])
    def test_fit_cores_match_table_formulas(self, vrag_table, beta0, beta1):
        # the fit's own score and deviance, over its own arrays; at
        # beta1 = 60 the fitted risks saturate and both deviances are NaN
        for table in (vrag_table, *HALVING_TABLES):
            x, t, e = logistic._arrays(table)
            pi = expit(beta0 + beta1 * x)
            assert np.array_equal(
                logistic._score(x, t, e, pi), oracles.table_score(table, beta0, beta1)
            )
            got = logistic._deviance(t, e, pi, xlogy)
            want = oracles.table_deviance(table, beta0, beta1)
            assert got == want or (math.isnan(got) and math.isnan(want))


# ---------------------------------------------------------------------------
# predict_risk as it stood when it built one validated interval per
# category; the array core must match it bit for bit, errors included


def _expit(x):
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # where scipy's C code divides by inf
        return 0.0


def _scalar_predict_risk(fit, category_index, alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not fit.converged:
        raise NumericalError("predict_risk requires a converged fit")
    xval = float(category_index)
    eta = fit.linear_predictor(xval)
    var = float(
        fit.cov[0, 0] + 2.0 * xval * fit.cov[0, 1] + xval * xval * fit.cov[1, 1]
    )
    if var < 0.0:
        # inverse-information matrices can carry float dust on the diagonal
        if var < -1e-12:
            raise NumericalError(f"negative variance {var} for eta")
        var = 0.0
    se = math.sqrt(var)
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    risk = _expit(eta)
    interval = IntervalEstimate(
        point=risk,
        lower=_expit(eta - z * se),
        upper=_expit(eta + z * se),
        level=1.0 - alpha,
        method="logistic_delta",
    )
    return RiskPrediction(
        category_index=int(category_index), eta=eta, risk=risk, interval=interval
    )


def _scalar_bounds(fit, categories, alpha):
    preds = [_scalar_predict_risk(fit, c, alpha) for c in categories]
    return (
        [p.risk for p in preds],
        [p.interval.lower for p in preds],
        [p.interval.upper for p in preds],
    )


def _raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)
    return None


def _seeded_fits():
    fits = []
    for table in _seeded_tables() + HALVING_TABLES:
        if _finite_mle(table):
            try:
                fits.append((table, fit_grouped_logistic(table)))
            except NonConvergenceError:
                pass
    return fits


def _hand_fit(cov):
    return LogisticFit(
        beta0=-1.5, beta1=0.25, cov=np.array(cov), deviance=0.0, iterations=1,
        converged=True,
    )


PREDICT_ALPHAS = [0.05, 0.2, 0.5, 1.0 - 1e-12]


class TestArrayLevelPrediction:
    @pytest.mark.parametrize("alpha", PREDICT_ALPHAS)
    def test_bit_identical_to_scalar_predictions(self, alpha):
        fits = _seeded_fits()
        assert len(fits) > 40
        for table, fit in fits:
            got = predict_bounds(fit, table.categories, alpha)
            want = _scalar_bounds(fit, table.categories, alpha)
            assert [g.tolist() for g in got] == list(want)

    @pytest.mark.parametrize("alpha", PREDICT_ALPHAS)
    def test_wrapper_matches_scalar_copy(self, vrag_fit, alpha):
        for category in (-3, 0, 1, 5, 9, 30):
            assert predict_risk(vrag_fit, category, alpha) == _scalar_predict_risk(
                vrag_fit, category, alpha
            )

    def test_dust_variance_is_clamped_to_zero(self):
        # var(x) = 2 x c01: -1e-13 at category 1, zero at category 0
        fit = _hand_fit([[0.0, -5e-14], [-5e-14, 0.0]])
        categories = (0, 1, 2)
        risk, lower, upper = predict_bounds(fit, categories, 0.05)
        assert [r.tolist() for r in (risk, lower, upper)] == list(
            _scalar_bounds(fit, categories, 0.05)
        )
        assert lower[1] == risk[1] == upper[1]

    def test_first_bad_category_names_the_error(self):
        # var(x) = -1e-12 x: exactly -1e-12 (clamped) at 1, -2e-12 at 2 and
        # the minimum, -1e-11, at 10; the error names category 2's variance
        fit = _hand_fit([[0.0, -5e-13], [-5e-13, 0.0]])
        categories = (1, 2, 10)
        want = _raised(_scalar_bounds, fit, categories, 0.05)
        assert want == (NumericalError, "negative variance -2e-12 for eta")
        assert _raised(predict_bounds, fit, categories, 0.05) == want
        assert _raised(predict_bounds, fit, (1,), 0.05) is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan"), 1e-20])
    def test_bad_alpha_raises_as_before(self, vrag_fit, vrag_table, alpha):
        # 1e-20 passes the alpha check, and 1 - alpha/2 == 1.0 has no
        # normal quantile
        want = _raised(_scalar_bounds, vrag_fit, vrag_table.categories, alpha)
        assert want is not None
        assert _raised(predict_bounds, vrag_fit, vrag_table.categories, alpha) == want

    @pytest.mark.parametrize("categories", [(2, 1), (1, 2)])
    def test_first_variance_is_checked_before_the_quantile(self, categories):
        # var(x) = -1e-12 x: the scalar route raises at category 2 only if
        # it comes first; otherwise z at alpha 1e-20 raises first
        fit = _hand_fit([[0.0, -5e-13], [-5e-13, 0.0]])
        want = _raised(_scalar_bounds, fit, categories, 1e-20)
        assert want[0] is (NumericalError if categories[0] == 2 else ValueError)
        assert _raised(predict_bounds, fit, categories, 1e-20) == want

    def test_unconverged_fit_is_refused(self, vrag_fit):
        fit = LogisticFit(
            beta0=vrag_fit.beta0, beta1=vrag_fit.beta1, cov=vrag_fit.cov,
            deviance=vrag_fit.deviance, iterations=50, converged=False,
        )
        want = _raised(_scalar_predict_risk, fit, 1, 0.05)
        assert _raised(predict_bounds, fit, (1,), 0.05) == want


def _symmetry_rejected(cov):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            _hand_fit(cov)
        except Exception as exc:  # noqa: BLE001 - later checks may fail too
            return str(exc) == "covariance must be symmetric"
    return False


_TOL = 1e-10
_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "cov",
    [
        [[1.0, 0.0], [_TOL, 1.0]],
        [[1.0, 0.0], [math.nextafter(_TOL, 1.0), 1.0]],
        [[1.0, 0.0], [math.nextafter(_TOL, 0.0), 1.0]],
        [[1.0, -_TOL], [0.0, 1.0]],
        [[1.0, -math.nextafter(_TOL, 1.0)], [0.0, 1.0]],
        [[1.0, 0.5], [0.5 + _TOL, 1.0]],
        [[1.0, 0.5], [0.2, 1.0]],
        [[1.0, _NAN], [_NAN, 1.0]],
        [[1.0, 0.0], [_NAN, 1.0]],
        [[_NAN, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, _NAN]],
        [[1.0, _INF], [_INF, 1.0]],
        [[_INF, _INF], [_INF, _INF]],
        [[1.0, -_INF], [-_INF, 1.0]],
        [[1.0, _INF], [-_INF, 1.0]],
        [[1.0, _INF], [1e308, 1.0]],
        [[_INF, 0.0], [0.0, 1.0]],
    ],
)
def test_symmetry_decision_matches_allclose(cov):
    matrix = np.array(cov)
    with np.errstate(all="ignore"):
        symmetric = np.allclose(matrix, matrix.T, rtol=0.0, atol=_TOL)
    assert _symmetry_rejected(cov) == (not symmetric)
