"""Logistic regression on grouped binomial counts, with risk intervals.

The model is logit(risk) = beta0 + beta1 * category, with the category
index used directly as the predictor (equal spacing, no centering).  The
fit is plain Newton-Raphson on the binomial log-likelihood, which for this
model is the same thing as iteratively reweighted least squares.

Confidence intervals for per-category risks are built on the linear
predictor scale (eta +/- z * SE(eta), with SE from the inverse observed
information) and then pushed through the logistic map, so the bounds are
automatically inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import CategoryTable, InputError, NumericalError
from .wilson import IntervalEstimate, check_tail, standard_normal_quantile

DEVIANCE_TOL = 1e-10
MAX_ITERATIONS = 50
_MAX_HALVINGS = 12


class NonConvergenceError(NumericalError):
    """Newton iterations did not converge; carries the iteration trace."""

    def __init__(self, message: str, trace: list[tuple[int, float, float, float]]):
        super().__init__(message)
        self.trace = trace


class SeparationError(NumericalError):
    """A predictor perfectly splits outcomes; the MLE is at infinity."""


@dataclass(frozen=True, eq=False)
class LogisticFit:
    """Converged fit: coefficients, covariance, deviance, iteration record."""

    beta0: float
    beta1: float
    cov: np.ndarray
    deviance: float
    iterations: int
    converged: bool

    def __post_init__(self):
        # a private copy: freezing the caller's array would lock it too
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError(f"covariance must be 2x2, got shape {cov.shape}")
        # np.allclose(cov, cov.T, rtol=0, atol=1e-10) at scalar cost: a NaN
        # fails, equal infinities pass, finite pairs within 1e-10 pass
        c00, c01, c10, c11 = cov.ravel().tolist()
        if not (c00 == c00 and c11 == c11 and (c01 == c10 or abs(c01 - c10) <= 1e-10)):
            raise ValueError("covariance must be symmetric")
        # eigvalsh returns NaN for infinite entries, which the PSD test passes
        if not np.isfinite(cov).all():
            raise ValueError("covariance entries must be finite")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semi-definite")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)

    def linear_predictor(self, category_index: int | float) -> float:
        return self.beta0 + self.beta1 * category_index


@dataclass(frozen=True)
class RiskPrediction:
    """Fitted risk for one category, with its delta-method interval."""

    category_index: int
    eta: float
    risk: float
    interval: IntervalEstimate


class TrendTest(NamedTuple):
    wald_chi2: float
    p_value: float


def _arrays(table: CategoryTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.array([r.category for r in table.rows], dtype=float)
    t = np.array([r.total for r in table.rows], dtype=float)
    e = np.array([r.events for r in table.rows], dtype=float)
    return x, t, e


def _ufuncs():
    """scipy.special's array expit and xlogy, imported on first use.

    The Newton loop keeps these array forms: per-element ``math`` forms
    give the same doubles but make a fit slower.
    """
    from scipy.special import expit, xlogy

    return expit, xlogy


def _score_information(x, t, e, pi) -> tuple[np.ndarray, np.ndarray]:
    """The score and the observed information at the fitted risks ``pi``.

    The five products e - t*pi, x times it, w = t*pi*(1 - pi), w*x and
    w*x*x fill the rows of one ``(5, k)`` array, summed by one reduction.
    """
    products = np.empty((5, x.size))
    resid, xresid, w, wx, wxx = products
    np.multiply(t, pi, out=wx)  # t*pi, kept in the w*x row until w is built
    np.subtract(e, wx, out=resid)
    np.multiply(x, resid, out=xresid)
    np.subtract(1.0, pi, out=w)
    np.multiply(wx, w, out=w)
    np.multiply(w, x, out=wx)
    np.multiply(wx, x, out=wxx)
    sums = products.sum(axis=1)
    return sums[:2], sums[[2, 3, 3, 4]].reshape(2, 2)


def _deviance(t, e, pi, xlogy) -> float:
    mu = t * pi
    rest = t - e
    # xlogy gives 0 for 0*log(0), which is the right convention here; at
    # extreme slopes mu can saturate to 0 or t, making the ratio inf/nan,
    # and the fitting loop treats the resulting non-finite deviance as a
    # failed step, so the divide warnings are deliberately silenced
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = xlogy(e, e / mu) + xlogy(rest, rest / (t - mu))
    return float(2.0 * terms.sum())


def _check_overlap(table: CategoryTable) -> None:
    """Raise ``SeparationError`` unless the MLE is finite.

    For logit(risk) = beta0 + beta1 * category the MLE exists exactly when
    events and non-events overlap on the category axis, i.e. neither is
    confined to categories at or below every category of the other
    (complete or quasi-complete separation; Albert & Anderson 1984,
    Biometrika 71:1-10).  Decided from the integer counts alone.
    """
    # rows are in increasing category order
    events = [r.category for r in table.rows if r.events > 0]
    non_events = [r.category for r in table.rows if r.events < r.total]
    for low, high, below, above in (
        ("event", "non-event", events, non_events),
        ("non-event", "event", non_events, events),
    ):
        if below[-1] <= above[0]:
            raise SeparationError(
                f"the data are separated: every {low} is in categories "
                f"<= {below[-1]} and every {high} in categories >= {above[0]}, "
                "so the MLE does not exist"
            )


def fit_grouped_logistic(table: CategoryTable) -> LogisticFit:
    """Maximum-likelihood fit of logit(risk) = beta0 + beta1 * category.

    Starts at beta0 = logit(pooled proportion), beta1 = 0 and runs Newton
    steps (with step halving if the deviance ever rises) until the
    deviance changes by less than 1e-10 or 50 iterations pass.  The
    covariance is the inverse observed information at the MLE.  A table
    whose MLE is at infinity (see ``_check_overlap``) raises
    ``SeparationError`` before any Newton step; totals so large that a
    step's sums overflow raise ``NumericalError`` naming the overflow.

    Each step takes the two score sums and the three information sums from
    one ``.sum(axis=1)`` over a ``(5, k)`` array of products.  numpy sums
    each contiguous row pairwise, exactly as ``row.sum()`` does, so the
    sums are those of five separate reductions, bit for bit;
    ``tests/test_logistic.py`` pins this for k up to 300.
    """
    if len(table.rows) < 2:
        raise InputError("regression fit needs at least 2 strata")
    total_events = table.total_events
    total_subjects = table.total_subjects
    if total_events == 0 or total_events == total_subjects:
        raise InputError(
            "all-zero or all-event tables carry no information about a trend"
        )
    _check_overlap(table)

    expit, xlogy = _ufuncs()
    x, t, e = _arrays(table)

    def evaluate(b0, b1):
        # the fitted risks at (b0, b1), computed once and shared by the
        # score, the information and the deviance there
        pi = expit(b0 + b1 * x)
        return pi, _deviance(t, e, pi, xlogy)

    # the coefficients and the step are Python floats: their sums and
    # halvings are the IEEE operations of the length-2 array forms
    pooled = total_events / total_subjects
    b0, b1 = math.log(pooled / (1.0 - pooled)), 0.0
    # totals near the largest double overflow the sums of a step: numpy
    # reports each overflow to ``overflows``, set once for the whole fit, and
    # a step that fails after one raises a NumericalError naming it
    overflows: list[str] = []
    with np.errstate(over="call", call=lambda kind, flag: overflows.append(kind)):
        pi, dev = evaluate(b0, b1)
        trace: list[tuple[int, float, float, float]] = [(0, b0, b1, dev)]

        for iteration in range(1, MAX_ITERATIONS + 1):
            grad, info = _score_information(x, t, e, pi)
            try:
                s0, s1 = np.linalg.solve(info, grad).tolist()
            except np.linalg.LinAlgError as exc:
                _check_overflow(overflows, iteration)
                raise NumericalError(
                    f"information matrix singular at iteration {iteration}"
                ) from exc

            # the full step, then up to _MAX_HALVINGS halvings of it, until
            # the deviance does not rise
            for _ in range(_MAX_HALVINGS + 1):
                c0, c1 = b0 + s0, b1 + s1
                new_pi, new_dev = evaluate(c0, c1)
                if math.isfinite(new_dev) and new_dev <= dev + 1e-12:
                    break
                s0, s1 = s0 / 2.0, s1 / 2.0
            else:
                _check_overflow(overflows, iteration)
                raise NonConvergenceError(
                    f"deviance would not decrease at iteration {iteration}", trace
                )

            b0, b1, pi = c0, c1, new_pi
            trace.append((iteration, b0, b1, new_dev))
            if abs(dev - new_dev) < DEVIANCE_TOL:
                cov = np.linalg.inv(_score_information(x, t, e, pi)[1])
                cov = (cov + cov.T) / 2.0
                return LogisticFit(
                    beta0=b0,
                    beta1=b1,
                    cov=cov,
                    deviance=new_dev,
                    iterations=iteration,
                    converged=True,
                )
            dev = new_dev

    raise NonConvergenceError(
        f"no convergence after {MAX_ITERATIONS} iterations", trace
    )


def _check_overflow(overflows: list[str], iteration: int) -> None:
    """Raise NumericalError if numpy reported an overflow during the fit."""
    if overflows:
        raise NumericalError(
            f"the Newton sums overflow at iteration {iteration}: the totals "
            "are too large for doubles"
        )


def predict_bounds(
    fit: LogisticFit, categories, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fitted risks and delta-method bounds (risk, lower, upper) at once.

    ``categories`` is a sequence of category indices.  One numpy pass over
    all of them takes the per-category formula's rounding steps, so each
    element equals what the scalar wrapper ``predict_risk`` returns for
    that category, and a failure raises the error of the first category
    that fails.  Internal: not in ``riskbounds.__all__``.
    """
    check_tail("alpha", alpha, alpha)
    if not fit.converged:
        raise NumericalError("predict_risk requires a converged fit")
    x = np.asarray(categories, dtype=float)
    cov = fit.cov
    eta = fit.beta0 + fit.beta1 * x
    var = cov[0, 0] + 2.0 * x * cov[0, 1] + x * x * cov[1, 1]
    # inverse-information matrices can carry float dust on the diagonal:
    # variances in [-1e-12, 0) count as 0, lower ones raise
    negative = var < -1e-12
    se = np.sqrt(np.where(var < 0.0, 0.0, var))
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    expit = _ufuncs()[0]
    risk = expit(eta)
    lower = expit(eta - z * se)
    upper = expit(eta + z * se)
    # the IntervalEstimate invariants, checked once over the arrays
    ordered = (0.0 <= lower) & (lower <= risk) & (risk <= upper) & (upper <= 1.0)
    failed = negative | ~ordered
    if failed.any():
        k = int(np.argmax(failed))
        if negative[k]:
            raise NumericalError(f"negative variance {float(var[k])} for eta")
        _interval(float(risk[k]), float(lower[k]), float(upper[k]), 1.0 - alpha)
    return risk, lower, upper


def _interval(risk: float, lower: float, upper: float, level: float):
    return IntervalEstimate(
        point=risk,
        lower=lower,
        upper=upper,
        level=level,
        method="logistic_delta",
    )


def predict_risk(
    fit: LogisticFit, category_index: int, alpha: float
) -> RiskPrediction:
    """Fitted risk and delta-method interval for one category.

    The interval is eta +/- z*SE(eta) on the linear-predictor scale,
    transformed through the logistic map, so its bounds always lie strictly
    inside (0, 1) and shrink to the point estimate as alpha -> 1.  A
    negative variance below -1e-12 raises; float dust above it counts as
    zero.  The scalar wrapper of ``predict_bounds``.
    """
    xval = float(category_index)
    risk, lower, upper = (float(v[0]) for v in predict_bounds(fit, [xval], alpha))
    return RiskPrediction(
        category_index=int(category_index),
        eta=fit.linear_predictor(xval),
        risk=risk,
        interval=_interval(risk, lower, upper, 1.0 - alpha),
    )


def trend_test(fit: LogisticFit) -> TrendTest:
    """Wald test of beta1 = 0: chi2 = beta1^2 / var(beta1), 1 df."""
    var = float(fit.cov[1, 1])
    if var <= 0.0:
        raise NumericalError("slope variance is zero; trend test undefined")
    chi2 = fit.beta1 * fit.beta1 / var
    # chi-square(1) upper tail equals erfc(sqrt(x/2))
    p_value = math.erfc(math.sqrt(chi2 / 2.0))
    return TrendTest(wald_chi2=chi2, p_value=p_value)

