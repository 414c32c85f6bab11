"""Reproductions of two invalid "individual risk" interval recipes.

Both recipes circulate in the violence-risk-assessment literature and both
are implemented here only so that their output can be inspected, taught
against, and compared with legitimate group-risk intervals.  Every estimate
this module produces carries a refuted method tag, so its ``valid`` is
False, and a machine-readable note saying why.

Recipe one ("hmc"): take the Wilson score interval, force n = 1, and read
the result as a confidence interval for a single person's latent risk.
The arithmetic runs fine; the interpretation does not.  A fixed-parameter
confidence procedure evaluated on one binary outcome cannot attain its
nominal coverage for a latent probability, and the n = 1 inputs are
usually fictitious anyway (no one observed a sample of size one with a
fractional event count).

Recipe two ("cm1"): compute ordinary linear-regression prediction-interval
bounds on the log-odds scale, with a claimed residual standard deviation
sigma_hat, then push the bounds through the logistic map.  Grouped
logistic fits have no residual sigma in this sense, and the resulting
interval never narrows with sample size: as n grows its half-width on the
log-odds scale tends to z * sigma_hat rather than 0.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .data import check_integer
from .wilson import IntervalEstimate, check_tail, wilson_interval

NOTE_SINGLE_OUTCOME = (
    "single-outcome Wilson interval misread as an individual-risk interval"
)
NOTE_PREDICTION_INTERVAL = (
    "linear-regression prediction interval pushed through the logistic map"
)

REFUTATION_BANNER = (
    "REFUTED CONSTRUCTION: the bounds below are not a valid confidence\n"
    "interval for any individual's risk. They are reproduced only to\n"
    "document the mistake; do not use them for inference."
)


def student_t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF (absolute error well below 1e-8)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0,1), got {p}")
    check_integer(df, "degrees of freedom")
    # imported on first use: scipy.special is most of the start-up time
    from scipy.special import stdtrit

    return float(stdtrit(df, p))


def hmc_individual_interval(theta_hat: float, alpha: float = 0.05) -> IntervalEstimate:
    """Wilson interval with n forced to 1, flagged as refuted.

    The bounds are exactly what wilson_interval produces for n = 1; the
    method tag is forced to ``fictitious_wilson``, so valid is False, even
    when theta_hat is 0 or 1 (the only n = 1 values a real sample could
    show), because the *reading* of the interval as individual risk is
    what is being refuted, not just the arithmetic.
    """
    base = wilson_interval(theta_hat, 1.0, alpha)
    return replace(base, method="fictitious_wilson", note=NOTE_SINGLE_OUTCOME)


def cm1_pseudo_interval(
    beta0: float, beta1: float, sigma_hat: float, n: int, x_bar: float,
    ss_x: float, x_new: float, alpha: float, df: int | None = None,
) -> IntervalEstimate:
    """Linear-regression prediction bounds mapped through the logistic.

    On the log-odds scale the half-width is
    t * sigma_hat * sqrt(1 + 1/n + (x_new - x_bar)^2 / ss_x),
    centered at beta0 + beta1 * x_new, with t the Student quantile at
    1 - alpha/2.  Degrees of freedom default to n - 2 (the simple linear
    regression convention), so n = 2 needs ``df``; pass ``df`` to override,
    e.g. to probe what a different convention would have produced.

    ``sigma_hat`` must be supplied by the caller; there is deliberately no
    default and no estimator for it, because a grouped logistic fit has no
    residual standard deviation of this kind.  Inventing one would
    misrepresent both the recipe and its refutation.
    """
    check_integer(n, "n", 2)
    if sigma_hat < 0.0:
        raise ValueError(f"sigma_hat must be >= 0, got {sigma_hat}")
    if ss_x <= 0.0:
        raise ValueError(f"ss_x must be > 0, got {ss_x}")
    check_tail("alpha", alpha, alpha)
    finite = dict(
        beta0=beta0, beta1=beta1, sigma_hat=sigma_hat, x_bar=x_bar, ss_x=ss_x,
        x_new=x_new,
    )
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if df is None:
        if n == 2:
            raise ValueError("the default df = n - 2 needs n >= 3, got n = 2")
        df = n - 2
    t = student_t_quantile(1.0 - alpha / 2.0, df)
    # student_t_quantile has already imported scipy.special
    from scipy.special import expit

    difference = x_new - x_bar
    if not math.isfinite(difference):  # two finite doubles that overflow
        raise ArithmeticError(
            f"x_new - x_bar overflows at x_new = {x_new!r}, x_bar = {x_bar!r}"
        )
    try:
        leverage = difference**2 / ss_x
    except OverflowError:  # float ** raises where * would give inf
        raise ArithmeticError(
            f"(x_new - x_bar)**2 / ss_x overflows at x_new - x_bar = {difference!r}"
        ) from None
    spread = math.sqrt(1.0 + 1.0 / n + leverage)
    half = t * sigma_hat * spread
    eta = beta0 + beta1 * x_new
    return IntervalEstimate(
        point=float(expit(eta)),
        lower=float(expit(eta - half)),
        upper=float(expit(eta + half)),
        level=1.0 - alpha,
        method="cm1_pseudo",
        note=NOTE_PREDICTION_INTERVAL,
    )
