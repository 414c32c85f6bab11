"""Independent numerical routes used to cross-check the package.

Everything here is written from first principles (rational
approximations, companion-matrix root finding, brute-force enumeration,
arbitrary-precision bisection) so that a bug in the package cannot hide
behind shared code. Nothing in this module imports from riskbounds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import expit, ndtri, xlogy

# ---------------------------------------------------------------------------
# inverse standard normal CDF: Acklam's rational approximation plus one
# Halley refinement step driven by erfc, good to ~1e-15

_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # Halley refinement against the exact CDF expressed through erfc
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# Student t: CDF via the regularized incomplete beta at 50 digits,
# quantile by bisection, plus the algebraic closed forms for 1 and 2
# degrees of freedom


def t_cdf(x: float, df: int) -> float:
    with mpmath.workdps(50):
        xx = mpmath.mpf(x)
        v = mpmath.mpf(df)
        if x == 0.0:
            return 0.5
        tail = mpmath.betainc(
            v / 2, mpmath.mpf(1) / 2, 0, v / (v + xx * xx), regularized=True
        )
        return float(1 - tail / 2 if x > 0 else tail / 2)


def _t_quantile_mp(p: float, df: int) -> mpmath.mpf:
    """Quantile at the 50-digit working precision of the caller.

    ``p`` is read as the binary double it is, not as its decimal repr:
    the package receives the double, so that is what is inverted.
    """
    target = mpmath.mpf(p)
    v = mpmath.mpf(df)

    def cdf(x):
        if x == 0:
            return mpmath.mpf(1) / 2
        tail = mpmath.betainc(
            v / 2, mpmath.mpf(1) / 2, 0, v / (v + x * x), regularized=True
        )
        return 1 - tail / 2 if x > 0 else tail / 2

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    sign = 1
    if target < mpmath.mpf(1) / 2:
        target = 1 - target
        sign = -1
    while cdf(hi) < target:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return sign * (lo + hi) / 2


def t_quantile(p: float, df: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    with mpmath.workdps(50):
        return float(_t_quantile_mp(p, df))


def t_quantile_df1(p: float) -> float:
    return math.tan(math.pi * (p - 0.5))


def t_quantile_df2(p: float) -> float:
    return (2.0 * p - 1.0) * math.sqrt(2.0 / (4.0 * p * (1.0 - p)))


def cm1_interval(
    beta0: float,
    beta1: float,
    sigma_hat: float,
    n: int,
    x_bar: float,
    ss_x: float,
    x_new: float,
    alpha: float,
) -> tuple[float, float, float]:
    """(point, lower, upper) of the log-odds prediction interval.

    Everything after the quantile level is evaluated at 50 digits and
    rounded once at the end. The level 1 - alpha/2 is formed in double
    arithmetic, as the package forms it, and df is n - 2.
    """
    p = 1.0 - alpha / 2.0
    with mpmath.workdps(50):
        t = _t_quantile_mp(p, n - 2)
        spread = mpmath.sqrt(
            1 + mpmath.mpf(1) / n + (mpmath.mpf(x_new) - x_bar) ** 2 / ss_x
        )
        half = t * sigma_hat * spread
        eta = mpmath.mpf(beta0) + mpmath.mpf(beta1) * x_new

        def expit(z):
            return 1 / (1 + mpmath.exp(-z))

        return float(expit(eta)), float(expit(eta - half)), float(expit(eta + half))


def chi2_survival_1df(x: float) -> float:
    """P(X > x) for a 1-df chi-square, through the normal tail."""
    with mpmath.workdps(50):
        return float(2 * mpmath.ncdf(-mpmath.sqrt(x)))


# ---------------------------------------------------------------------------
# score-interval bounds as roots of the defining quadratic, found by the
# companion-matrix eigenvalue route rather than the closed form


def wilson_bounds_by_roots(theta: float, n: float, z: float) -> tuple[float, float]:
    a = 1.0 + z * z / n
    b = -(2.0 * theta + z * z / n)
    c = theta * theta
    roots = np.sort(np.real(np.roots([a, b, c])))
    return float(roots[0]), float(roots[1])


def coverage_by_roots(n: int, p: float, level: float) -> float:
    """Exact interval coverage from comb() mass and root-found bounds.

    The masses and their sum are taken at 50 digits, so that comb(n, k)
    beyond the float range (from n of about 1030) stays exact."""
    z = normal_quantile(0.5 + level / 2.0)
    with mpmath.workdps(50):
        p_mp = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for k in range(n + 1):
            lower, upper = wilson_bounds_by_roots(k / n, n, z)
            if lower <= p <= upper:
                total += math.comb(n, k) * p_mp**k * (1 - p_mp) ** (n - k)
        return float(total)


def score_bounds_checked(theta, n, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form score bounds with the clamp, snap and check run at every
    call: each bound is clamped to [0, 1], snapped to theta when within
    1e-9 of the wrong side (AssertionError when further), and the order
    0 <= lower <= theta <= upper <= 1 checked (ValueError).  z is scipy's
    ``ndtri`` as a Python float, so that two floats stay Python floats.
    The reference for a fast route that skips the snap when every bound
    already contains its point."""
    z = float(ndtri(1.0 - alpha / 2.0))
    z2 = z * z
    with np.errstate(over="ignore"):
        center = theta + z2 / (2.0 * n)
        spread = theta * (1.0 - theta) / n + z2 / (4.0 * n * n)
        denom = 1.0 + z2 / n
        half = z * np.sqrt(spread)
        lower = (center - half) / denom
        upper = (center + half) / denom
    lower = np.where(lower > 0.0, lower, 0.0)
    upper = np.where(upper < 1.0, upper, 1.0)
    th = np.asarray(theta, dtype=float)
    if (lower - th > 1e-9).any():
        k = int(np.argmax(lower - th))
        raise AssertionError(
            f"wilson lower bound {lower.flat[k]} above point {th.flat[k]}"
        )
    lower = np.where(lower > th, th, lower)
    if (th - upper > 1e-9).any():
        k = int(np.argmax(th - upper))
        raise AssertionError(
            f"wilson upper bound {upper.flat[k]} below point {th.flat[k]}"
        )
    upper = np.where(upper < th, th, upper)
    ordered = (0.0 <= lower) & (lower <= th) & (th <= upper) & (upper <= 1.0)
    if not ordered.all():
        k = int(np.argmin(ordered))
        raise ValueError(
            f"bounds must satisfy 0 <= lower <= point <= upper <= 1, got "
            f"({lower.flat[k]}, {th.flat[k]}, {upper.flat[k]}) at index {k}"
        )
    return lower, upper


# ---------------------------------------------------------------------------
# event-count distributions without collapsing the mixture to its mean


def convolve_bernoulli(pmf: list[float], risk: float) -> list[float]:
    out = [0.0] * (len(pmf) + 1)
    for k, mass in enumerate(pmf):
        out[k] += mass * (1.0 - risk)
        out[k + 1] += mass * risk
    return out


def count_distribution_enumerated(
    atoms: list[tuple[float, float]], n: int
) -> list[float]:
    """Enumerate every assignment of mixture atoms to individuals.

    ``atoms`` is a list of (risk, weight) pairs with weights summing to
    one. Each of the len(atoms)**n assignments contributes its weight
    times the convolution of the assigned Bernoulli masses, so the
    result never uses the mixture's mean.
    """
    dist = [0.0] * (n + 1)
    for assignment in itertools.product(range(len(atoms)), repeat=n):
        weight = 1.0
        pmf = [1.0]
        for idx in assignment:
            risk, w = atoms[idx]
            weight *= w
            pmf = convolve_bernoulli(pmf, risk)
        for k, mass in enumerate(pmf):
            dist[k] += weight * mass
    return dist


def count_distribution_quadrature(a: float, b: float, n: int) -> list[float]:
    """Count distribution for beta-distributed risks.

    The per-individual event probability is the beta mean obtained by
    Gauss-Legendre quadrature of p * density; the count distribution is
    then built by convolving n independent Bernoulli masses.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    # map [-1, 1] to [0, 1]
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    const = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
    density = const * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)
    mean = float(np.sum(w * x * density))
    pmf = [1.0]
    for _ in range(n):
        pmf = convolve_bernoulli(pmf, mean)
    return pmf


def total_variation(p: list[float], q: list[float]) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q, strict=True))


def binomial_pmf_exact(n: int, k: int, p: Fraction) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


# ---------------------------------------------------------------------------
# two-stratum grouped logistic fit in closed form (the saturated case),
# with the information matrix inverted by hand


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def two_point_logistic(
    c1: float, t1: float, e1: float, c2: float, t2: float, e2: float
) -> tuple[float, float, tuple[tuple[float, float], tuple[float, float]]]:
    p1, p2 = e1 / t1, e2 / t2
    beta1 = (logit(p2) - logit(p1)) / (c2 - c1)
    beta0 = logit(p1) - beta1 * c1
    w1 = t1 * p1 * (1.0 - p1)
    w2 = t2 * p2 * (1.0 - p2)
    i11 = w1 + w2
    i12 = c1 * w1 + c2 * w2
    i22 = c1 * c1 * w1 + c2 * c2 * w2
    det = i11 * i22 - i12 * i12
    cov = ((i22 / det, -i12 / det), (-i12 / det, i11 / det))
    return beta0, beta1, cov


def saturated_two_stratum_mle(rows) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(beta0, beta1) of a two-stratum table at 50 digits.

    ``rows`` holds two (category, total, events) triples with
    1 <= events <= total - 1.  Two strata and two parameters make the model
    saturated: the fitted risks are the observed proportions, so beta
    follows from the two observed logits.
    """
    (c1, t1, e1), (c2, t2, e2) = rows
    with mpmath.workdps(50):
        l1 = mpmath.log(mpmath.mpf(e1) / (t1 - e1))
        l2 = mpmath.log(mpmath.mpf(e2) / (t2 - e2))
        beta1 = (l2 - l1) / (c2 - c1)
        return l1 - beta1 * c1, beta1


# ---------------------------------------------------------------------------
# the grouped binomial likelihood of logit(risk) = beta0 + beta1 * category,
# rebuilt from a table's rows on every call: the log-likelihood through
# logaddexp, a second route beside the deviance's xlogy


def table_arrays(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Categories, totals and events of ``table.rows`` as float arrays."""
    x = np.array([r.category for r in table.rows], dtype=float)
    t = np.array([r.total for r in table.rows], dtype=float)
    e = np.array([r.events for r in table.rows], dtype=float)
    return x, t, e


def table_log_likelihood(table, beta0: float, beta1: float) -> float:
    """Log-likelihood up to the additive combinatorial constant."""
    x, t, e = table_arrays(table)
    eta = beta0 + beta1 * x
    return float(np.sum(e * eta - t * np.logaddexp(0.0, eta)))


def table_score(table, beta0: float, beta1: float) -> np.ndarray:
    """Gradient of the log-likelihood in (beta0, beta1)."""
    x, t, e = table_arrays(table)
    resid = e - t * expit(beta0 + beta1 * x)
    return np.array([resid.sum(), (x * resid).sum()])


def table_deviance(table, beta0: float, beta1: float) -> float:
    """-2 log-likelihood relative to the saturated model (NaN past overflow)."""
    x, t, e = table_arrays(table)
    mu = t * expit(beta0 + beta1 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = xlogy(e, e / mu) + xlogy(t - e, (t - e) / (t - mu))
    return float(2.0 * terms.sum())


# ---------------------------------------------------------------------------
# Pearson homogeneity statistic straight from the 2-by-n contingency
# table formula, via outer products


def homogeneity_statistic_contingency(counts: np.ndarray, repeats: int) -> float:
    events = counts.astype(float)
    failures = repeats - events
    observed = np.stack([events, failures], axis=1)
    row_totals = observed.sum(axis=1, keepdims=True)
    col_totals = observed.sum(axis=0, keepdims=True)
    expected = row_totals @ col_totals / observed.sum()
    return float(((observed - expected) ** 2 / expected).sum())


# ---------------------------------------------------------------------------
# the README's substream contract, through public numpy only: person i of a
# run seeded with s draws from default_rng(child i of SeedSequence(s).spawn(n))


def substream_generators(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def repeated_outcomes(draw_risk, n: int, m: int, seed: int) -> np.ndarray:
    """n x m binary outcomes; ``draw_risk(rng)`` draws one person's risk."""
    rows = np.empty((n, m), dtype=np.int64)
    for i, rng in enumerate(substream_generators(seed, n)):
        risk = draw_risk(rng)
        rows[i] = rng.random(m) < risk
    return rows


def threshold_cohort(
    n: int,
    seed: int,
    *,
    threshold_location: float,
    threshold_spread: float,
    fluctuation_sd: float,
    provocation_rate: float,
    strength_location: float,
    strength_spread: float,
    follow_up: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One outcome and the drawn mean threshold per person.

    A person has an event when any of a Poisson(rate * follow-up) number of
    normal provocation strengths, less normal fluctuations, tops the
    threshold.
    """
    outcomes = np.zeros(n, dtype=np.int64)
    thresholds = np.empty(n)
    intensity = provocation_rate * follow_up
    for i, rng in enumerate(substream_generators(seed, n)):
        thresholds[i] = threshold_location + threshold_spread * rng.standard_normal()
        count = rng.poisson(intensity) if intensity > 0.0 else 0
        if count > 0:
            strengths = strength_location + strength_spread * rng.standard_normal(count)
            fluctuations = fluctuation_sd * rng.standard_normal(count)
            outcomes[i] = np.any(strengths - fluctuations > thresholds[i])
    return outcomes, thresholds
