"""Loader's saddle-point terms, and the chi-square upper tail summed from them.

``stirlerr`` and ``bd0`` are the two pieces of C. Loader, "Fast and accurate
computation of binomial probabilities" (2000), which R's ``dpois`` and
``dbinom`` run.  With them a Poisson-type term x^i e^-x / Gamma(i + 1) is
exp(-stirlerr(i) - bd0(i, x)) / sqrt(2 pi i): the exponent is never a
difference of large log-gammas, so the term keeps its relative accuracy at
any i.

``chi2_upper_tail`` sums such terms.  Only ``math`` is used, so the
clustering test's p-value loads neither numpy nor ``scipy.special``.
"""

from __future__ import annotations

import math

# stirlerr(n) at n = 0, 1/2, 1, ..., 15: 50-digit mpmath values of
# log Gamma(n + 1) - (n + 1/2) log n + n - log sqrt(2 pi), rounded to double
# (pinned in tests/test_loader.py).  stirlerr(0) is infinite; the i = 0 term
# is e^-x and never reads it.
_STIRLERR_HALVES = (
    math.inf,
    0.15342640972002736,
    0.08106146679532726,
    0.05481412105191765,
    0.0413406959554093,
    0.03316287351993629,
    0.02767792568499834,
    0.023746163656297496,
    0.020790672103765093,
    0.018488450532673187,
    0.016644691189821193,
    0.015134973221917378,
    0.013876128823070748,
    0.012810465242920227,
    0.01189670994589177,
    0.011104559758206917,
    0.010411265261972096,
    0.009799416126158804,
    0.009255462182712733,
    0.008768700134139386,
    0.00833056343336287,
    0.00793411456431402,
    0.007573675487951841,
    0.007244554301320383,
    0.00694284010720953,
    0.006665247032707682,
    0.006408994188004207,
    0.006171712263039458,
    0.0059513701127588475,
    0.0057462165130101155,
    0.005554733551962801,
)
# the Stirling series' coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
# a term at most this share of the running sum ends it
_STOP = 1e-17


def stirlerr(n: float) -> float:
    """log Gamma(n + 1) - (n + 1/2) log n + n - log sqrt(2 pi), for n >= 0 a
    multiple of 1/2: the table up to 15, the Stirling series beyond (all
    five of Loader's terms: he drops the last ones from n = 35 on, for
    speed)."""
    if n <= 15.0:
        return _STIRLERR_HALVES[int(2.0 * n)]
    nn = n * n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as s + e exactly, s the rounded sum (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a * b as p + e exactly, p the rounded product (Dekker: each factor
    split into two halves of at most 26 bits).  ``a`` may be any finite
    double, |b| at most 1e300."""
    if abs(a) > 1e300:  # 2**27 a would overflow: scale by a power of 2
        p, e = _two_prod(a * 2.0**-28, b)
        return p * 2.0**28, e * 2.0**28
    p = a * b
    c = 134217729.0 * a  # 2**27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def bd0(i: float, x: float) -> tuple[float, float]:
    """i log(i / x) + x - i for i, x > 0, as an unevaluated sum hi + lo.

    It is the exponent of a term, whose relative error is the exponent's
    absolute error, so it is carried in two doubles (Dekker's exact sums
    and products).  The closed form takes log(i / x) as log(q) + (i - q x)
    / i, q the rounded quotient and i - q x exact, which leaves one
    rounding: math.log's half ulp, times i, at most i |log q| 2**-53.
    Where that exceeds 2**-49 (i |log q| > 16) and |i - x| < (i + x) / 2,
    Loader's series in v = (i - x) / (i + x) is summed instead:
    (i - x) v + 2 i (v^3/3 + v^5/5 + ...), to the term that no longer
    changes it, with (i - x) v in two doubles.  Loader's own rule (the
    series where |i - x| < 0.1 (i + x), else the closed form in one
    double) leaves up to i eps in the exponent: a chi-square tail 2e-12
    off at df 30,000.
    """
    d, d_lo = _two_sum(i, -x)
    q = i / x
    log_q = math.log(q)
    if i * abs(log_q) > 16.0 and abs(d) < 0.5 * (i + x):
        total, total_lo = _two_sum(i, x)
        v = d / total
        p, p_lo = _two_prod(total, v)
        v_lo = ((d - p) - p_lo + d_lo - v * total_lo) / total
        s, s_lo = _two_prod(d, v)
        s_lo += d * v_lo + d_lo * v
        series = 0.0
        ej = 2.0 * i * v
        v2 = v * v
        j = 3.0
        while True:
            ej *= v2
            last, series = series, series + ej / j
            if series == last:
                return _two_sum(s, s_lo + series)
            j += 2.0
    p, p_lo = _two_prod(x, q)
    rho = (i - p) - p_lo  # i - q x, exact
    log_term, log_lo = _two_prod(i, log_q)
    hi, lo = _two_sum(log_term, -d)
    return _two_sum(hi, lo + log_lo + rho - d_lo)


def _poisson_term(i: float, x: float) -> float:
    """x^i e^-x / Gamma(i + 1) for a multiple of 1/2 i >= 0 and x > 0."""
    if i == 0.0:
        return math.exp(-x)
    hi, lo = bd0(i, x)
    y, y_lo = _two_sum(hi, stirlerr(i))
    return math.exp(-y) * (1.0 - (y_lo + lo)) / (_SQRT_2PI * math.sqrt(i))


def _erfc_sqrt(x: float) -> float:
    """erfc(sqrt(x)), the whole tail at df 1, with the rounding of the root
    taken back out.

    erfc(r) falls by a relative 2 r^2 (r' - r) / r as r rises to r', so the
    half-ulp rounding of r = sqrt(x) would cost up to x 2**-52 (1.5e-13 at
    x = 700).  One Taylor step from r to the exact root, whose distance
    (x - r^2) / 2r is read off the exact product r * r, removes it.
    """
    root = math.sqrt(x)
    sq, sq_lo = _two_prod(root, root)
    step = ((sq - x) + sq_lo) / (root * _SQRT_PI)
    return math.erfc(root) + math.exp(-x) * step


def chi2_upper_tail(df: int, stat: float) -> float:
    """P(X >= stat) for X chi-square on an integer ``df`` >= 1 degrees of
    freedom, for a finite ``stat`` >= 0: Q(df/2, stat/2) of the regularized
    incomplete gamma function.

    With a = df/2 and x = stat/2, and t_i = x^i e^-x / Gamma(i + 1), the
    tail is Q = sum of t_i over i = a - 1, a - 2, ... down to 0 when df is
    even, and erfc(sqrt(x)) plus that sum down to 1/2 when df is odd;
    1 - Q = P is the sum of t_i over i = a, a + 1, ...  (Abramowitz and
    Stegun 26.4.4-26.4.5).  The terms rise with i up to about x and fall
    beyond it, so the side away from the mode is summed: Q downward from
    i = a - 1 when a - 1 < x, else P upward from i = a, returning 1 - P
    (then x lies below the median, so P stays under about 1/2 and 1 - P
    loses nothing).  The first term is Loader's; each next term is one
    ratio step (i / x down, x / (i + 1) up), and the sum stops at a term
    that is at most 1e-17 of it.  The stop is ``<=``: a first term that
    underflows to 0 must end the sum at once, and does.  Below x = 1e-33
    the tail rounds to 1 and is returned as such.

    The relative error stays below 2e-13 wherever the tail is at least
    1e-300 (tests/test_loader.py, against 50-digit mpmath).
    """
    if not 0.0 <= stat < math.inf:
        raise ValueError(f"stat must be finite and >= 0, got {stat}")
    a, x = df / 2.0, stat / 2.0
    if x < 1e-33:
        # 1 - Q = P(a, x) <= P(1/2, x) = erf(sqrt(x)) < 2**-54: Q rounds to 1
        return 1.0
    if df == 1:
        return _erfc_sqrt(x)
    if a - 1.0 < x:
        i = a - 1.0
        total = term = _poisson_term(i, x)
        while i >= 1.0 and term > _STOP * total:
            term *= i / x
            i -= 1.0
            total += term
        if df % 2:
            # from df 3 on erfc(sqrt(x)) is at most 1/(2x) of Q, so the
            # rounding of the root costs Q under 2**-53 and is left in
            total += math.erfc(math.sqrt(x))
        return total
    i = a
    total = term = _poisson_term(i, x)
    while term > _STOP * total:
        i += 1.0
        term *= x / i
        total += term
    return 1.0 - total
