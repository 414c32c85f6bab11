"""Wilson score intervals and their exact finite-sample coverage.

The score interval for a binomial proportion inverts the normal score test
of H0: p = p0, which keeps the bounds inside [0, 1] and behaves sensibly at
observed proportions of 0 or 1, unlike the Wald interval.

``score_bounds`` computes the bounds for arrays, and nothing else does:
``exact_coverage``, the CLI's table route and the scalar wrapper
``wilson_interval`` all call it.

Real designs have an integer sample size and an integer event count, so
the rows of a category table are real samples: ``CategoryRow`` holds
integer counts with 1 <= total and 0 <= events <= total.  The only float
route is ``wilson_interval`` (the CLI's ``--fictitious`` sweep and the
refuted n = 1 reading).  Its input allows real-valued n so that "what if"
calls with fractional implied event counts (theta_hat * n not an integer)
can be computed; such calls are tagged ``fictitious_wilson`` and flagged
invalid, because no actual sample could have produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._cephes import ndtri

#: Interval construction tags, one per construction this package emits.
METHODS = frozenset({"wilson", "logistic_delta", "fictitious_wilson", "cm1_pseudo"})
#: Constructions that are reproduced for demonstration but are not
#: statistically legitimate; estimates carrying these tags are permanently
#: flagged valid=False.
INVALID_METHODS = frozenset({"fictitious_wilson", "cm1_pseudo"})

_INTEGRAL_TOL = 1e-9


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with lower/upper bounds and a validity flag.

    ``valid`` is False exactly for the refuted constructions
    (``fictitious_wilson`` and ``cm1_pseudo``); downstream consumers must
    never treat those as legitimate confidence intervals.  ``note`` carries
    a machine-readable explanation when the construction is refuted.
    """

    point: float
    lower: float
    upper: float
    level: float
    method: str
    valid: bool
    note: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown interval method {self.method!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"confidence level must be in (0,1), got {self.level}")
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper <= 1, got "
                f"({self.lower}, {self.upper})"
            )
        if not 0.0 <= self.point <= 1.0:
            raise ValueError(f"point estimate must be in [0,1], got {self.point}")
        expected_valid = self.method not in INVALID_METHODS
        if self.valid != expected_valid:
            raise ValueError(
                "valid flag must be False exactly for the refuted methods "
                f"(method={self.method!r}, valid={self.valid})"
            )
        if self.valid and not self.lower <= self.point <= self.upper:
            raise ValueError(
                f"point {self.point} outside bounds "
                f"({self.lower}, {self.upper}) for valid method {self.method!r}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class WilsonInput:
    """Inputs for a score interval: observed proportion, sample size, alpha.

    ``n`` is real-valued on purpose; see the module docstring.
    """

    theta_hat: float
    n: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.theta_hat <= 1.0:
            raise ValueError(f"theta_hat must be in [0,1], got {self.theta_hat}")
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValueError(f"n must be positive and finite, got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")


class CoverageOutcome(NamedTuple):
    k: int
    probability: float
    interval: IntervalEstimate
    covered: bool


@dataclass(frozen=True)
class CoverageReport:
    """Exact coverage of the score interval at one (n, p_true, level).

    ``probability``, ``lower``, ``upper`` and ``covered`` hold one Python
    float (bool for ``covered``) per outcome k = 0..n.  ``per_outcome``
    builds the matching validated ``CoverageOutcome`` objects on first
    access and keeps them.
    """

    n: int
    p_true: float
    level: float
    coverage: float
    probability: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    covered: tuple[bool, ...]

    @cached_property
    def per_outcome(self) -> tuple[CoverageOutcome, ...]:
        # k and n are integers, so every outcome is a real sample; the level
        # is rebuilt through alpha exactly as wilson_interval reports it
        level = 1.0 - (1.0 - self.level)
        return tuple(
            CoverageOutcome(
                k,
                prob,
                IntervalEstimate(
                    point=k / self.n,
                    lower=lower,
                    upper=upper,
                    level=level,
                    method="wilson",
                    valid=True,
                ),
                covered,
            )
            for k, (prob, lower, upper, covered) in enumerate(
                zip(self.probability, self.lower, self.upper, self.covered)
            )
        )


def standard_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: Cephes ndtri, equal to
    ``scipy.special.ndtri`` bit for bit (tested)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0,1), got {p}")
    return ndtri(float(p))


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) <= _INTEGRAL_TOL


def score_bounds(theta, n, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Score bounds (lower, upper) for proportions ``theta`` at sizes ``n``.

    The bounds solve (theta - b)^2 = z^2 b(1-b)/n in b, with z the standard
    normal quantile at 1 - alpha/2, clamped to [0, 1].  ``theta`` and ``n``
    are float arrays, or Python floats from ``wilson_interval``.  The terms
    use arithmetic operators only, so floats and arrays take the same
    rounding steps, and two floats stay Python floats: a scalar call raises
    Python's ``ZeroDivisionError`` where 4 n^2 underflows and prints no
    numpy warning.  Returns float arrays (0-d for two floats).  Internal:
    not in ``riskbounds.__all__``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    # numpy overflows to inf silently, as Python floats do (4 n^2 at
    # totals above about 1e154)
    with np.errstate(over="ignore"):
        center = theta + z2 / (2.0 * n)
        spread = theta * (1.0 - theta) / n + z2 / (4.0 * n * n)
        denom = 1.0 + z2 / n
        half = z * np.sqrt(spread)
        lower = (center - half) / denom
        upper = (center + half) / denom
    # np.where with these comparisons is exactly Python's max/min, -0.0
    # and NaN included
    lower = np.where(lower > 0.0, lower, 0.0)
    upper = np.where(upper < 1.0, upper, 1.0)
    # The formula contains theta by construction; snap away float dust
    # so the containment invariant cannot trip at the boundaries.
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


def wilson_interval(inp: WilsonInput) -> IntervalEstimate:
    """Score interval for one proportion: ``score_bounds`` at one point.

    The result is tagged ``wilson`` only when n >= 1 and n and the implied
    event count theta_hat*n are both integers (within 1e-9); otherwise it
    is tagged ``fictitious_wilson`` and flagged invalid.
    """
    n, th = float(inp.n), float(inp.theta_hat)
    lower, upper = score_bounds(th, n, inp.alpha)
    real_sample = n >= 1.0 and _is_integral(n) and _is_integral(th * n)
    method = "wilson" if real_sample else "fictitious_wilson"
    return IntervalEstimate(
        point=th,
        lower=float(lower),
        upper=float(upper),
        level=1.0 - inp.alpha,
        method=method,
        valid=real_sample,
        note=None if real_sample else "fractional sample: no such design exists",
    )


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Binomial(n, p) mass at k: element k of ``binomial_pmf_array``, and
    0.0 outside 0..n.  Each call costs O(n); for many k, use the array."""
    if not 0 <= k <= n:
        return 0.0
    return float(binomial_pmf_array(n, p)[k])


def binomial_pmf_array(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) mass at every k in 0..n, as a float array.

    Edge cases (k in {0, n}, p in {0, 1}) use direct powers so that, e.g.,
    the mass at k = 0 of Binomial(1, 0.2) is the float 0.8 bit-exactly;
    interior log-masses come from ``gammaln`` to stay finite at large n,
    and each is exponentiated by ``math.exp`` (``np.exp`` may round
    differently in the last bit).
    """
    masses = np.zeros(n + 1)
    if p == 0.0:
        masses[0] = 1.0
    elif p == 1.0:
        masses[n] = 1.0
    else:
        masses[0] = (1.0 - p) ** n
        masses[n] = p**n
        if n == 1:  # no interior outcomes
            return masses
        # imported on first use: scipy.special is most of the start-up time
        from scipy.special import gammaln

        k = np.arange(1, n)
        log_pmf = (
            gammaln(n + 1)
            - gammaln(k + 1)
            - gammaln(n - k + 1)
            + k * math.log(p)
            + (n - k) * math.log1p(-p)
        )
        masses[1:n] = list(map(math.exp, log_pmf.tolist()))
    return masses


def exact_coverage(n: int, p_true: float, level: float) -> CoverageReport:
    """Exact probability that the score interval covers p_true.

    Enumerates every possible outcome k in {0..n} in one vectorized O(n)
    pass: the score bounds for theta_hat = k/n from ``score_bounds``, the
    binomial masses from ``binomial_pmf_array``, and the exact (``fsum``)
    total of the masses whose interval contains p_true.  No simulation is
    involved; the answer is exact up to float arithmetic.  The validated
    per-outcome objects are built only when ``per_outcome`` is first read.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not 0.0 <= p_true <= 1.0:
        raise ValueError(f"p_true must be in [0,1], got {p_true}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    lower, upper = score_bounds(np.arange(n + 1) / n, n, 1.0 - level)
    masses = binomial_pmf_array(n, p_true)
    covered = (lower <= p_true) & (p_true <= upper)
    return CoverageReport(
        n=n,
        p_true=p_true,
        level=level,
        coverage=math.fsum(masses[covered].tolist()),
        probability=tuple(masses.tolist()),
        lower=tuple(lower.tolist()),
        upper=tuple(upper.tolist()),
        covered=tuple(covered.tolist()),
    )
