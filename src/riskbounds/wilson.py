"""Wilson score intervals and their exact finite-sample coverage.

The score interval for a binomial proportion inverts the normal score test
of H0: p = p0, which keeps the bounds inside [0, 1] and behaves sensibly at
observed proportions of 0 or 1, unlike the Wald interval.

``score_bounds`` computes the bounds, and nothing else does: on arrays for
``exact_coverage``, and on two Python floats for the CLI's table route (one
call per row) and the scalar wrapper ``wilson_interval``.  numpy is
imported on the first array call, so the float route loads none.
``exact_coverage`` computes masses and bounds only on the O(sqrt(n)) run of
outcomes whose interval covers p; the full outcome table of a
``CoverageReport`` is built when it is first read.

Real designs have an integer sample size and an integer event count, so
the rows of a category table are real samples: ``CategoryRow`` holds
integer counts with 1 <= total and 0 <= events <= total.  The only float
route is ``wilson_interval`` (the CLI's ``--fictitious`` sweep and the
refuted n = 1 reading).  It takes a real-valued n so that "what if" calls
with fractional implied event counts (theta_hat * n not an integer) can be
computed; such calls are tagged ``fictitious_wilson`` and flagged invalid,
because no actual sample could have produced them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._cephes import ndtri
from .data import check_integer

#: Interval construction tags, one per construction this package emits.
METHODS = frozenset({"wilson", "logistic_delta", "fictitious_wilson", "cm1_pseudo"})
#: Constructions that are reproduced for demonstration but are not
#: statistically legitimate; an estimate carrying one of these tags is
#: never ``valid``.
INVALID_METHODS = frozenset({"fictitious_wilson", "cm1_pseudo"})

_INTEGRAL_TOL = 1e-9

np = None  # numpy, bound by _numpy() on the first array call


def _numpy():
    """numpy, imported on first use and kept as the module global ``np``.

    The hot functions read the global: an import statement in each of
    them costs a lookup per call.
    """
    global np
    if np is None:
        import numpy

        np = numpy
    return np


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with lower/upper bounds, tagged by its construction.

    ``valid`` is derived from the tag: False exactly for the refuted
    constructions (``fictitious_wilson`` and ``cm1_pseudo``); downstream
    consumers must never treat those as legitimate confidence intervals.
    ``note`` carries a machine-readable explanation when the construction
    is refuted.
    """

    point: float
    lower: float
    upper: float
    level: float
    method: str
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
        if self.valid and not self.lower <= self.point <= self.upper:
            raise ValueError(
                f"point {self.point} outside bounds "
                f"({self.lower}, {self.upper}) for valid method {self.method!r}"
            )

    @property
    def valid(self) -> bool:
        return self.method not in INVALID_METHODS

    @property
    def width(self) -> float:
        return self.upper - self.lower


class CoverageOutcome(NamedTuple):
    k: int
    probability: float
    interval: IntervalEstimate
    covered: bool


@dataclass(frozen=True)
class CoverageReport:
    """Exact coverage of the score interval at one (n, p_true, level).

    ``exact_coverage`` stores only these four fields.  The masses, bounds
    and covered flags of all n + 1 outcomes are built on first read, as
    one cached tuple of read-only arrays (``_arrays``: masses, lower
    bounds, upper bounds, covered flags); that read also re-sums the covered masses
    over every outcome and raises AssertionError unless the total equals
    ``coverage``, so each reader of the table re-proves the window.
    ``probability``, ``lower``, ``upper`` and ``covered`` turn the arrays
    into tuples of Python floats (bools for ``covered``), one per outcome
    k = 0..n, and ``per_outcome`` into validated ``CoverageOutcome``
    objects; each is built on first read and kept.  Equality and hashing
    use the four fields: the arrays are a deterministic function of the
    first three.
    """

    n: int
    p_true: float
    level: float
    coverage: float

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arrays, total = _outcomes(self.n, self.p_true, self.level, 0, self.n)
        if total != self.coverage:
            raise AssertionError(
                f"coverage over all {self.n + 1} outcomes is {total!r}, "
                f"not the windowed {self.coverage!r}"
            )
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    @cached_property
    def probability(self) -> tuple[float, ...]:
        return tuple(self._arrays[0].tolist())

    @cached_property
    def lower(self) -> tuple[float, ...]:
        return tuple(self._arrays[1].tolist())

    @cached_property
    def upper(self) -> tuple[float, ...]:
        return tuple(self._arrays[2].tolist())

    @cached_property
    def covered(self) -> tuple[bool, ...]:
        return tuple(self._arrays[3].tolist())

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


def check_tail(name: str, value: float, alpha: float) -> None:
    """Refuse ``name`` = ``value`` unless it lies in (0, 1) and its two-sided
    tail ``alpha`` leaves the quantile point 1 - alpha/2 below 1.

    Every z and t here is taken at 1 - alpha/2, which rounds to 1 for an
    alpha at or below 2**-53 (a level that close to 1); the quantile there
    is infinite.  A level at or below 2**-54 is refused too: its alpha =
    1 - level rounds to 1.  A value that passes also keeps the level
    1 - alpha below 1.  Internal: not in ``riskbounds.__all__``.
    """
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0,1), got {value}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(
            f"{name} = {value!r} is too close to {round(value)}: "
            "its quantile point 1 - alpha/2 rounds to 1"
        )
    if alpha == 1.0:
        raise ValueError(
            f"{name} = {value!r} is too close to 0: its alpha = 1 - {name} "
            "rounds to 1"
        )


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) <= _INTEGRAL_TOL


def score_bounds(theta, n, alpha: float):
    """Score bounds (lower, upper) for proportions ``theta`` at sizes ``n``.

    The bounds solve (theta - b)^2 = z^2 b(1-b)/n in b, with z the standard
    normal quantile at 1 - alpha/2, clamped to [0, 1].  ``theta`` and ``n``
    are float arrays, or two Python floats (``wilson_interval`` and the
    CLI's table route).  The terms use arithmetic operators only, so floats
    and arrays take the same rounding steps, and two floats stay Python
    floats: a scalar call raises Python's ``ZeroDivisionError``, naming n,
    where 4 n^2 underflows and prints no numpy warning.  Two floats take
    ``math.sqrt`` and conditional clamps and snaps, which are exactly the
    ``np.sqrt`` and ``np.where`` of arrays, and load no numpy.  Returns two float
    arrays, or two Python floats for two floats.  Internal: not in
    ``riskbounds.__all__``.

    The clamped bounds are returned at once when lower <= theta <= upper
    holds at every entry, which is nearly every call.  That is exactly
    what the full check would return: no NaN passes the test, and
    lower - theta <= 0 and theta - upper <= 0 mean that neither snap
    tolerance is exceeded and neither snap moves a bound; the clamps
    already give 0 <= lower and upper <= 1.  Otherwise every entry is
    snapped to theta within 1e-9, or AssertionError names the entry off by
    the most, and ValueError names the first entry still out of order
    (a NaN theta, say).
    """
    check_tail("alpha", alpha, alpha)
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    floats = type(theta) is float and type(n) is float
    # numpy overflows to inf silently, as Python floats do (4 n^2 at
    # totals above about 1e154)
    with nullcontext() if floats else _numpy().errstate(over="ignore"):
        center = theta + z2 / (2.0 * n)
        try:
            spread = theta * (1.0 - theta) / n + z2 / (4.0 * n * n)
        except ZeroDivisionError:  # Python floats only: arrays give inf
            raise ZeroDivisionError(f"4 n**2 underflows to 0 at n = {n!r}") from None
        denom = 1.0 + z2 / n
        if floats:
            # np.sqrt gives NaN for a negative spread (theta outside [0, 1])
            half = z * (math.sqrt(spread) if spread >= 0.0 else math.nan)
        else:
            half = z * np.sqrt(spread)
        lower = (center - half) / denom
        upper = (center + half) / denom
    # np.where with these comparisons is exactly Python's max/min, -0.0
    # and NaN included
    if floats:
        lower = lower if lower > 0.0 else 0.0
        upper = upper if upper < 1.0 else 1.0
        if lower <= theta <= upper:
            return lower, upper
        # the array block below at one entry, index 0
        if lower - theta > 1e-9:
            raise AssertionError(f"wilson lower bound {lower} above point {theta}")
        lower = theta if lower > theta else lower
        if theta - upper > 1e-9:
            raise AssertionError(f"wilson upper bound {upper} below point {theta}")
        upper = theta if upper < theta else upper
        if not 0.0 <= lower <= theta <= upper <= 1.0:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= point <= upper <= 1, got "
                f"({lower}, {theta}, {upper}) at index 0"
            )
        return lower, upper
    lower = np.where(lower > 0.0, lower, 0.0)
    upper = np.where(upper < 1.0, upper, 1.0)
    th = np.asarray(theta, dtype=float)
    if ((lower <= th) & (th <= upper)).all():
        return lower, upper
    # The formula contains theta by construction; snap away float dust
    # so the containment invariant cannot trip at the boundaries.
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


def wilson_interval(theta_hat: float, n: float, alpha: float) -> IntervalEstimate:
    """Score interval for one proportion: ``score_bounds`` at one point.

    ``n`` is real-valued on purpose; see the module docstring.  theta_hat
    must lie in [0, 1] and n be positive and finite; ``score_bounds``
    checks alpha.  The result is tagged ``wilson`` only when n >= 1 and n
    and the implied event count theta_hat*n are both integers (within
    1e-9); otherwise it is tagged ``fictitious_wilson`` and flagged invalid.
    """
    if not 0.0 <= theta_hat <= 1.0:
        raise ValueError(f"theta_hat must be in [0,1], got {theta_hat}")
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"n must be positive and finite, got {n}")
    n, th = float(n), float(theta_hat)
    lower, upper = score_bounds(th, n, alpha)
    real_sample = n >= 1.0 and _is_integral(n) and _is_integral(th * n)
    method = "wilson" if real_sample else "fictitious_wilson"
    return IntervalEstimate(
        point=th,
        lower=lower,
        upper=upper,
        level=1.0 - alpha,
        method=method,
        note=None if real_sample else "fractional sample: no such design exists",
    )


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Binomial(n, p) mass at k: the slice k..k of ``binomial_pmf_array``,
    and 0.0 outside 0..n."""
    if not 0 <= k <= n:
        return 0.0
    return float(binomial_pmf_array(n, p, k, k)[0])


def _reserve_outcomes(n: int) -> None:
    """Raise ValueError for an n whose n + 1 outcomes cannot be allocated.

    ``np.empty`` reserves address space and touches no page, so this costs
    the same at any n.
    """
    try:
        _numpy().empty(n + 1)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise ValueError(
            f"n = {n}: its {n + 1} outcomes do not fit in memory"
        ) from None


def binomial_pmf_array(
    n: int, p: float, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Binomial(n, p) mass at every k in lo..hi (default 0..n), as a float
    array of hi - lo + 1 entries.

    Edge cases (k in {0, n}, p in {0, 1}) use direct powers so that, e.g.,
    the mass at k = 0 of Binomial(1, 0.2) is the float 0.8 bit-exactly.
    Interior log-masses come from ``gammaln`` to stay finite at large n.
    Each mass is an elementwise function of (k, n, p), so a slice holds the
    same doubles as the same entries of the full array.  A slice that is its
    own mirror (k -> n - k), such as the full range, needs one row of
    log-factorials, ``gammaln(k + 1)``, which reversed serves as
    ``gammaln(n - k + 1)``: the same arguments give the same doubles.  Every
    interior log-mass is exponentiated by ``math.exp`` (``np.exp`` may round
    differently in the last bit); a mass below the least subnormal double
    comes out +0.0.  The rows k and n - k are built as floats: they hold
    integers below 2**53 (an n past that cannot be allocated), so they are
    the doubles that an integer row would be cast to, without the cast.  An
    ``n`` whose n + 1 outcomes cannot be allocated raises ValueError,
    whatever the slice.
    """
    hi = n if hi is None else hi
    _reserve_outcomes(n)
    masses = np.zeros(hi - lo + 1)
    if p == 0.0:
        if lo == 0:
            masses[0] = 1.0
    elif p == 1.0:
        if hi == n:
            masses[-1] = 1.0
    else:
        if lo == 0:
            masses[0] = (1.0 - p) ** n
        if hi == n:
            masses[-1] = p**n
        first, last = max(lo, 1), min(hi, n - 1)  # the interior outcomes
        if first > last:
            return masses
        # imported on first use: scipy.special is most of the start-up time
        from scipy.special import gammaln

        k = np.arange(float(first), last + 1.0)
        rest = n - k
        log_factorial = gammaln(k + 1.0)
        mirror = log_factorial[::-1] if first + last == n else gammaln(rest + 1.0)
        log_pmf = (
            gammaln(float(n + 1))
            - log_factorial
            - mirror
            + k * math.log(p)
            + rest * math.log1p(-p)
        )
        masses[first - lo : last - lo + 1] = np.fromiter(
            map(math.exp, log_pmf.tolist()), float, len(log_pmf)
        )
    return masses


def _outcomes(
    n: int, p_true: float, level: float, lo: int, hi: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float]:
    """Masses, score bounds and covered flags of the outcomes k = lo..hi,
    and the exact (``fsum``) total of the covered masses."""
    masses = binomial_pmf_array(n, p_true, lo, hi)
    lower, upper = score_bounds(np.arange(float(lo), hi + 1.0) / n, n, 1.0 - level)
    covered = (lower <= p_true) & (p_true <= upper)
    return (masses, lower, upper, covered), math.fsum(masses[covered].tolist())


def exact_coverage(n: int, p_true: float, level: float) -> CoverageReport:
    """Exact probability that the score interval covers p_true.

    The score interval inverts the score test, so p_true lies in the
    interval at k/n exactly when |k - n p| <= z sqrt(n p (1 - p)): the
    covering outcomes form one run around n p.  That run is found in closed
    form and widened by 2 on each side, clipped to 0..n; the score bounds
    (``score_bounds``, with all its checks) and binomial masses
    (``binomial_pmf_array``) are computed on that slice alone, each widened
    end that is not 0 or n must be uncovered (else AssertionError), and
    ``coverage`` is the exact (``fsum``) total of the covered masses.  Every
    entry is an elementwise function of k, so this equals the sum over all
    n + 1 outcomes bit for bit, at O(sqrt(n)) cost.  No simulation is
    involved; the answer is exact up to float arithmetic.  The full outcome
    table is built, and the sum re-checked, only when the report's arrays
    are first read.

    Accuracy at large n: the rounding error of ln Gamma(n + 1) is about
    eps n ln n, and it enters every mass as a relative error: about 5e-7 at
    n = 1e8 (where the coverage at p = 0.2, level 0.95 is 1.4e-7 off a
    40-digit mpmath sum), 5e-6 at 1e9 and 6e-4 at 1e11, pulling the
    coverage away from nominal.  The domain stays what the full table
    allows: an n whose n + 1 outcomes cannot be allocated raises ValueError
    before any work.
    """
    check_integer(n, "n")
    if not 0.0 <= p_true <= 1.0:
        raise ValueError(f"p_true must be in [0,1], got {p_true}")
    check_tail("level", level, 1.0 - level)
    _reserve_outcomes(n)  # refuse an n the full table could not hold, before any work
    z = standard_normal_quantile(1.0 - (1.0 - level) / 2.0)
    center = n * p_true
    half = z * math.sqrt(center * (1.0 - p_true))
    lo = max(math.floor(center - half) - 2, 0)
    hi = min(math.ceil(center + half) + 2, n)
    (_, _, _, covered), coverage = _outcomes(n, p_true, level, lo, hi)
    for k, flag in ((lo, covered[0]), (hi, covered[-1])):
        if flag and 0 < k < n:
            raise AssertionError(
                f"coverage window {lo}..{hi} at n = {n}, p = {p_true!r}, "
                f"level = {level!r}: its end k = {k} is covered"
            )
    return CoverageReport(n, p_true, level, coverage)
