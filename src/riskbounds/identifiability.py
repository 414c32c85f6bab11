"""Exact and Monte Carlo machinery for the identifiability experiments.

With a single binary outcome per person, the total event count from i.i.d.
sampling is Binomial(n, mean risk) regardless of how individual risks are
distributed around that mean, so single-outcome data cannot distinguish a
homogeneous cohort from a heterogeneous one with the same mean.  Repeated
observation of the same individuals breaks the tie: heterogeneity shows up
as clustering of like outcomes within individuals, which a plain
chi-square homogeneity test (or an intraclass correlation) picks up.

A small threshold/provocation cohort generator is included to manufacture
heterogeneous populations with known, analytically computed individual
risks: each person has a latent mean threshold, provocations arrive as a
Poisson process, and an event occurs when any provocation's strength tops
the momentarily fluctuating threshold.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, Union

import numpy as np

from ._loader import chi2_upper_tail
from .data import InputError, check_integer
# binomial_pmf stays importable from this module: perfbench/tracing.py
# wraps the scalar pmf at this name as well as in wilson
from .wilson import binomial_pmf, binomial_pmf_array  # noqa: F401

_MEAN_MATCH_TOL = 1e-12
#: Designs with fewer than this many total observations also get a
#: permutation p-value next to the asymptotic chi-square one.
SMALL_DESIGN_THRESHOLD = 40
PERMUTATION_COUNT = 10_000


# ---------------------------------------------------------------------------
# per-person substreams
#
# Person i of a run seeded with s draws from child i of
# SeedSequence(s).spawn(n) through PCG64, as default_rng(child) would.
# Building that generator per person is nearly all SeedSequence hashing,
# done one child at a time.  The children differ only in their spawn key
# (i,), which is the last word SeedSequence hashes, so numpy mixes the seed
# once (SeedSequence(s).pool) and this module hashes the key word of every
# child into that pool in one numpy pass.  The pass ends with the four
# 64-bit output words PCG64 asks its seed sequence for, and PCG64 seeds
# itself from them through a stand-in sequence that hands them over.  The
# constants are numpy's (numpy/random/bit_generator.pyx);
# tests/test_identifiability.py compares the words with the children's
# generate_state(4, np.uint64) and with a plain-loop oracle of the
# documented algorithm, and the seeded PCG64 with PCG64(child), so an
# upstream change fails there.
#
# A point or two-point population reads nothing from a generator but
# uniforms: person i of a design with m repeats uses the first m + 1 (a
# two-point risk compares the first with w1, then the outcomes compare the
# next m with the risk; a point risk compares the first m with p).  Those
# depend on (seed, n, m) alone, and a matched pair runs both populations
# at one seed, so the last call's uniforms are kept, read-only ((m + 1) * 8
# bytes per person, 48 MB for a million people at m = 5), and the second
# population builds no generator.  They are the doubles that drawing the
# risk and then the m outcomes from each generator gives, so no draw
# changes.  A beta risk takes a varying number of words from its gamma
# draws, so it draws person by person.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_multipliers(init: int, mult: int, count: int) -> list[int]:
    """SeedSequence's running hash multiplier over ``count`` hashes."""
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & _MASK32)
    return out


def _hashmix(value, before, after):
    """One SeedSequence hash of arrays of 32-bit words held in uint64."""
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


# generate_state(4, np.uint64) hashes 8 words, cycling through the pool
_OUT_MULTIPLIERS = _hash_multipliers(_INIT_B, _MULT_B, 8)
_OUT_BEFORE = np.array(_OUT_MULTIPLIERS[:-1], dtype=np.uint64)[:, None]
_OUT_AFTER = np.array(_OUT_MULTIPLIERS[1:], dtype=np.uint64)[:, None]
_OUT_POOL_WORD = np.arange(8) % _POOL_SIZE


@functools.cache
def _key_steps(word_count: int):
    """The ``(before, after)`` multipliers of a spawned child's key hashes.

    A seed of ``word_count`` words (at least the pool size) takes
    _POOL_SIZE * word_count hashes to mix; the key's _POOL_SIZE hashes come
    next and go back as two uint64 columns for the numpy pass.
    """
    mults = _hash_multipliers(_INIT_A, _MULT_A, _POOL_SIZE * (word_count + 1))
    key_steps = np.array(mults[-_POOL_SIZE - 1:], dtype=np.uint64)
    key_steps.setflags(write=False)  # every caller shares the cached entry
    return key_steps[:-1, None], key_steps[1:, None]


def _substream_states(seed: int, n: int) -> np.ndarray:
    """Row i: ``SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)``.

    ``seed`` must be a non-negative int and n at most 2**32, so that every
    spawn key is the single 32-bit word i.  The ``(n, 4)`` uint64 array is
    C-contiguous, so each row is the block of words PCG64 seeds from.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    # the seed's 32-bit words (one for seed 0, as numpy coerces it), padded
    # to the pool size as a spawned sequence pads them before its key
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    key_before, key_after = _key_steps(words)
    key = _hashmix(np.arange(n, dtype=np.uint64), key_before, key_after)
    out = _hashmix(_mix(pool, key)[_OUT_POOL_WORD], _OUT_BEFORE, _OUT_AFTER)
    # little-endian pairs of 32-bit words make each 64-bit word
    return np.ascontiguousarray((out[0::2] | (out[1::2] << 32)).T)


@functools.cache
def _child_words():
    """The stand-in seed sequence type, defined on first use.

    PCG64 accepts only a SeedSequence or an ISeedSequence subclass, and
    importing numpy.random at module level would load it on every CLI call.
    """
    from numpy.random.bit_generator import ISeedSequence

    class ChildWords(ISeedSequence):
        """Hands PCG64 the words one child's generate_state(4, uint64) gives.

        PCG64 asks once, for exactly those, and reads them through the
        array's data pointer, so ``words`` must be 4 contiguous uint64s.
        """

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return ChildWords


def _substreams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """Yield person i's Generator, for i = 0..n-1."""
    child_words = _child_words()
    for words in _substream_states(seed, n):
        yield np.random.Generator(np.random.PCG64(child_words(words)))


@functools.lru_cache(maxsize=1)
def _person_uniforms(seed: int, n: int, width: int) -> np.ndarray:
    """Row i: the first ``width`` uniforms of person i's generator.

    Read-only, because the last call's array is kept for the next call
    with the same (seed, n, width).
    """
    uniforms = np.empty((n, width))
    for row, rng in zip(uniforms, _substreams(seed, n)):
        rng.random(out=row)
    uniforms.setflags(write=False)
    return uniforms


# ---------------------------------------------------------------------------
# risk distributions


@dataclass(frozen=True)
class PointRisk:
    """Every individual shares the same risk p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"risk must be in [0,1], got {self.p}")

    def mean(self) -> float:
        return self.p


@dataclass(frozen=True)
class TwoPointRisk:
    """Risk p1 with probability w1, else risk p2."""

    p1: float
    w1: float
    p2: float

    def __post_init__(self):
        for name in ("p1", "p2", "w1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0,1], got {value}")

    def mean(self) -> float:
        return self.w1 * self.p1 + (1.0 - self.w1) * self.p2


@dataclass(frozen=True)
class BetaRisk:
    """Risk drawn from a Beta(a, b) distribution (mean a/(a+b))."""

    a: float
    b: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise InputError(
                f"beta parameters must be finite and > 0, got ({self.a}, {self.b})"
            )

    def mean(self) -> float:
        return self.a / (self.a + self.b)


RiskDistribution = Union[PointRisk, TwoPointRisk, BetaRisk]


@dataclass(frozen=True)
class ScenarioSpec:
    """A population to experiment on: risk mixture, design, and seed."""

    risk_distribution: RiskDistribution
    sample_size: int
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        check_integer(self.sample_size, "sample_size")
        check_integer(self.repeats, "repeats")
        check_integer(self.seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class RepeatedOutcomes:
    """Balanced panel of binary outcomes: one row of m repeats per person."""

    outcomes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.outcomes)
        if arr.ndim != 2:
            raise InputError("outcomes must be a 2-D (individuals x repeats) array")
        if arr.shape[1] < 1:
            raise InputError("each individual needs at least one observation")
        # checked before the cast, which would truncate 0.5 to 0; a bool
        # array holds nothing else
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise InputError("outcomes must be 0 or 1")
        arr = np.array(arr, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)

    @property
    def n_individuals(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_repeats(self) -> int:
        return self.outcomes.shape[1]


# ---------------------------------------------------------------------------
# exact single-outcome results


def exact_count_distribution(spec: ScenarioSpec) -> np.ndarray:
    """Exact distribution of the total event count for a single-outcome design.

    Each individual's outcome is marginally Bernoulli(mean risk), and with
    risks drawn independently per individual the outcomes are independent,
    so the count is exactly Binomial(sample_size, mean risk) whatever the
    risk mixture looks like.  Returns a vector of length sample_size + 1.
    """
    if spec.repeats != 1:
        raise InputError(
            f"exact count distribution requires repeats=1, got {spec.repeats}"
        )
    mu = spec.risk_distribution.mean()
    n = spec.sample_size
    return binomial_pmf_array(n, mu)


def marginal_equivalence_check(
    spec_a: ScenarioSpec,
    spec_b: ScenarioSpec,
    n: int,
    strict: bool = True,
) -> float:
    """Total variation distance between two exact count distributions.

    With ``strict=True`` (default) the two mixtures must have equal mean
    risk, since that is the premise of the equivalence property; unequal
    means raise InputError.  Pass ``strict=False`` to compute the distance
    for arbitrary pairs (e.g. to see the gap between mean 0.3 and 0.4).
    """
    if spec_a.repeats != 1 or spec_b.repeats != 1:
        raise InputError("marginal equivalence is about single-outcome designs")
    mean_a = spec_a.risk_distribution.mean()
    mean_b = spec_b.risk_distribution.mean()
    if strict and abs(mean_a - mean_b) > _MEAN_MATCH_TOL:
        raise InputError(
            f"mean risks differ ({mean_a} vs {mean_b}); the equivalence "
            "property only holds at equal means (pass strict=False to "
            "compute the distance anyway)"
        )
    dist_a = exact_count_distribution(replace(spec_a, sample_size=n))
    dist_b = exact_count_distribution(replace(spec_b, sample_size=n))
    return float(0.5 * np.abs(dist_a - dist_b).sum())


# ---------------------------------------------------------------------------
# repeated-measures simulation and tests


def simulate_repeated(spec: ScenarioSpec) -> RepeatedOutcomes:
    """Draw each individual's risk once, then m Bernoulli outcomes from it.

    Every individual gets an independent PRNG substream spawned from the
    scenario seed, so results are reproducible bit-for-bit and individuals
    can be simulated independently.  For point and two-point risks the last
    call's first m + 1 uniforms per person are kept, read-only ((m + 1) * 8
    bytes per person, 48 MB for a million people at m = 5), so the second
    population of a matched pair at one seed draws nothing anew; no draw
    changes.
    """
    n, m = spec.sample_size, spec.repeats
    dist = spec.risk_distribution
    if isinstance(dist, BetaRisk):
        uniforms = np.empty((n, m))
        risks = []
        for i, rng in enumerate(_substreams(spec.seed, n)):
            risks.append(float(rng.beta(dist.a, dist.b)))
            rng.random(out=uniforms[i])
        rows = uniforms < np.array(risks)[:, None]
    else:
        uniforms = _person_uniforms(spec.seed, n, m + 1)
        if isinstance(dist, PointRisk):
            rows = uniforms[:, :m] < dist.p
        else:
            risks = np.where(uniforms[:, 0] < dist.w1, dist.p1, dist.p2)
            rows = uniforms[:, 1:] < risks[:, None]
    return RepeatedOutcomes(outcomes=rows)


@dataclass(frozen=True)
class ClusteringTest:
    """Homogeneity test of per-individual success counts.

    ``p_value`` is the asymptotic chi-square tail with df = n - 1, summed
    by ``_loader.chi2_upper_tail`` in pure Python (no scipy).  For
    designs with fewer than SMALL_DESIGN_THRESHOLD total observations,
    ``p_value_permutation`` holds a permutation p-value as well: outcomes
    shuffled across individuals a fixed PERMUTATION_COUNT (10,000) times,
    and the add-one rule's (1 + exceedances) / 10,001.  ``undefined`` flags
    pooled proportions of 0 or 1, where no test is possible and p_value is
    reported as 1.
    """

    statistic: float
    df: int
    p_value: float
    p_value_permutation: float | None
    undefined: bool


@functools.lru_cache(maxsize=1)
def _permutation_table(permutation_seed: int, size: int) -> np.ndarray:
    """Row r: the positions 0..size-1 in the order of the r-th of the
    PERMUTATION_COUNT (10,000) shuffles.

    Each row of ``Generator.permuted`` is one Fisher-Yates pass whose swaps
    come from ``random_interval(i)`` draws for i = size-1 down to 1; the
    values never affect them.  Gathering the outcomes through this table
    therefore gives exactly the shuffles of
    ``permuted(np.tile(outcomes, (PERMUTATION_COUNT, 1)), axis=1)``.  The
    shuffle runs on intp, which numpy permutes twice as fast as int8.
    Positions stay below SMALL_DESIGN_THRESHOLD, so the table is kept as
    int8 (0.4 MB at 10,000 rows of 39), read-only, for the next call with
    the same (permutation_seed, size).
    """
    table = np.tile(np.arange(size), (PERMUTATION_COUNT, 1))
    np.random.default_rng(permutation_seed).permuted(table, axis=1, out=table)
    table = table.astype(np.int8)
    table.setflags(write=False)
    return table


def clustering_test(
    data: RepeatedOutcomes,
    permutation_seed: int = 0,
) -> ClusteringTest:
    """Pearson chi-square test that all individuals share one risk.

    Compares each individual's success count against the pooled proportion;
    large values mean outcomes cluster within individuals, i.e. risks
    genuinely differ between people.  Small p-values therefore signal risk
    heterogeneity that single-outcome data could never reveal.

    For designs of fewer than SMALL_DESIGN_THRESHOLD observations the
    outcomes are also shuffled across individuals a fixed
    PERMUTATION_COUNT (10,000) times, seeded by ``permutation_seed`` (a
    non-negative int).  The shuffles depend only on (permutation_seed,
    n*m), so the last table of them is kept and reused by the next call
    that asks for it.
    """
    check_integer(permutation_seed, "permutation_seed", 0)
    n, m = data.n_individuals, data.n_repeats
    if n < 2:
        raise InputError("clustering test needs at least 2 individuals")
    if m < 2:
        raise InputError("clustering test needs at least 2 repeats per individual")
    counts = data.outcomes.sum(axis=1)
    p_hat = float(counts.sum()) / (n * m)
    if p_hat == 0.0 or p_hat == 1.0:
        return ClusteringTest(
            statistic=0.0,
            df=n - 1,
            p_value=1.0,
            p_value_permutation=None,
            undefined=True,
        )
    stat = float(((counts - m * p_hat) ** 2).sum() / (m * p_hat * (1.0 - p_hat)))
    p_value = chi2_upper_tail(n - 1, stat)
    p_perm = None
    if n * m < SMALL_DESIGN_THRESHOLD:
        table = _permutation_table(permutation_seed, n * m)
        outcomes = data.outcomes.ravel().astype(np.int8)
        shuffled = np.take(outcomes, table).reshape(PERMUTATION_COUNT, n, m)
        # adding m columns beats a reduction over a short inner axis; a
        # count of at most m < SMALL_DESIGN_THRESHOLD fits in int8
        perm_counts = shuffled[:, :, 0].copy()
        for j in range(1, m):
            perm_counts += shuffled[:, :, j]
        # every shuffle keeps the total, so the statistic rises with the sum
        # of squared counts alone: equal sums give statistics equal up to
        # rounding, and unequal sums differ by at least 2, which moves the
        # statistic by at least 8/m, so the integer sums decide exactly
        perm_squares = np.einsum("ij,ij->i", perm_counts, perm_counts, dtype=np.int64)
        exceed = int(np.count_nonzero(perm_squares >= int(counts @ counts)))
        # add-one rule keeps the Monte Carlo p-value away from exact zero
        p_perm = (1 + exceed) / (1 + PERMUTATION_COUNT)
    return ClusteringTest(
        statistic=stat,
        df=n - 1,
        p_value=p_value,
        p_value_permutation=p_perm,
        undefined=False,
    )


@dataclass(frozen=True)
class IccEstimate:
    """Moment-based intraclass correlation; NaN, and ``undefined``, when the
    ANOVA denominator is 0 (every outcome the same)."""

    value: float

    @property
    def undefined(self) -> bool:
        return math.isnan(self.value)


def icc_estimate(data: RepeatedOutcomes) -> IccEstimate:
    """One-way analysis-of-variance intraclass correlation for binary rows.

    Ranges from -1/(m-1) (maximal within-individual churn) through 0
    (pure chance clustering) to 1 (every individual perfectly consistent).
    """
    n, m = data.n_individuals, data.n_repeats
    if n < 2:
        raise InputError("ICC needs at least 2 individuals")
    if m < 2:
        raise InputError("ICC needs at least 2 repeats per individual")
    y = data.outcomes.astype(float)
    # sums of 0/1 are exact, so these equal y.mean(axis=1) and y.mean()
    row_sums = y.sum(axis=1)
    row_means = row_sums / m
    # the scalar steps on Python floats: the same IEEE operations, without
    # numpy's per-scalar overhead
    grand = float(row_sums.sum()) / (n * m)
    ms_between = m * float(((row_means - grand) ** 2).sum()) / (n - 1)
    ms_within = float(((y - row_means[:, None]) ** 2).sum()) / (n * (m - 1))
    denom = ms_between + (m - 1) * ms_within
    if denom == 0.0:
        return IccEstimate(value=math.nan)
    return IccEstimate(value=(ms_between - ms_within) / denom)


# ---------------------------------------------------------------------------
# threshold/provocation cohort model


@dataclass(frozen=True)
class ThresholdModelSpec:
    """Latent mechanism generating heterogeneous individual risks.

    Each individual carries a mean threshold drawn from a normal
    distribution (location, spread).  Provocations arrive as a Poisson
    process at ``provocation_rate`` per unit time over ``follow_up`` time
    units; each has a normal strength and faces the threshold displaced by
    normal fluctuation noise.  An event is any provocation whose strength
    exceeds the fluctuating threshold.
    """

    threshold_location: float
    threshold_spread: float
    fluctuation_sd: float
    provocation_rate: float
    strength_location: float
    strength_spread: float
    follow_up: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InputError(f"{f.name} must be finite, got {value}")
        if self.provocation_rate < 0.0:
            raise InputError(
                f"provocation_rate must be >= 0, got {self.provocation_rate}"
            )
        if self.follow_up <= 0.0:
            raise InputError(f"follow_up must be > 0, got {self.follow_up}")
        for name in ("threshold_spread", "fluctuation_sd", "strength_spread"):
            value = getattr(self, name)
            if value < 0.0:
                raise InputError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class ThresholdCohort:
    """Simulated single-outcome cohort plus each person's exact latent risk."""

    outcomes: RepeatedOutcomes
    latent_risks: np.ndarray


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def latent_risk(spec: ThresholdModelSpec, mean_threshold: float) -> float:
    """Exact event probability for one individual with the given threshold.

    A provocation beats the threshold when strength - fluctuation exceeds
    it; that difference is normal, so the per-provocation exceedance
    probability q has a closed form, and thinning the Poisson provocation
    stream gives risk = 1 - exp(-rate * follow_up * q).
    """
    sd = math.hypot(spec.strength_spread, spec.fluctuation_sd)
    diff = spec.strength_location - mean_threshold
    if sd == 0.0:
        q = 1.0 if diff > 0.0 else (0.5 if diff == 0.0 else 0.0)
    else:
        q = _norm_cdf(diff / sd)
    return -math.expm1(-spec.provocation_rate * spec.follow_up * q)


def simulate_threshold_cohort(
    spec: ThresholdModelSpec, n: int, seed: int = 0
) -> ThresholdCohort:
    """Simulate one follow-up period for n individuals (one outcome each).

    Returns the observed outcomes together with each individual's exact
    latent risk given their drawn threshold, so simulations can be checked
    against closed-form expectations rather than against themselves.
    """
    check_integer(n, "cohort size")
    check_integer(seed, "seed", 0)
    events, risks = [], []
    intensity = spec.provocation_rate * spec.follow_up
    loc, spread = spec.strength_location, spec.strength_spread
    sd = spec.fluctuation_sd
    for rng in _substreams(seed, n):
        threshold = (
            spec.threshold_location + spec.threshold_spread * rng.standard_normal()
        )
        risks.append(latent_risk(spec, threshold))
        try:
            count = rng.poisson(intensity) if intensity > 0.0 else 0
        except ValueError as exc:  # numpy refuses a rate above its own limit
            raise ValueError(
                f"provocation_rate * follow_up = {intensity!r} is too large "
                "for a Poisson draw"
            ) from exc
        # one draw gives the strengths' normals, then the fluctuations'
        normals = rng.standard_normal(2 * count).tolist() if count > 0 else []
        events.append(
            any(
                loc + spread * a - sd * b > threshold
                for a, b in zip(normals[:count], normals[count:])
            )
        )
    risks = np.array(risks)
    risks.setflags(write=False)
    return ThresholdCohort(
        outcomes=RepeatedOutcomes(outcomes=np.array(events).reshape(n, 1)),
        latent_risks=risks,
    )


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class ThresholdScenario:
    """A threshold-model run as described by one config section."""

    model: ThresholdModelSpec
    cohort_size: int
    seed: int

    def __post_init__(self):
        check_integer(self.cohort_size, "cohort_size")
        check_integer(self.seed, "seed", 0)


_RISK_TYPES = {"point": PointRisk, "two_point": TwoPointRisk, "beta": BetaRisk}
# the keys a section may leave out, and the value each then takes
_DEFAULTS = {
    "seed": 0,
    "repeats": 1,
    "threshold_spread": 0.0,
    "fluctuation_sd": 0.0,
    "strength_spread": 0.0,
}


def _read_section(
    section: configparser.SectionProxy,
) -> ScenarioSpec | ThresholdScenario:
    """The spec one config section describes.

    Keys are read in this order: ``seed``, then the fields of
    ThresholdModelSpec and ``cohort_size`` for a threshold section, or the
    fields of the risk type, ``sample_size`` and ``repeats`` for a risk
    mixture.  Any other key, [DEFAULT] keys included, raises.
    """
    read: set[str] = set()

    def value(key: str, convert=float):
        read.add(key)
        if key in section:
            return convert(section[key])
        if key not in _DEFAULTS:
            raise InputError(f"missing key {key!r}")
        return _DEFAULTS[key]

    def from_fields(spec_type):
        return spec_type(*[value(f.name) for f in fields(spec_type)])

    seed = value("seed", int)
    if section.get("model") == "threshold":
        read.add("model")
        model = from_fields(ThresholdModelSpec)
        spec = ThresholdScenario(model, value("cohort_size", int), seed)
    elif "distribution" in section:
        read.add("distribution")
        kind = section["distribution"]
        if kind not in _RISK_TYPES:
            raise InputError(
                f"unknown distribution {kind!r} (expected point, two_point, or beta)"
            )
        risk = from_fields(_RISK_TYPES[kind])
        spec = ScenarioSpec(
            risk, value("sample_size", int), value("repeats", int), seed
        )
    else:
        raise InputError("needs either a 'distribution' key or 'model = threshold'")
    for key in section:
        if key not in read:
            raise InputError(f"unknown key {key!r}")
    return spec


def read_scenario_config(text: str) -> dict[str, ScenarioSpec | ThresholdScenario]:
    """Parse an INI-style config into scenario and threshold-model specs.

    Each section is either a risk-mixture scenario (key ``distribution``)
    or a threshold-model run (key ``model = threshold``).  A section's
    seed is its ``seed`` key, or 0 when it has none.  Every error in a
    section names the section.
    """
    # literal values: an interpolation could only name a key the section refuses
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InputError(f"bad config: {exc}") from exc
    if not parser.sections():
        raise InputError("config defines no scenario sections")

    specs: dict[str, ScenarioSpec | ThresholdScenario] = {}
    for name in parser.sections():
        if any(char in name for char in ",\t|"):
            raise InputError(
                f"section name {name!r} contains ',', a tab or '|', which "
                "separate the fields of the output"
            )
        try:
            specs[name] = _read_section(parser[name])
        except ValueError as exc:
            raise InputError(f"section [{name}]: {exc}") from exc
    return specs
