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
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import gammaincc

from .data import InputError
# binomial_pmf stays importable from this module: perfbench/tracing.py
# wraps the scalar pmf at this name as well as in wilson
from .wilson import binomial_pmf, binomial_pmf_array  # noqa: F401

_MEAN_MATCH_TOL = 1e-12
#: Designs with fewer than this many total observations also get a
#: permutation p-value next to the asymptotic chi-square one.
SMALL_DESIGN_THRESHOLD = 40
PERMUTATION_COUNT = 10_000


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

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ((self.p, 1.0),)

    def sample(self, rng: np.random.Generator) -> float:
        return self.p


@dataclass(frozen=True)
class TwoPointRisk:
    """Risk p1 with probability w1, else risk p2."""

    p1: float
    w1: float
    p2: float

    def __post_init__(self):
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0,1], got {value}")
        if not 0.0 <= self.w1 <= 1.0:
            raise InputError(f"w1 must be in [0,1], got {self.w1}")

    def mean(self) -> float:
        return self.w1 * self.p1 + (1.0 - self.w1) * self.p2

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ((self.p1, self.w1), (self.p2, 1.0 - self.w1))

    def sample(self, rng: np.random.Generator) -> float:
        return self.p1 if rng.random() < self.w1 else self.p2


@dataclass(frozen=True)
class BetaRisk:
    """Risk drawn from a Beta(a, b) distribution (mean a/(a+b))."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise InputError(f"beta parameters must be > 0, got ({self.a}, {self.b})")

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def atoms(self) -> None:
        return None

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.a, self.b))


RiskDistribution = Union[PointRisk, TwoPointRisk, BetaRisk]


@dataclass(frozen=True)
class ScenarioSpec:
    """A population to experiment on: risk mixture, design, and seed."""

    risk_distribution: RiskDistribution
    sample_size: int
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("sample_size", "repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InputError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InputError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class RepeatedOutcomes:
    """Balanced panel of binary outcomes: one row of m repeats per person."""

    individual_ids: tuple[int, ...]
    outcomes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.outcomes, dtype=np.int64)
        if arr.ndim != 2:
            raise InputError("outcomes must be a 2-D (individuals x repeats) array")
        if arr.shape[0] != len(self.individual_ids):
            raise InputError("one row of outcomes per individual id required")
        if arr.shape[1] < 1:
            raise InputError("each individual needs at least one observation")
        if not np.isin(arr, (0, 1)).all():
            raise InputError("outcomes must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        object.__setattr__(self, "individual_ids", tuple(self.individual_ids))

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
    can be simulated independently.
    """
    root = np.random.SeedSequence(spec.seed)
    n, m = spec.sample_size, spec.repeats
    rows = np.empty((n, m), dtype=np.int64)
    for i, child in enumerate(root.spawn(n)):
        rng = np.random.default_rng(child)
        risk = spec.risk_distribution.sample(rng)
        rows[i] = rng.random(m) < risk
    return RepeatedOutcomes(individual_ids=tuple(range(n)), outcomes=rows)


@dataclass(frozen=True)
class ClusteringTest:
    """Homogeneity test of per-individual success counts.

    ``p_value`` is the asymptotic chi-square tail with df = n - 1.  For
    designs with fewer than SMALL_DESIGN_THRESHOLD total observations,
    ``p_value_permutation`` holds a permutation p-value as well (outcomes
    shuffled across individuals).  ``undefined`` flags pooled proportions
    of 0 or 1, where no test is possible and p_value is reported as 1.
    """

    statistic: float
    df: int
    p_value: float
    p_value_permutation: float | None
    undefined: bool


def _homogeneity_statistic(counts: np.ndarray, m: int, p_hat: float) -> float:
    expected = m * p_hat
    return float(np.sum((counts - expected) ** 2) / (m * p_hat * (1.0 - p_hat)))


def clustering_test(
    data: RepeatedOutcomes,
    permutation_seed: int = 0,
    permutations: int = PERMUTATION_COUNT,
) -> ClusteringTest:
    """Pearson chi-square test that all individuals share one risk.

    Compares each individual's success count against the pooled proportion;
    large values mean outcomes cluster within individuals, i.e. risks
    genuinely differ between people.  Small p-values therefore signal risk
    heterogeneity that single-outcome data could never reveal.
    """
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
    stat = _homogeneity_statistic(counts, m, p_hat)
    p_value = float(gammaincc((n - 1) / 2.0, stat / 2.0))
    p_perm = None
    if n * m < SMALL_DESIGN_THRESHOLD:
        rng = np.random.default_rng(permutation_seed)
        flat = np.tile(data.outcomes.ravel(), (permutations, 1))
        shuffled = rng.permuted(flat, axis=1).reshape(permutations, n, m)
        perm_counts = shuffled.sum(axis=2)
        expected = m * p_hat
        perm_stats = ((perm_counts - expected) ** 2).sum(axis=1) / (
            m * p_hat * (1.0 - p_hat)
        )
        exceed = int(np.sum(perm_stats >= stat - 1e-12))
        # add-one rule keeps the Monte Carlo p-value away from exact zero
        p_perm = (1 + exceed) / (1 + permutations)
    return ClusteringTest(
        statistic=stat,
        df=n - 1,
        p_value=p_value,
        p_value_permutation=p_perm,
        undefined=False,
    )


@dataclass(frozen=True)
class IccEstimate:
    """Moment-based intraclass correlation; undefined when outcomes are constant."""

    value: float
    undefined: bool


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
    row_means = y.mean(axis=1)
    grand = y.mean()
    ms_between = m * np.sum((row_means - grand) ** 2) / (n - 1)
    ms_within = np.sum((y - row_means[:, None]) ** 2) / (n * (m - 1))
    denom = ms_between + (m - 1) * ms_within
    if denom == 0.0:
        return IccEstimate(value=math.nan, undefined=True)
    return IccEstimate(value=float((ms_between - ms_within) / denom), undefined=False)


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
        if self.provocation_rate < 0.0:
            raise InputError(f"provocation_rate must be >= 0")
        if self.follow_up <= 0.0:
            raise InputError(f"follow_up must be > 0")
        for name in ("threshold_spread", "fluctuation_sd", "strength_spread"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be >= 0")


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
    if not isinstance(n, int) or n < 1:
        raise InputError(f"cohort size must be an integer >= 1, got {n!r}")
    root = np.random.SeedSequence(seed)
    outcomes = np.zeros((n, 1), dtype=np.int64)
    risks = np.empty(n)
    intensity = spec.provocation_rate * spec.follow_up
    for i, child in enumerate(root.spawn(n)):
        rng = np.random.default_rng(child)
        threshold = (
            spec.threshold_location + spec.threshold_spread * rng.standard_normal()
        )
        risks[i] = latent_risk(spec, threshold)
        count = rng.poisson(intensity) if intensity > 0.0 else 0
        if count > 0:
            strengths = (
                spec.strength_location
                + spec.strength_spread * rng.standard_normal(count)
            )
            fluctuations = spec.fluctuation_sd * rng.standard_normal(count)
            outcomes[i, 0] = int(np.any(strengths - fluctuations > threshold))
    risks.setflags(write=False)
    return ThresholdCohort(
        outcomes=RepeatedOutcomes(
            individual_ids=tuple(range(n)), outcomes=outcomes
        ),
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


def _build_risk_distribution(section: configparser.SectionProxy) -> RiskDistribution:
    kind = section.get("distribution")
    if kind == "point":
        return PointRisk(p=section.getfloat("p"))
    if kind == "two_point":
        return TwoPointRisk(
            p1=section.getfloat("p1"),
            w1=section.getfloat("w1"),
            p2=section.getfloat("p2"),
        )
    if kind == "beta":
        return BetaRisk(a=section.getfloat("a"), b=section.getfloat("b"))
    raise InputError(
        f"section [{section.name}]: unknown distribution {kind!r} "
        "(expected point, two_point, or beta)"
    )


def read_scenario_config(
    text: str,
    seed_override: int | None = None,
    fallback_seed: int = 0,
) -> dict[str, ScenarioSpec | ThresholdScenario]:
    """Parse an INI-style config into scenario and threshold-model specs.

    Each section is either a risk-mixture scenario (key ``distribution``)
    or a threshold-model run (key ``model = threshold``).  Seed precedence
    per section: ``seed_override`` beats the section's own ``seed`` key,
    which beats ``fallback_seed``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InputError(f"bad config: {exc}") from exc
    if not parser.sections():
        raise InputError("config defines no scenario sections")

    specs: dict[str, ScenarioSpec | ThresholdScenario] = {}
    for name in parser.sections():
        section = parser[name]
        if seed_override is not None:
            seed = seed_override
        else:
            seed = section.getint("seed", fallback=fallback_seed)
        try:
            if section.get("model") == "threshold":
                model = ThresholdModelSpec(
                    threshold_location=section.getfloat("threshold_location"),
                    threshold_spread=section.getfloat("threshold_spread", 0.0),
                    fluctuation_sd=section.getfloat("fluctuation_sd", 0.0),
                    provocation_rate=section.getfloat("provocation_rate"),
                    strength_location=section.getfloat("strength_location"),
                    strength_spread=section.getfloat("strength_spread", 0.0),
                    follow_up=section.getfloat("follow_up"),
                )
                specs[name] = ThresholdScenario(
                    model=model,
                    cohort_size=section.getint("cohort_size"),
                    seed=seed,
                )
            elif section.get("distribution") is not None:
                specs[name] = ScenarioSpec(
                    risk_distribution=_build_risk_distribution(section),
                    sample_size=section.getint("sample_size"),
                    repeats=section.getint("repeats", fallback=1),
                    seed=seed,
                )
            else:
                raise InputError(
                    f"section [{name}] needs either a 'distribution' key or "
                    "'model = threshold'"
                )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"section [{name}]: {exc}") from exc
    return specs
