"""riskbounds: interval estimation and identifiability tools for stratified
binary-outcome data.

The package computes Wilson score intervals for per-stratum group risks
(with exact finite-sample coverage available by enumeration), fits grouped
logistic regressions with delta-method risk intervals, reproduces two
refuted "individual risk" interval recipes with permanent invalid flags,
and runs exact/Monte Carlo identifiability experiments showing what
single-outcome designs can and cannot reveal about risk heterogeneity.
"""

__version__ = "0.1.0"

from .data import (
    CategoryRow,
    CategoryTable,
    InputError,
    ParseError,
    expand_weights,
    parse_category_table,
)
from .identifiability import (
    BetaRisk,
    ClusteringTest,
    IccEstimate,
    PointRisk,
    RepeatedOutcomes,
    ScenarioSpec,
    ThresholdCohort,
    ThresholdModelSpec,
    ThresholdScenario,
    TwoPointRisk,
    clustering_test,
    exact_count_distribution,
    icc_estimate,
    latent_risk,
    marginal_equivalence_check,
    read_scenario_config,
    simulate_repeated,
    simulate_threshold_cohort,
)
from .logistic import (
    LogisticFit,
    NonConvergenceError,
    NumericalError,
    RiskPrediction,
    SeparationError,
    TrendTest,
    fit_grouped_logistic,
    predict_risk,
    trend_test,
)
from .refuted import (
    cm1_pseudo_interval,
    hmc_individual_interval,
    student_t_quantile,
)
from .rounding import format_fixed
from .wilson import (
    CoverageOutcome,
    CoverageReport,
    IntervalEstimate,
    binomial_pmf,
    exact_coverage,
    standard_normal_quantile,
    wilson_interval,
)

__all__ = [
    "__version__",
    "BetaRisk",
    "CategoryRow",
    "CategoryTable",
    "ClusteringTest",
    "CoverageOutcome",
    "CoverageReport",
    "IccEstimate",
    "InputError",
    "IntervalEstimate",
    "LogisticFit",
    "NonConvergenceError",
    "NumericalError",
    "ParseError",
    "PointRisk",
    "RepeatedOutcomes",
    "RiskPrediction",
    "ScenarioSpec",
    "SeparationError",
    "ThresholdCohort",
    "ThresholdModelSpec",
    "ThresholdScenario",
    "TrendTest",
    "TwoPointRisk",
    "binomial_pmf",
    "clustering_test",
    "cm1_pseudo_interval",
    "exact_count_distribution",
    "exact_coverage",
    "expand_weights",
    "fit_grouped_logistic",
    "format_fixed",
    "hmc_individual_interval",
    "icc_estimate",
    "latent_risk",
    "marginal_equivalence_check",
    "parse_category_table",
    "predict_risk",
    "read_scenario_config",
    "simulate_repeated",
    "simulate_threshold_cohort",
    "standard_normal_quantile",
    "student_t_quantile",
    "trend_test",
    "wilson_interval",
]
