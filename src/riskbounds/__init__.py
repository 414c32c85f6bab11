"""riskbounds: interval estimation and identifiability tools for stratified
binary-outcome data.

The package computes Wilson score intervals for per-stratum group risks
(with exact finite-sample coverage available by enumeration), fits grouped
logistic regressions with delta-method risk intervals, reproduces two
refuted "individual risk" interval recipes with permanent invalid flags,
and runs exact/Monte Carlo identifiability experiments showing what
single-outcome designs can and cannot reveal about risk heterogeneity.

Names load lazily (PEP 562): ``import riskbounds`` imports no submodule and
no numpy; reading a name imports only the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "data": (
        "CategoryRow", "CategoryTable", "InputError", "NumericalError",
        "ParseError", "expand_weights", "parse_category_table",
    ),
    "identifiability": (
        "BetaRisk", "ClusteringTest", "IccEstimate", "PointRisk",
        "RepeatedOutcomes", "ScenarioSpec", "ThresholdCohort",
        "ThresholdModelSpec", "ThresholdScenario", "TwoPointRisk",
        "clustering_test", "exact_count_distribution", "icc_estimate",
        "latent_risk", "marginal_equivalence_check", "read_scenario_config",
        "simulate_repeated", "simulate_threshold_cohort",
    ),
    "logistic": (
        "LogisticFit", "NonConvergenceError", "RiskPrediction", "SeparationError",
        "TrendTest", "fit_grouped_logistic", "predict_risk", "trend_test",
    ),
    "refuted": ("cm1_pseudo_interval", "hmc_individual_interval", "student_t_quantile"),
    "rounding": ("format_fixed",),
    "wilson": (
        "CoverageOutcome", "CoverageReport", "IntervalEstimate", "binomial_pmf",
        "exact_coverage", "standard_normal_quantile", "wilson_interval",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_SOURCE)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
