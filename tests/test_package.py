"""The package namespace: ``__all__``, lazy names and ``import *``; and
the package's source lines, none longer than 88 characters.

``tests/test_cli.py`` checks in a fresh interpreter that ``import
riskbounds`` loads no submodule; these tests check the names it serves.
"""

import sys
from pathlib import Path

import pytest

import riskbounds

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskbounds"

# the public surface, in the order the package has always listed it
ALL = [
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


def test_all_is_the_published_list():
    assert riskbounds.__all__ == ALL


@pytest.mark.parametrize("name", ALL[1:])
def test_name_is_the_object_its_submodule_defines(name):
    value = getattr(riskbounds, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("riskbounds.")
    assert getattr(module, name) is value


def test_dir_lists_every_public_name_and_submodule():
    names = dir(riskbounds)
    assert set(ALL) <= set(names)
    submodules = {"data", "identifiability", "logistic", "refuted", "rounding", "wilson"}
    assert submodules <= set(names)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        riskbounds.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from riskbounds import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from riskbounds import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ALL)
    assert all(namespace[name] is getattr(riskbounds, name) for name in ALL)


def test_no_package_line_runs_past_88_characters():
    long = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if len(line) > 88
    ]
    assert long == []
