"""Shapley-value vs single-term anomaly localization for sensor data.

Exact Shapley values of a negative-log-density anomaly score over a
multivariate Gaussian sensor model, additive attack injection, and a
reproducible Monte Carlo harness comparing the error rate of thresholding
the Shapley value against thresholding the single marginal term.
"""

from .attacks import AttackSpec
from .coalitions import Coalition
from .gaussian import (
    DimensionMismatchError,
    GaussianModel,
    GaussianValueFunction,
    NotPositiveDefiniteError,
    check_observation,
)
from .harness import (
    DegenerateLabelsError,
    ErrorRateReport,
    ExperimentConfig,
    GridSpec,
    analytic_pe_gaussian,
    binomial_ci,
    run_experiment,
)
from .shapley import (
    AdditiveValueFunction,
    EmptyKeptSetError,
    ShapleyResult,
    UniverseTooLargeError,
    ValueFunction,
    all_shapley,
    exact_shapley,
    sampled_shapley,
    shapley_from_values,
    shapley_weight,
    truncated_shapley,
)
from .suite import (
    ConfigError,
    ExperimentSpec,
    SuiteConfig,
    bench,
    parse_config,
    preset_table1,
    preset_table2,
    run_suite,
)

__all__ = [
    "AdditiveValueFunction",
    "AttackSpec",
    "Coalition",
    "ConfigError",
    "DegenerateLabelsError",
    "DimensionMismatchError",
    "EmptyKeptSetError",
    "ErrorRateReport",
    "ExperimentConfig",
    "ExperimentSpec",
    "GaussianModel",
    "GaussianValueFunction",
    "GridSpec",
    "NotPositiveDefiniteError",
    "ShapleyResult",
    "SuiteConfig",
    "UniverseTooLargeError",
    "ValueFunction",
    "all_shapley",
    "analytic_pe_gaussian",
    "bench",
    "binomial_ci",
    "check_observation",
    "exact_shapley",
    "parse_config",
    "preset_table1",
    "preset_table2",
    "run_experiment",
    "run_suite",
    "sampled_shapley",
    "shapley_from_values",
    "shapley_weight",
    "truncated_shapley",
]

__version__ = "0.1.0"
