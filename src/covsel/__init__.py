"""Cross-validated selection among high-dimensional covariance estimators.

The package fits a library of candidate covariance estimators (sample
covariance, thresholding, banding/tapering, linear shrinkage, factor
based) under cross-validation, scores them with an observation-level
Frobenius loss, and selects the candidate with the smallest estimated
risk.  A Monte-Carlo harness measures the selector against exact oracle
selections on eight covariance models, and a CLI exposes selection,
simulation, and benchmarking with reproducible, seeded outputs.

The top level holds the calls README documents and the types their
arguments need; everything else lives in its module.
"""

from .cv_engine import MonteCarloSplit, VFold, oracle_select_cv, oracle_select_full, select
from .errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
from .estimators import CandidateLibrary, EstimatorSpec, apply, default_library, library_preset, register_family
from .simulation import ExperimentConfig, run_benchmark, run_experiment, summarize_ratios

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CandidateLibrary",
    "ConfigError",
    "DegenerateFeatureError",
    "EstimationError",
    "EstimatorSpec",
    "ExperimentConfig",
    "MonteCarloSplit",
    "SelectionError",
    "VFold",
    "apply",
    "default_library",
    "library_preset",
    "oracle_select_cv",
    "oracle_select_full",
    "register_family",
    "run_benchmark",
    "run_experiment",
    "select",
    "summarize_ratios",
]
