"""Cross-validated selection among high-dimensional covariance estimators.

The package fits a library of candidate covariance estimators (sample
covariance, thresholding, banding/tapering, linear shrinkage, factor
based) under cross-validation, scores them with an observation-level
Frobenius loss, and selects the candidate with the smallest estimated
risk.  A Monte-Carlo harness measures the selector against exact oracle
selections on eight covariance models, and a CLI exposes selection,
simulation, and benchmarking with reproducible, seeded outputs.
"""

from .cv_engine import (
    MonteCarloSplit,
    OracleReport,
    SelectionReport,
    SingleSplit,
    VFold,
    make_splits,
    oracle_select_cv,
    oracle_select_full,
    select,
)
from .errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
from .estimators import (
    CandidateLibrary,
    EstimatorSpec,
    apply,
    build_library,
    default_library,
    expand_grid,
    library_preset,
    light_library,
    register_family,
    wide_library,
)
from .loss_risk import (
    BoundParams,
    BoundReport,
    estimate_weight_matrix,
    finite_sample_bound,
    matrix_cv_risk_term,
    observation_loss,
    true_risk_difference,
    validation_risk,
)
from .matrix_core import (
    EigenDecomposition,
    center_columns,
    eigendecompose,
    sample_covariance,
    scaled_frobenius_sq,
    spectral_norm,
)
from .simulation import (
    CovModelSpec,
    ExperimentConfig,
    ResultRow,
    build_model_covariance,
    run_benchmark,
    run_experiment,
    sample_gaussian,
    summarize_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundParams",
    "BoundReport",
    "CandidateLibrary",
    "ConfigError",
    "CovModelSpec",
    "DegenerateFeatureError",
    "EigenDecomposition",
    "EstimationError",
    "EstimatorSpec",
    "ExperimentConfig",
    "MonteCarloSplit",
    "OracleReport",
    "ResultRow",
    "SelectionError",
    "SelectionReport",
    "SingleSplit",
    "VFold",
    "apply",
    "build_library",
    "build_model_covariance",
    "center_columns",
    "default_library",
    "eigendecompose",
    "estimate_weight_matrix",
    "expand_grid",
    "finite_sample_bound",
    "library_preset",
    "light_library",
    "make_splits",
    "matrix_cv_risk_term",
    "observation_loss",
    "oracle_select_cv",
    "oracle_select_full",
    "register_family",
    "run_benchmark",
    "run_experiment",
    "sample_covariance",
    "sample_gaussian",
    "scaled_frobenius_sq",
    "select",
    "spectral_norm",
    "summarize_ratios",
    "true_risk_difference",
    "validation_risk",
    "wide_library",
]
