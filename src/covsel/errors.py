"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid hyperparameters, experiment settings, or config/CLI input."""


class EstimationError(RuntimeError):
    """Numerical failure while computing an estimate."""


class DegenerateFeatureError(ValueError):
    """A feature has no positive variance where one is required."""


class SelectionError(RuntimeError):
    """Every candidate failed; no selection is possible."""
