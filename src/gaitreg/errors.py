"""Exception hierarchy shared across the package."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PipelineError):
    """Malformed trial CSV file."""


class ConfigError(PipelineError):
    """Invalid configuration or unusable parameter combination."""


class PreprocessError(PipelineError):
    """Signal too short or otherwise unusable for preprocessing."""


class TrainError(PipelineError):
    """Non-finite values or divergence during model fitting."""


class MetricError(PipelineError):
    """Metric undefined for the given inputs (e.g. constant targets)."""
