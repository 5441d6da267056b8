"""Exception hierarchy shared across the package, and the models' input check."""

import numpy as np


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


def checked_rows(values, name: str, shape: tuple = (None, None)) -> np.ndarray:
    """values as float64 once it has shape, at least one row, and only finite values.

    Every model fit and predict checks its inputs here.  shape is (rows,
    width), or (rows,) for one value per row, None meaning any length.  A
    wrong shape is a ConfigError, a NaN or infinity a TrainError naming
    its row and column; both name the argument.
    """
    arr = np.asarray(values, dtype=np.float64)
    fits = arr.ndim == len(shape) and all(w in (None, n) for w, n in zip(shape, arr.shape))
    if not (fits and arr.shape[0]):
        rows, *width = shape
        rule = f"{rows or 'one or more'} {'rows' if width else 'values'}"
        rule += f" of width {width[0]}" if width and width[0] else ""
        raise ConfigError(f"{name} of shape {arr.shape} is not {rule}")
    finite = np.isfinite(arr)
    if not finite.all():
        at = np.argwhere(~finite)[0]
        where = ", column ".join(map(str, at))
        raise TrainError(f"{name} row {where} is non-finite ({arr[tuple(at)]})")
    return arr
