"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TableError(ReproError):
    """Base class for errors raised by the relational table substrate."""


class SchemaError(TableError):
    """A table operation referenced a column that does not exist or
    received columns of mismatched length."""


class CSVFormatError(TableError):
    """A CSV file could not be parsed into a rectangular table."""


class AutogradError(ReproError):
    """Base class for errors raised by the autodiff engine."""


class ShapeError(AutogradError):
    """Operands of an autograd op had incompatible shapes."""


class GraphError(AutogradError):
    """The autodiff graph was used incorrectly (e.g. backward on a
    non-scalar without an explicit upstream gradient)."""


class NNError(ReproError):
    """Base class for errors raised by the neural-network layer library."""


class ConfigurationError(NNError):
    """A layer, model, or trainer was constructed with invalid settings."""


class NotFittedError(NNError):
    """Prediction was requested from a model that has not been trained."""


class DataError(ReproError):
    """Base class for errors in data preparation and dataset generation."""


class IngestError(DataError):
    """A real-world file could not be ingested (empty payload,
    unreadable database, or a requested table that does not exist)."""


class EncodingError(DataError):
    """A value could not be encoded with the available dictionaries."""


class SamplingError(ReproError):
    """A trainset-selection algorithm received unusable input."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
