"""Pluggable detector registry with calibrated score fusion.

Importing this package registers every built-in family -- the neural
encoders (``tsb``, ``etsb``, ``attn``), the Raha and augmentation
baselines, and the calibrated ``ensemble`` -- under the uniform
:class:`~repro.detectors.base.Detector` protocol::

    from repro.detectors import build, list_detectors

    detector = build("ensemble", members=["etsb", "raha"]).fit(pair)
    scores = detector.score_cells(pair.dirty)    # (rows, attrs) in [0, 1]

Every registered family is exercised by the conformance suite
(``tests/detectors/test_conformance.py``) on both autograd backends.
"""

from repro.detectors.base import (
    CAPABILITIES,
    Detector,
    POINTWISE,
    PROCESS_LOCAL,
    TRANSDUCTIVE,
)
from repro.detectors.calibration import (
    CALIBRATION_METHODS,
    IdentityCalibrator,
    IsotonicCalibrator,
    PlattCalibrator,
    fit_calibrator,
    restore_calibrator,
)
from repro.detectors.registry import build, get, list_detectors, register

# Importing the implementations populates the registry as a side effect.
from repro.detectors.adapters import (  # noqa: E402
    AttnDetector,
    AugmentAdapter,
    ETSBDetector,
    NeuralDetector,
    RahaAdapter,
    TSBDetector,
    table_digest,
)
from repro.detectors.ensemble import EnsembleDetector  # noqa: E402

__all__ = [
    "CAPABILITIES",
    "CALIBRATION_METHODS",
    "Detector",
    "POINTWISE",
    "PROCESS_LOCAL",
    "TRANSDUCTIVE",
    "IdentityCalibrator",
    "IsotonicCalibrator",
    "PlattCalibrator",
    "fit_calibrator",
    "restore_calibrator",
    "build",
    "get",
    "list_detectors",
    "register",
    "AttnDetector",
    "AugmentAdapter",
    "ETSBDetector",
    "EnsembleDetector",
    "NeuralDetector",
    "RahaAdapter",
    "TSBDetector",
    "table_digest",
]
