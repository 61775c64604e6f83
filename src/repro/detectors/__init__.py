"""Pluggable detector registry with calibrated score fusion.

Every built-in family registers under the uniform
:class:`~repro.detectors.base.Detector` protocol: the Raha and
augmentation baselines and the calibrated ``ensemble`` here, the neural
encoders (``tsb``, ``etsb``, ``attn``) as the subclasses of
:class:`~repro.models.detector.ErrorDetector`, which ``import repro``
loads::

    from repro.detectors import build, list_detectors

    detector = build("ensemble", members=["etsb", "raha"]).fit(pair)
    scores = detector.score_cells(pair.dirty)    # (rows, attrs) in [0, 1]

Every registered family is exercised by the conformance suite
(``tests/detectors/test_conformance.py``) on both autograd backends.
The models import the protocol from here; this package imports nothing
from :mod:`repro.models`.
"""

from repro.detectors.base import (
    CAPABILITIES,
    Detector,
    POINTWISE,
    TRANSDUCTIVE,
)
from repro.detectors.calibration import (
    IdentityCalibrator,
    IsotonicCalibrator,
    PlattCalibrator,
    fit_calibrator,
)
from repro.detectors.registry import build, get, list_detectors, register

# Importing the implementations populates the registry as a side effect.
from repro.detectors.adapters import (  # noqa: E402
    AugmentAdapter,
    RahaAdapter,
    table_digest,
)
from repro.detectors.ensemble import EnsembleDetector  # noqa: E402

__all__ = [
    "CAPABILITIES",
    "Detector",
    "POINTWISE",
    "TRANSDUCTIVE",
    "IdentityCalibrator",
    "IsotonicCalibrator",
    "PlattCalibrator",
    "fit_calibrator",
    "build",
    "get",
    "list_detectors",
    "register",
    "AugmentAdapter",
    "EnsembleDetector",
    "RahaAdapter",
    "table_digest",
]
