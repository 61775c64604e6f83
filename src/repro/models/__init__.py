"""The paper's contribution: bidirectional two-stacked RNN error detectors.

* :class:`TSBRNN` -- Two-Stacked Bidirectional RNN (value input only);
* :class:`ETSBRNN` -- Enriched TSB-RNN (value + attribute metadata +
  normalised length inputs);
* :class:`ModelConfig` -- the architecture hyperparameters of Figure 5;
* :class:`ErrorDetector` -- the end-to-end API: preparation, trainset
  selection, training with best-train-loss checkpointing, prediction and
  evaluation; its subclasses :class:`TSBDetector`, :class:`ETSBDetector`
  and :class:`AttnDetector` are the registry's neural families.
"""

from repro.models.config import ModelConfig, TrainingConfig
from repro.models.detector import (
    AttnDetector,
    DetectionResult,
    ErrorDetector,
    ETSBDetector,
    TSBDetector,
    build_model,
)
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN

__all__ = [
    "ModelConfig",
    "TrainingConfig",
    "TSBRNN",
    "ETSBRNN",
    "build_model",
    "ErrorDetector",
    "TSBDetector",
    "ETSBDetector",
    "AttnDetector",
    "DetectionResult",
]
