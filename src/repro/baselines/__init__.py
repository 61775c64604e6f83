"""Baseline error-detection systems implemented from scratch.

* :mod:`~repro.baselines.strategies` -- the error-detection strategy
  ensemble Raha configures automatically (outlier, pattern, rule/FD and
  missing-value detectors);
* :mod:`~repro.baselines.clustering` -- agglomerative clustering of
  per-cell strategy-output feature vectors;
* :mod:`~repro.baselines.raha` -- the Raha-style detector: strategies ->
  features -> clustering -> label propagation -> per-column classifier;
* :mod:`~repro.baselines.logreg` -- the L2-regularised logistic
  regression used as the per-column classifier;
* :mod:`~repro.baselines.augment` -- an augmentation-based detector
  standing in for Rotom's comparison axis.
"""

from repro.baselines.augment import AugmentationDetector
from repro.baselines.clustering import agglomerative_clusters
from repro.baselines.logreg import LogisticRegression
from repro.baselines.raha import RahaDetector
from repro.baselines.strategies import (
    DetectionStrategy,
    FDViolationStrategy,
    LengthOutlierStrategy,
    MissingValueStrategy,
    NumericOutlierStrategy,
    PatternProfileStrategy,
    ValueFrequencyStrategy,
    default_strategies,
)

__all__ = [
    "DetectionStrategy",
    "MissingValueStrategy",
    "PatternProfileStrategy",
    "ValueFrequencyStrategy",
    "LengthOutlierStrategy",
    "NumericOutlierStrategy",
    "FDViolationStrategy",
    "default_strategies",
    "agglomerative_clusters",
    "LogisticRegression",
    "RahaDetector",
    "AugmentationDetector",
]
