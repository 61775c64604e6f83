"""Binary classification metrics.

The paper evaluates error detection as binary classification over cells:
label 1 means "erroneous cell".  Precision, recall and F1 are reported per
dataset (Table 3); accuracy drives the learning curves (Figures 6/7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError


def _as_binary(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise ExperimentError(f"{name} must be 1-d, got shape {array.shape}")
    if not np.all((array == 0) | (array == 1)):
        raise ExperimentError(f"{name} must contain only 0/1, got values "
                              f"{sorted(set(array.tolist()))}")
    return array.astype(np.int64)


def confusion_counts(y_true, y_pred) -> tuple[int, int, int, int]:
    """Return ``(tp, fp, fn, tn)`` for binary labels (positive class = 1)."""
    y_true = _as_binary(y_true, "y_true")
    y_pred = _as_binary(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ExperimentError(
            f"length mismatch: y_true has {y_true.shape[0]}, y_pred has {y_pred.shape[0]}"
        )
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    return tp, fp, fn, tn


def precision(y_true, y_pred) -> float:
    """``tp / (tp + fp)``; defined as 0.0 when nothing was predicted positive."""
    tp, fp, _, _ = confusion_counts(y_true, y_pred)
    return tp / (tp + fp) if tp + fp else 0.0


def recall(y_true, y_pred) -> float:
    """``tp / (tp + fn)``; defined as 0.0 when there are no positives."""
    tp, _, fn, _ = confusion_counts(y_true, y_pred)
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall (0.0 when both are 0)."""
    tp, fp, fn, _ = confusion_counts(y_true, y_pred)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def accuracy(y_true, y_pred) -> float:
    """Fraction of matching labels."""
    tp, fp, fn, tn = confusion_counts(y_true, y_pred)
    total = tp + fp + fn + tn
    return (tp + tn) / total if total else 0.0


@dataclass(frozen=True)
class ClassificationReport:
    """Precision, recall, F1 and accuracy for one evaluation.

    Built with :meth:`from_predictions`; formatted like the paper's rows.
    """

    precision: float
    recall: float
    f1: float
    accuracy: float
    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> ClassificationReport:
        """Compute all metrics from binary label arrays."""
        tp, fp, fn, tn = confusion_counts(y_true, y_pred)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        total = tp + fp + fn + tn
        acc = (tp + tn) / total if total else 0.0
        return cls(precision=p, recall=r, f1=f1, accuracy=acc,
                   tp=tp, fp=fp, fn=fn, tn=tn)

    def as_row(self) -> dict[str, float]:
        """The P/R/F1 triple as the paper's Table 3 reports it."""
        return {"P": self.precision, "R": self.recall, "F1": self.f1}

    def __str__(self) -> str:
        return (f"P={self.precision:.2f} R={self.recall:.2f} "
                f"F1={self.f1:.2f} acc={self.accuracy:.3f}")
