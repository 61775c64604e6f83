"""Per-detector score calibration for ensemble fusion.

Raw detector scores are not comparable: the BiRNN emits softmax
probabilities, Raha emits hard 0/1 verdicts, the augmentation baseline a
logistic score.  Before fusing, each member's scores are mapped onto a
common probability scale with a calibrator fitted on held-out labelled
cells:

* :class:`IsotonicCalibrator` -- pool-adjacent-violators (PAVA)
  regression with linear interpolation between block centres; the
  non-parametric default when enough distinct scores exist;
* :class:`PlattCalibrator` -- logistic ``sigmoid(a * score + b)`` with
  the slope clamped non-negative, for small or binary score sets;
* :class:`IdentityCalibrator` -- the degenerate-label fallback.

Every calibrator's ``transform`` is monotone non-decreasing and maps
into ``[0, 1]`` -- properties the Hypothesis suite checks directly --
and fitting is deterministic (no RNG anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def _validate_pairs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if scores.shape != labels.shape:
        raise ConfigurationError(
            f"{scores.shape[0]} scores but {labels.shape[0]} labels")
    if scores.size == 0:
        raise ConfigurationError("cannot calibrate on zero cells")
    if labels.min() < 0 or labels.max() > 1:
        raise ConfigurationError("labels must be binary 0/1")
    return scores, labels


@dataclass(frozen=True)
class IdentityCalibrator:
    """Clip-to-[0,1] passthrough (degenerate labels)."""

    method = "identity"

    def transform(self, scores: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(scores, dtype=np.float64), 0.0, 1.0)

    def state(self) -> dict:
        return {"method": self.method}


@dataclass(frozen=True)
class PlattCalibrator:
    """Logistic calibration ``sigmoid(a * score + b)`` with ``a >= 0``.

    Fitted by Newton iterations on the log-loss; the slope is clamped at
    zero so the map can never invert the detector's ranking (the
    monotonicity contract fusion relies on).
    """

    a: float
    b: float
    method = "platt"

    @classmethod
    def fit(cls, scores: np.ndarray, labels: np.ndarray,
            n_iterations: int = 50) -> "PlattCalibrator":
        scores, labels = _validate_pairs(scores, labels)
        # Platt's target smoothing keeps the optimum finite on separable data.
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        target = np.where(labels == 1, (n_pos + 1.0) / (n_pos + 2.0),
                          1.0 / (n_neg + 2.0))
        a, b = 1.0, 0.0
        for _ in range(n_iterations):
            z = np.clip(a * scores + b, -500.0, 500.0)
            p = 1.0 / (1.0 + np.exp(-z))
            g = p - target
            w = np.maximum(p * (1.0 - p), 1e-12)
            grad_a = float((g * scores).sum())
            grad_b = float(g.sum())
            h_aa = float((w * scores * scores).sum()) + 1e-9
            h_ab = float((w * scores).sum())
            h_bb = float(w.sum()) + 1e-9
            det = h_aa * h_bb - h_ab * h_ab
            if abs(det) < 1e-18:
                break
            step_a = (h_bb * grad_a - h_ab * grad_b) / det
            step_b = (h_aa * grad_b - h_ab * grad_a) / det
            a, b = a - step_a, b - step_b
            a = max(a, 0.0)
            if abs(step_a) < 1e-10 and abs(step_b) < 1e-10:
                break
        return cls(a=max(a, 0.0), b=b)

    def transform(self, scores: np.ndarray) -> np.ndarray:
        z = np.clip(self.a * np.asarray(scores, dtype=np.float64) + self.b,
                    -500.0, 500.0)
        return 1.0 / (1.0 + np.exp(-z))

    def state(self) -> dict:
        return {"method": self.method, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class IsotonicCalibrator:
    """PAVA isotonic regression, interpolated between block centres.

    ``thresholds`` are the (strictly increasing) block-centre scores and
    ``values`` the corresponding calibrated probabilities
    (non-decreasing); ``transform`` linearly interpolates and clamps to
    the end values outside the fitted range, so the map is monotone
    non-decreasing over the whole real line.
    """

    thresholds: tuple[float, ...]
    values: tuple[float, ...]
    method = "isotonic"

    @classmethod
    def fit(cls, scores: np.ndarray, labels: np.ndarray) -> "IsotonicCalibrator":
        scores, labels = _validate_pairs(scores, labels)
        order = np.argsort(scores, kind="stable")
        xs = scores[order]
        ys = labels[order].astype(np.float64)
        # Pool ties first so PAVA blocks start from distinct scores.
        uniq, starts = np.unique(xs, return_index=True)
        bounds = np.append(starts, xs.size)
        centre = uniq
        weight = np.diff(bounds).astype(np.float64)
        mean = np.add.reduceat(ys, starts) / weight
        # Pool adjacent violators: merge blocks while any mean decreases.
        blocks: list[list[float]] = []  # [centre_sum_w, weight, mean]
        for c, w, m in zip(centre, weight, mean):
            blocks.append([c * w, w, m])
            while len(blocks) > 1 and blocks[-2][2] >= blocks[-1][2]:
                cw, w2, m2 = blocks.pop()
                blocks[-1][2] = ((blocks[-1][2] * blocks[-1][1] + m2 * w2)
                                 / (blocks[-1][1] + w2))
                blocks[-1][0] += cw
                blocks[-1][1] += w2
        thresholds = tuple(b[0] / b[1] for b in blocks)
        values = tuple(min(max(b[2], 0.0), 1.0) for b in blocks)
        return cls(thresholds=thresholds, values=values)

    def transform(self, scores: np.ndarray) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        return np.interp(scores, np.asarray(self.thresholds),
                         np.asarray(self.values))

    def state(self) -> dict:
        return {"method": self.method,
                "thresholds": list(self.thresholds),
                "values": list(self.values)}


Calibrator = IdentityCalibrator | PlattCalibrator | IsotonicCalibrator


def fit_calibrator(scores: np.ndarray, labels: np.ndarray) -> Calibrator:
    """Fit a calibrator on held-out (score, label) pairs.

    Single-class labels give the identity.  Otherwise isotonic when the
    scores carry enough resolution (>= 4 distinct values), Platt when
    they do not (e.g. Raha's binary verdicts, where isotonic would
    reduce to two unsmoothed plateaus).
    """
    scores, labels = _validate_pairs(scores, labels)
    if labels.min() == labels.max():
        return IdentityCalibrator()
    if np.unique(scores).size >= 4:
        return IsotonicCalibrator.fit(scores, labels)
    return PlattCalibrator.fit(scores, labels)
