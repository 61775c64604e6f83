"""An augmentation-based detector standing in for the Rotom comparison.

Rotom (Miao et al., SIGMOD 2021) meta-learns policies for combining data
augmentation operators and trains a seq2seq language model -- far outside
a laptop-scale numpy build.  This module keeps the *comparison axis*
alive with a self-contained analogue: labelled cells are expanded with
character-level augmentation operators (the same family Rotom draws
from), then a hashed-n-gram logistic regression classifies each cell.

Table 3's Rotom rows in the experiment report still quote the paper's
published numbers; this detector powers the ablation benchmarks that ask
"does augmentation help at 20 labelled tuples?".
"""

from __future__ import annotations

import zlib

from collections.abc import Callable, Sequence

import numpy as np

from repro.baselines.logreg import LogisticRegression
from repro.errors import ConfigurationError, NotFittedError

AugmentOp = Callable[[str, np.random.Generator], str]


def op_delete_char(text: str, rng: np.random.Generator) -> str:
    """Drop one random character (typo simulation)."""
    if not text:
        return text
    i = int(rng.integers(len(text)))
    return text[:i] + text[i + 1:]


def op_duplicate_char(text: str, rng: np.random.Generator) -> str:
    """Double one random character."""
    if not text:
        return text
    i = int(rng.integers(len(text)))
    return text[:i + 1] + text[i] + text[i + 1:]


def op_swap_adjacent(text: str, rng: np.random.Generator) -> str:
    """Transpose two adjacent characters."""
    if len(text) < 2:
        return text
    i = int(rng.integers(len(text) - 1))
    return text[:i] + text[i + 1] + text[i] + text[i + 2:]


def op_case_flip(text: str, rng: np.random.Generator) -> str:
    """Flip the case of one random letter."""
    letters = [i for i, c in enumerate(text) if c.isalpha()]
    if not letters:
        return text
    i = letters[int(rng.integers(len(letters)))]
    flipped = text[i].lower() if text[i].isupper() else text[i].upper()
    return text[:i] + flipped + text[i + 1:]


DEFAULT_OPS: tuple[AugmentOp, ...] = (
    op_delete_char, op_duplicate_char, op_swap_adjacent, op_case_flip,
)


def hashed_ngram_features(text: str, n_buckets: int = 256,
                          ngram: int = 3) -> np.ndarray:
    """Hashed character n-gram counts plus coarse shape features.

    N-grams are bucketed by their CRC-32, which, unlike ``hash()``, is
    the same in every process, so features and fitted models are too.
    """
    features = np.zeros(n_buckets + 3)
    padded = f"^{text}$"
    for i in range(max(len(padded) - ngram + 1, 1)):
        gram = padded[i:i + ngram]
        features[zlib.crc32(gram.encode()) % n_buckets] += 1.0
    features[n_buckets] = len(text) / 64.0
    features[n_buckets + 1] = sum(c.isdigit() for c in text) / max(len(text), 1)
    features[n_buckets + 2] = 1.0 if text == "" else 0.0
    return features


class AugmentationDetector:
    """Few-shot cell classifier with label-preserving data augmentation.

    Parameters
    ----------
    n_augments:
        Augmented copies generated per labelled cell.
    ops:
        Augmentation operators applied uniformly at random.
    n_buckets:
        Size of the hashed n-gram feature space.
    rng:
        Random generator (augmentation and classifier are deterministic
        given it).
    """

    def __init__(self, n_augments: int = 4,
                 ops: Sequence[AugmentOp] = DEFAULT_OPS,
                 n_buckets: int = 256,
                 rng: np.random.Generator | None = None):
        if n_augments < 0:
            raise ConfigurationError(f"n_augments must be >= 0, got {n_augments}")
        if not ops and n_augments > 0:
            raise ConfigurationError("augmentation requested but no operators given")
        self.n_augments = n_augments
        self.ops = tuple(ops)
        self.n_buckets = n_buckets
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._classifier: LogisticRegression | None = None

    def _featurize(self, texts: Sequence[str]) -> np.ndarray:
        return np.stack([hashed_ngram_features(t, self.n_buckets) for t in texts])

    def fit(self, texts: Sequence[str], labels: Sequence[int]) -> "AugmentationDetector":
        """Fit on labelled cell texts, expanding them with augmentation.

        Augmented copies inherit the original's label: a corrupted copy
        of a correct value still *looks like* the column's value family,
        which is the weak-supervision signal Rotom-style systems exploit.
        """
        texts = list(texts)
        labels = list(labels)
        if len(texts) != len(labels):
            raise ConfigurationError(
                f"got {len(texts)} texts but {len(labels)} labels"
            )
        if not texts:
            raise ConfigurationError("cannot fit on an empty training set")
        augmented_texts = list(texts)
        augmented_labels = list(labels)
        for text, label in zip(texts, labels):
            for _ in range(self.n_augments):
                op = self.ops[int(self._rng.integers(len(self.ops)))]
                augmented_texts.append(op(text, self._rng))
                augmented_labels.append(label)
        features = self._featurize(augmented_texts)
        label_array = np.asarray(augmented_labels, dtype=np.int64)
        if label_array.min() == label_array.max():
            # Degenerate single-class trainset: remember the constant.
            self._classifier = None
            self._constant = int(label_array[0])
            return self
        classifier = LogisticRegression(n_iterations=400)
        classifier.fit(features, label_array)
        self._classifier = classifier
        return self

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """Binary error predictions for cell texts."""
        if self._classifier is None:
            if hasattr(self, "_constant"):
                return np.full(len(texts), self._constant, dtype=np.int64)
            raise NotFittedError("AugmentationDetector.fit has not been called")
        return self._classifier.predict(self._featurize(texts))

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """Positive-class probability per cell text (for score fusion)."""
        if self._classifier is None:
            if hasattr(self, "_constant"):
                return np.full(len(texts), float(self._constant))
            raise NotFittedError("AugmentationDetector.fit has not been called")
        return self._classifier.predict_proba(self._featurize(texts))
