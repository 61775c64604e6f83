"""The end-to-end error-detection API (the paper's "system in action").

:class:`ErrorDetector` wires the whole pipeline together: data
preparation, trainset selection, label acquisition (from the clean table
or a user-supplied labelling function), training with best-train-loss
checkpointing, and evaluation on the held-out cells.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.dataprep import (
    PreparedData,
    TrainTestSplit,
    prepare,
    split_by_tuple_ids,
)
from repro.datasets.base import DatasetPair
from repro.errors import ConfigurationError, NotFittedError
from repro.inference import InferenceStats, PredictionCache
from repro.inference.index import DedupIndex
from repro.metrics import ClassificationReport
from repro.models.attn import PatternAttentionEncoder
from repro.models.config import ModelConfig, TrainingConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn import (
    BestWeightsCheckpoint,
    Callback,
    RMSprop,
    Trainer,
    categorical_cross_entropy,
)
from repro.nn.losses import one_hot
from repro.nn.module import Module
from repro.sampling import DiverSet, Sampler
from repro.table import Table

ARCHITECTURES = ("tsb", "etsb", "attn")

#: Maps a tuple id and its attribute-ordered dirty values to 0/1 labels.
LabelFunction = Callable[[int, dict[str, str]], Sequence[int]]


def build_model(architecture: str, prepared: PreparedData,
                config: ModelConfig, rng: np.random.Generator) -> Module:
    """Instantiate TSB-RNN, ETSB-RNN or the attention family for a dataset."""
    if architecture == "tsb":
        return TSBRNN(prepared.char_index.vocab_size, config, rng)
    if architecture == "etsb":
        return ETSBRNN(prepared.char_index.vocab_size,
                       prepared.attribute_index.vocab_size, config, rng)
    if architecture == "attn":
        from repro.nn.attention import pattern_table
        return PatternAttentionEncoder(
            prepared.char_index.vocab_size,
            prepared.attribute_index.vocab_size,
            pattern_table(prepared.char_index), prepared.max_length,
            config, rng)
    raise ConfigurationError(
        f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
    )


def _loss(probabilities, labels) -> object:
    """Reference loss for models without a fused ``training_loss``.

    TSB-RNN / ETSB-RNN define ``training_loss`` (which the
    :class:`~repro.nn.training.Trainer` prefers and which dispatches to
    the fused dense+softmax+BCE kernel on the default backend); this
    plain composition computes the identical value and is kept as the
    ``loss_fn`` fallback and for restored detectors.
    """
    return categorical_cross_entropy(probabilities, one_hot(labels, 2))


@dataclass(frozen=True)
class DetectionResult:
    """Evaluation output of a fitted detector.

    Attributes
    ----------
    report:
        Precision / recall / F1 / accuracy on the test cells.
    predictions:
        Binary error predictions, parallel to the test cells.
    tuple_ids:
        Tuple id of each test cell.
    attribute_names:
        Attribute of each test cell.
    inference:
        Counters of the prediction pass that produced ``predictions``:
        unique-cell ratio and cache hit/miss counts, so dedup/memoization
        savings stay observable in evaluation output.
    """

    report: ClassificationReport
    predictions: np.ndarray
    tuple_ids: np.ndarray
    attribute_names: tuple[str, ...]
    inference: InferenceStats

    def errors(self) -> list[tuple[int, str]]:
        """The (tuple_id, attribute) pairs predicted to be erroneous."""
        return [
            (int(tid), attr)
            for tid, attr, pred in zip(self.tuple_ids, self.attribute_names,
                                       self.predictions)
            if pred == 1
        ]


class ErrorDetector:
    """Detect erroneous cells in a dirty table with a BiRNN classifier.

    Parameters
    ----------
    architecture:
        ``"etsb"`` (default, the paper's best model) or ``"tsb"``.
    sampler:
        Trainset-selection algorithm (default: the paper's DiverSet).
    n_label_tuples:
        Number of tuples the user labels (the paper uses 20).
    model_config, training_config:
        Architecture and training hyperparameters.
    seed:
        Controls initialization, batching and sampler tie-breaks.
    extra_callbacks:
        Additional training callbacks (e.g. an
        :class:`~repro.nn.callbacks.EpochEvaluator` for learning curves).
    prediction_cache_size:
        Capacity of the cross-call :class:`~repro.inference.PredictionCache`
        shared by every prediction this detector serves.
    """

    def __init__(self, architecture: str = "etsb",
                 sampler: Sampler | None = None,
                 n_label_tuples: int = 20,
                 model_config: ModelConfig | None = None,
                 training_config: TrainingConfig | None = None,
                 seed: int = 0,
                 extra_callbacks: Sequence[Callback] = (),
                 prediction_cache_size: int = 65536):
        if architecture not in ARCHITECTURES:
            raise ConfigurationError(
                f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
            )
        self.architecture = architecture
        self.sampler = sampler if sampler is not None else DiverSet()
        self.n_label_tuples = n_label_tuples
        self.model_config = model_config if model_config is not None else ModelConfig()
        self.training_config = (training_config if training_config is not None
                                else TrainingConfig())
        self.seed = seed
        self.extra_callbacks = tuple(extra_callbacks)
        self.prediction_cache = PredictionCache(capacity=prediction_cache_size)
        self.model: Module | None = None
        self.prepared: PreparedData | None = None
        self.split: TrainTestSplit | None = None
        self.trainer: Trainer | None = None
        self.checkpoint: BestWeightsCheckpoint | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, pair: DatasetPair,
            checkpoint_path: "str | Path | None" = None,
            resume_from: "str | Path | None" = None) -> "ErrorDetector":
        """Fit on a benchmark pair, labelling sampled tuples from the clean table.

        This mirrors the paper's experiments: the user's labelling of the
        20 selected tuples is simulated with the ground truth, and *only*
        those tuples' labels are ever shown to the model.

        ``checkpoint_path`` / ``resume_from`` pass through to
        :meth:`repro.nn.training.Trainer.fit`: epoch checkpoints are
        written atomically, and resuming from one after a crash yields
        final weights bit-identical to the uninterrupted fit.
        """
        return self.fit_tables(pair.dirty, pair.clean,
                               checkpoint_path=checkpoint_path,
                               resume_from=resume_from)

    def fit_tables(self, dirty: Table, clean: Table,
                   checkpoint_path: "str | Path | None" = None,
                   resume_from: "str | Path | None" = None) -> "ErrorDetector":
        """Fit from explicit dirty/clean tables (ground-truth labelling)."""
        prepared = prepare(dirty, clean)
        rng = np.random.default_rng(self.seed)
        train_ids = self.sampler.select(self.n_label_tuples, prepared, rng)
        split = split_by_tuple_ids(prepared, train_ids)
        return self._train(prepared, split, rng,
                           checkpoint_path=checkpoint_path,
                           resume_from=resume_from)

    def fit_with_labels(self, dirty: Table, label_fn: LabelFunction) -> "ErrorDetector":
        """Fit with labels obtained interactively from ``label_fn``.

        This is the production entry point: no clean table exists, the
        sampler proposes tuples and ``label_fn`` plays the human
        annotator, returning one 0/1 label per attribute of the proposed
        tuple.  Evaluation metrics are unavailable in this mode (there is
        no ground truth for the test cells); use :meth:`predict_table`.
        """
        # Preparing the table against itself labels every cell 0; the
        # user's labels overwrite the sampled tuples' cells below.  Cell
        # k of the long table is tuple k // m, attribute k % m.
        prepared = prepare(dirty, dirty)
        rng = np.random.default_rng(self.seed)
        train_ids = self.sampler.select(self.n_label_tuples, prepared, rng)

        m = len(prepared.attributes)
        values = prepared.df.column("value_x").values
        labels = list(prepared.df.column("label").values)
        for tid in train_ids:
            start = tid * m
            given = list(label_fn(tid, dict(zip(prepared.attributes,
                                                values[start:start + m]))))
            if len(given) != m:
                raise ConfigurationError(
                    f"label_fn returned {len(given)} labels for tuple {tid}, "
                    f"expected {m}"
                )
            for label in given:
                if label not in (0, 1):
                    raise ConfigurationError(
                        f"labels must be 0 or 1, got {label!r}"
                    )
            labels[start:start + m] = [int(label) for label in given]

        prepared = replace(prepared,
                           df=prepared.df.with_column("label", labels))
        split = split_by_tuple_ids(prepared, train_ids)
        return self._train(prepared, split, rng)

    def _train(self, prepared: PreparedData, split: TrainTestSplit,
               rng: np.random.Generator,
               checkpoint_path: "str | Path | None" = None,
               resume_from: "str | Path | None" = None) -> "ErrorDetector":
        model = build_model(self.architecture, prepared, self.model_config, rng)
        optimizer = RMSprop(model.parameters(),
                            learning_rate=self.training_config.learning_rate)
        checkpoint = BestWeightsCheckpoint(monitor="loss", mode="min")
        trainer = Trainer(
            model=model,
            optimizer=optimizer,
            loss_fn=_loss,
            max_grad_norm=self.training_config.max_grad_norm,
            rng=rng,
            callbacks=(checkpoint, *self.extra_callbacks),
            prediction_cache=self.prediction_cache,
        )
        batch_size = self.training_config.batch_size(split.train_size)
        # Publish state before fitting so that per-epoch callbacks (e.g.
        # learning-curve evaluators) can reach the model and the split.
        self.model = model
        self.prepared = prepared
        self.split = split
        self.trainer = trainer
        self.checkpoint = checkpoint
        trainer.fit(split.train.features, split.train.labels,
                    epochs=self.training_config.epochs, batch_size=batch_size,
                    checkpoint_path=checkpoint_path, resume_from=resume_from)
        return self

    # -- inference ------------------------------------------------------------

    def _require_fitted(self) -> tuple[Module, PreparedData, TrainTestSplit, Trainer]:
        if self.model is None or self.prepared is None or self.split is None \
                or self.trainer is None:
            raise NotFittedError("fit() has not been called")
        return self.model, self.prepared, self.split, self.trainer

    def predict(self, features: dict[str, np.ndarray],
                lengths: np.ndarray | None = None,
                dedup: DedupIndex | None = None) -> np.ndarray:
        """Binary error predictions for encoded features.

        Works on freshly fitted detectors and on detectors restored via
        :func:`repro.models.serialization.load_detector` (which carry no
        train/test split).  ``lengths`` (true per-row sequence lengths,
        e.g. :attr:`~repro.dataprep.encoding.EncodedCells.lengths`)
        enables sorted-by-length inference chunking: cheaper on skewed
        data, identical predictions.  The dedup-memoized engine runs --
        the network scores each unique cell once, the cross-call cache
        serves cells seen before -- with ``dedup`` optionally supplying
        the precomputed unique-cell index.
        """
        if self.trainer is None:
            raise NotFittedError("fit() has not been called")
        probabilities = self.trainer.predict_proba(features, lengths=lengths,
                                                   dedup=dedup)
        return probabilities.argmax(axis=1).astype(np.int64)

    @property
    def inference_stats(self) -> InferenceStats:
        """Counters of the most recent prediction."""
        if self.trainer is None:
            raise NotFittedError("fit() has not been called")
        return self.trainer.inference_stats

    def evaluate(self) -> DetectionResult:
        """Evaluate the fitted model on the held-out test cells.

        The returned :class:`DetectionResult` carries the prediction
        pass's :class:`~repro.inference.InferenceStats` (unique-cell
        ratio, cache hits/misses) so dedup savings stay observable.
        """
        _, __, split, ___ = self._require_fitted()
        predictions = self.predict(split.test.features,
                                   lengths=split.test.lengths,
                                   dedup=split.test.dedup)
        report = ClassificationReport.from_predictions(split.test.labels,
                                                       predictions)
        result = DetectionResult(
            report=report,
            predictions=predictions,
            tuple_ids=split.test.tuple_ids,
            attribute_names=split.test.attribute_names,
            inference=self.inference_stats,
        )
        if telemetry.enabled():
            record = {
                "type": "evaluation",
                "n_cells": int(predictions.shape[0]),
                "precision": round(report.precision, 4),
                "recall": round(report.recall, 4),
                "f1": round(report.f1, 4),
                "inference": result.inference.as_dict(),
            }
            telemetry.get_registry().emit(record)
        return result

    def predict_table(self) -> list[tuple[int, str]]:
        """Predicted-erroneous cells over the *whole* table (train + test)."""
        encoded = self._require_fitted()[2].cells
        predictions = self.predict(encoded.features, lengths=encoded.lengths,
                                   dedup=encoded.dedup)
        return [
            (int(tid), attr)
            for tid, attr, pred in zip(encoded.tuple_ids,
                                       encoded.attribute_names, predictions)
            if pred == 1
        ]
