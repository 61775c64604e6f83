"""The end-to-end error-detection API (the paper's "system in action").

:class:`ErrorDetector` wires the whole pipeline together: data
preparation, trainset selection (DiverSet), label acquisition (from the
clean table or a user-supplied labelling function), training with
best-train-loss checkpointing, and evaluation on the held-out cells.

It implements the registry's :class:`~repro.detectors.base.Detector`
protocol itself.  The registered neural families ``tsb``, ``etsb`` and
``attn`` are its subclasses, each pinning one architecture, and
``ErrorDetector(architecture=...)`` constructs the matching family, the
way ``pathlib.Path`` constructs the platform's path class.
"""

from __future__ import annotations

import hashlib

from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.dataprep import (
    PreparedData,
    TrainTestSplit,
    prepare,
    split_by_tuple_ids,
)
from repro.dataprep.encoding import encode_values, table_cells
from repro.datasets.base import DatasetPair
from repro.detectors.base import POINTWISE, Detector
from repro.detectors.registry import register
from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.inference import InferenceStats, PredictionCache
from repro.inference.index import DedupIndex
from repro.metrics import ClassificationReport
from repro.models.attn import PatternAttentionEncoder
from repro.models.config import (
    ModelConfig,
    TrainingConfig,
    training_config_from_dict,
)
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
from repro.sampling import DiverSet
from repro.table import Table

ARCHITECTURES = ("tsb", "etsb", "attn")

#: Tiny widths for :meth:`ErrorDetector.example` (conformance-suite speed).
_EXAMPLE_MODEL = dict(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                      attr_units=3, length_dense_units=6, head_units=8,
                      attn_dim=6)

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


class ErrorDetector(Detector):
    """Detect erroneous cells in a dirty table with a BiRNN classifier.

    Parameters
    ----------
    architecture:
        ``"etsb"`` (default, the paper's best model), ``"tsb"`` or
        ``"attn"``: the family class to construct.  A family class
        accepts only its own architecture (or ``None``).
    n_label_tuples:
        Number of tuples :meth:`fit` samples for labelling (the paper
        uses 20).
    model_config, training_config:
        Architecture and training hyperparameters, as the dataclasses or
        their dict form (the registry's JSON configs).
    seed:
        Controls sampling, initialization and batching.
    extra_callbacks:
        Additional training callbacks (e.g. an
        :class:`~repro.nn.callbacks.EpochEvaluator` for learning
        curves); not part of :meth:`config`.

    Every prediction this detector serves shares one cross-call
    :class:`~repro.inference.PredictionCache`.
    """

    architecture = ""
    capabilities = frozenset({POINTWISE})

    def __new__(cls, architecture: str | None = None, *args, **kwargs):
        if cls is ErrorDetector:
            cls = FAMILIES.get(architecture or "etsb")
            if cls is None:
                raise ConfigurationError(
                    f"architecture must be one of {ARCHITECTURES}, "
                    f"got {architecture!r}")
        return super().__new__(cls)

    def __init__(self, architecture: str | None = None,
                 n_label_tuples: int = 20,
                 model_config: ModelConfig | dict | None = None,
                 training_config: TrainingConfig | dict | None = None,
                 seed: int = 0,
                 extra_callbacks: Sequence[Callback] = ()):
        if architecture not in (None, self.architecture):
            raise ConfigurationError(
                f"{type(self).__name__} is the {self.architecture!r} family, "
                f"got architecture={architecture!r}")
        if isinstance(model_config, dict):
            model_config = ModelConfig(**model_config)
        if isinstance(training_config, dict):
            training_config = training_config_from_dict(training_config)
        self.n_label_tuples = n_label_tuples
        self.model_config = model_config if model_config is not None else ModelConfig()
        self.training_config = (training_config if training_config is not None
                                else TrainingConfig())
        self.seed = seed
        self.extra_callbacks = tuple(extra_callbacks)
        self.prediction_cache = PredictionCache()
        self.model: Module | None = None
        self.prepared: PreparedData | None = None
        self.split: TrainTestSplit | None = None
        self.trainer: Trainer | None = None
        self.checkpoint: BestWeightsCheckpoint | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, pair: DatasetPair, labeled_rows: Sequence[int] | None = None,
            checkpoint_path: str | Path | None = None,
            resume_from: str | Path | None = None) -> "ErrorDetector":
        """Fit on a benchmark pair, labelling tuples from the clean table.

        This mirrors the paper's experiments: the user's labelling of the
        selected tuples is simulated with the ground truth, and *only*
        those tuples' labels are ever shown to the model.  DiverSet picks
        ``n_label_tuples`` tuples with ``default_rng(seed)`` and training
        continues that generator.  ``labeled_rows`` instead pins the
        labelled tuples (distinct ids present in the data), and training
        starts from a fresh ``default_rng(seed)``.

        ``checkpoint_path`` / ``resume_from`` pass through to
        :meth:`repro.nn.training.Trainer.fit`: epoch checkpoints are
        written atomically, and resuming from one after a crash yields
        final weights bit-identical to the uninterrupted fit.
        """
        prepared = prepare(pair.dirty, pair.clean)
        rng = np.random.default_rng(self.seed)
        if labeled_rows is None:
            labeled_rows = DiverSet().select(self.n_label_tuples, prepared,
                                             rng)
        return self._train(prepared, split_by_tuple_ids(prepared, labeled_rows),
                           rng, checkpoint_path, resume_from)

    def fit_with_labels(self, dirty: Table, label_fn: LabelFunction) -> "ErrorDetector":
        """Fit with labels obtained interactively from ``label_fn``.

        This is the production entry point: no clean table exists, the
        sampler proposes tuples and ``label_fn`` plays the human
        annotator, returning one 0/1 label per attribute of the proposed
        tuple.  Evaluation metrics are unavailable in this mode (there is
        no ground truth for the test cells); use :meth:`predict_table`.
        """
        # Preparing the table against itself labels every cell 0; the
        # user's labels overwrite the sampled tuples' cells below.  Tuple
        # t holds cells t * m .. t * m + m - 1.
        prepared = prepare(dirty, dirty)
        rng = np.random.default_rng(self.seed)
        train_ids = DiverSet().select(self.n_label_tuples, prepared, rng)

        m = len(prepared.attributes)
        labels = prepared.labels.copy()
        for tid in train_ids:
            cells = slice(tid * m, (tid + 1) * m)
            given = list(label_fn(tid, dict(zip(prepared.attributes,
                                                prepared.cell_texts(cells)))))
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
            labels[cells] = [int(label) for label in given]

        prepared = replace(prepared, labels=labels)
        return self._train(prepared, split_by_tuple_ids(prepared, train_ids),
                           rng)

    def _train(self, prepared: PreparedData, split: TrainTestSplit,
               rng: np.random.Generator,
               checkpoint_path: str | Path | None = None,
               resume_from: str | Path | None = None) -> "ErrorDetector":
        # The cache keys entries by weights version, and a refit of the
        # same topology for as many steps ends at the version the
        # previous model ended at.
        self.prediction_cache.invalidate()
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
        self.labeled_rows = tuple(int(t) for t in split.train_tuple_ids)
        trainer.fit(split.train.features, split.train.labels,
                    epochs=self.training_config.epochs, batch_size=batch_size,
                    checkpoint_path=checkpoint_path, resume_from=resume_from)
        return self

    # -- inference ------------------------------------------------------------

    def _fitted_split(self) -> TrainTestSplit:
        if self.split is None or self.trainer is None:
            raise NotFittedError("fit() has not been called")
        return self.split

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
        split = self._fitted_split()
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
        encoded = self._fitted_split().cells
        predictions = self.predict(encoded.features, lengths=encoded.lengths,
                                   dedup=encoded.dedup)
        return [
            (int(tid), attr)
            for tid, attr, pred in zip(encoded.tuple_ids,
                                       encoded.attribute_names, predictions)
            if pred == 1
        ]

    def score_columns(self, table: Table) -> tuple[list[str], np.ndarray]:
        """The columns of ``table`` the model knows, in table order, and
        their cells' ``(n, 2)`` class probabilities, column by column (cell
        ``k`` is row ``k % table.n_rows`` of column ``k // table.n_rows``).

        Cells are encoded as training encoded them
        (:func:`~repro.dataprep.encoding.encode_values`) and scored through
        the dedup-memoized engine and the prediction cache; fitted and
        loaded detectors alike.
        """
        if self.prepared is None or self.trainer is None:
            raise NotFittedError(f"{self.name}: fit() has not been called")
        columns, values, attributes = table_cells(table,
                                                  self.prepared.attributes)
        if not columns:
            return columns, np.zeros((0, 2))
        features, lengths = encode_values(self.prepared, values, attributes)
        return columns, self.trainer.predict_proba(features, lengths=lengths)

    # -- the registry protocol ---------------------------------------------------

    def score_cells(self, table: Table) -> np.ndarray:
        """Error probabilities of every cell, ``(n_rows, n_attributes)``;
        ``table`` must have exactly the fitted columns."""
        if self.prepared is not None \
                and tuple(table.column_names) != self.prepared.attributes:
            raise DataError(
                f"{self.name} was fitted on columns {self.prepared.attributes}, "
                f"got {tuple(table.column_names)}")
        _, probabilities = self.score_columns(table)
        # Cells come column by column; the grid is rows x columns.
        return np.ascontiguousarray(
            probabilities[:, 1].reshape(table.n_cols, table.n_rows).T)

    def config(self) -> dict:
        return {"n_label_tuples": self.n_label_tuples,
                "model_config": asdict(self.model_config),
                "training_config": asdict(self.training_config),
                "seed": self.seed}

    def _state_digest(self) -> str | None:
        if self.model is None:
            return None
        digest = hashlib.sha256()
        state = self.model.state_dict()
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(state[key]).tobytes())
        return digest.hexdigest()[:16]

    @classmethod
    def example(cls, seed: int = 0) -> "ErrorDetector":
        return cls(n_label_tuples=6, model_config=dict(_EXAMPLE_MODEL),
                   training_config={"epochs": 2}, seed=seed)


@register
class TSBDetector(ErrorDetector):
    """The paper's two-stacked bidirectional value RNN."""

    name = "tsb"
    architecture = "tsb"


@register
class ETSBDetector(ErrorDetector):
    """The enriched three-branch BiRNN (the paper's best model)."""

    name = "etsb"
    architecture = "etsb"


@register
class AttnDetector(ErrorDetector):
    """The pattern-perceptive self-attention encoder."""

    name = "attn"
    architecture = "attn"


#: The family class of each architecture.
FAMILIES = {family.architecture: family
            for family in (TSBDetector, ETSBDetector, AttnDetector)}
