"""Registry adapters wrapping the existing detector implementations.

Each adapter folds one entry point -- :class:`ErrorDetector` for the
neural families, :class:`RahaDetector`, :class:`AugmentationDetector` --
into the uniform :class:`~repro.detectors.base.Detector` protocol, so
ensembles, experiment tables, the CLI and the conformance suite treat
them interchangeably.
"""

from __future__ import annotations

import hashlib
import json

from pathlib import Path

import numpy as np

from repro.baselines.augment import AugmentationDetector
from repro.baselines.raha import RahaDetector
from repro.dataprep import prepare
from repro.dataprep.encoding import encode_values, table_cells
from repro.dataprep.pipeline import _normalise_cell
from repro.datasets.base import DatasetPair
from repro.detectors.base import (
    PROCESS_LOCAL,
    POINTWISE,
    TRANSDUCTIVE,
    Detector,
)
from repro.detectors.registry import register
from repro.errors import DataError, NotFittedError
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.models.config import training_config_from_dict
from repro.models.serialization import load_detector, save_detector
from repro.sampling import DiverSet
from repro.table import Table

#: Tiny widths shared by every ``example()`` (conformance-suite speed).
_EXAMPLE_MODEL = dict(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                      attr_units=3, length_dense_units=6, head_units=8,
                      attn_dim=6)


def table_digest(table: Table) -> str:
    """Content hash of a table (column names + normalised cell text)."""
    digest = hashlib.sha256()
    for name in table.column_names:
        digest.update(name.encode())
        digest.update(b"\x00")
        for value in table.column(name).values:
            digest.update(_normalise_cell(value).encode())
            digest.update(b"\x01")
    return digest.hexdigest()


# -- neural families ----------------------------------------------------------


class NeuralDetector(Detector):
    """Adapter over :class:`ErrorDetector` for one registered architecture.

    Parameters mirror the wrapped class; ``model_config`` /
    ``training_config`` accept plain dicts (the JSON-serialisable
    registry form) or the dataclasses.

    ``fit(pair)`` samples with DiverSet and trains from the same
    generator; ``fit(pair, labeled_rows=...)`` trains on exactly those
    tuples from a fresh ``default_rng(seed)``.  ``extra_callbacks``
    (not part of :meth:`config`) are handed to the wrapped trainer, e.g.
    the experiment runner's learning-curve recorder.
    """

    architecture = ""
    capabilities = frozenset({POINTWISE})

    def __init__(self, n_label_tuples: int = 20,
                 model_config: dict | ModelConfig | None = None,
                 training_config: dict | TrainingConfig | None = None,
                 seed: int = 0):
        if isinstance(model_config, dict):
            model_config = ModelConfig(**model_config)
        if isinstance(training_config, dict):
            training_config = training_config_from_dict(training_config)
        self.n_label_tuples = n_label_tuples
        self.model_config = model_config
        self.training_config = training_config
        self.seed = seed
        self.extra_callbacks: tuple = ()
        self._detector: ErrorDetector | None = None
        self._columns: tuple[str, ...] | None = None

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "NeuralDetector":
        self._detector = ErrorDetector(
            architecture=self.architecture, sampler=DiverSet(),
            n_label_tuples=(self.n_label_tuples if labeled_rows is None
                            else len(labeled_rows)),
            model_config=self.model_config,
            training_config=self.training_config, seed=self.seed,
            extra_callbacks=self.extra_callbacks)
        self._detector.fit_tables(pair.dirty, pair.clean,
                                  train_ids=labeled_rows)
        assert self._detector.split is not None
        self.labeled_rows = tuple(
            int(t) for t in self._detector.split.train_tuple_ids)
        self._columns = tuple(pair.dirty.column_names)
        return self

    @property
    def error_detector(self) -> ErrorDetector:
        """The wrapped :class:`ErrorDetector` (set once ``fit`` starts)."""
        return self._require_fitted()

    def _require_fitted(self) -> ErrorDetector:
        if self._detector is None:
            raise NotFittedError(f"{self.name}: fit() has not been called")
        return self._detector

    def score_cells(self, table: Table) -> np.ndarray:
        detector = self._require_fitted()
        if self._columns is not None \
                and tuple(table.column_names) != self._columns:
            raise DataError(
                f"{self.name} was fitted on columns {self._columns}, "
                f"got {tuple(table.column_names)}")
        assert detector.prepared is not None and detector.trainer is not None
        _, values, attributes = table_cells(table, table.column_names)
        features, lengths = encode_values(detector.prepared, values,
                                          attributes)
        probabilities = detector.trainer.predict_proba(features,
                                                       lengths=lengths)
        # Cells come column by column; the grid is rows x columns.
        return np.ascontiguousarray(
            probabilities[:, 1].reshape(table.n_cols, table.n_rows).T)

    def config(self) -> dict:
        from dataclasses import asdict
        return {
            "n_label_tuples": self.n_label_tuples,
            "model_config": (None if self.model_config is None
                             else asdict(self.model_config)),
            "training_config": (None if self.training_config is None
                                else asdict(self.training_config)),
            "seed": self.seed,
        }

    def _state_digest(self) -> str | None:
        if self._detector is None or self._detector.model is None:
            return None
        digest = hashlib.sha256()
        state = self._detector.model.state_dict()
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(state[key]).tobytes())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        save_detector(self._require_fitted(), path)
        # Re-pack with the adapter-level config (n_label_tuples is not
        # part of the detector archive) so load() rebuilds an adapter
        # whose config() -- and hence fingerprint -- matches exactly.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["adapter_meta"] = np.array(json.dumps(self.config()))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "NeuralDetector":
        with np.load(path, allow_pickle=False) as archive:
            adapter_config = (json.loads(str(archive["adapter_meta"]))
                              if "adapter_meta" in archive.files else None)
        inner = load_detector(path)
        if inner.architecture != cls.architecture:
            raise DataError(
                f"{path}: archive holds a {inner.architecture!r} model, "
                f"not {cls.architecture!r}")
        if adapter_config is not None:
            adapter = cls(**adapter_config)
        else:  # plain save_detector archive: adapter defaults apply
            adapter = cls(model_config=inner.model_config,
                          training_config=inner.training_config,
                          seed=inner.seed)
        adapter._detector = inner
        assert inner.prepared is not None
        adapter._columns = tuple(inner.prepared.attributes)
        return adapter

    @classmethod
    def example(cls, seed: int = 0) -> "NeuralDetector":
        return cls(n_label_tuples=6, model_config=dict(_EXAMPLE_MODEL),
                   training_config={"epochs": 2}, seed=seed)


@register
class TSBDetector(NeuralDetector):
    """The paper's two-stacked bidirectional value RNN."""

    name = "tsb"
    architecture = "tsb"


@register
class ETSBDetector(NeuralDetector):
    """The enriched three-branch BiRNN (the paper's best model)."""

    name = "etsb"
    architecture = "etsb"


@register
class AttnDetector(NeuralDetector):
    """The pattern-perceptive self-attention encoder."""

    name = "attn"
    architecture = "attn"


# -- Raha ---------------------------------------------------------------------


@register
class RahaAdapter(Detector):
    """Adapter over the configuration-free Raha baseline.

    Transductive: the strategy-verdict clustering is computed for one
    dirty table, so only that table can be scored.  Scores are the hard
    0/1 verdicts of the propagated per-column classifiers.
    """

    name = "raha"
    capabilities = frozenset({TRANSDUCTIVE})

    def __init__(self, n_label_tuples: int = 20, clusters_per_label: int = 2,
                 seed: int = 0):
        self.n_label_tuples = n_label_tuples
        self.clusters_per_label = clusters_per_label
        self.seed = seed
        self._predictions: np.ndarray | None = None
        self._digest: str | None = None
        self._columns: tuple[str, ...] | None = None

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "RahaAdapter":
        rng = np.random.default_rng(self.seed)
        detector = RahaDetector(clusters_per_label=self.clusters_per_label,
                                rng=rng)
        n_labels = (len(labeled_rows) if labeled_rows is not None
                    else self.n_label_tuples)
        detector.analyze(pair.dirty, n_labels=n_labels)
        if labeled_rows is None:
            labeled_rows = detector.sample_tuples(self.n_label_tuples)
        mask = np.array(pair.error_mask())
        predictions = detector.fit_predict(
            labeled_rows, mask[labeled_rows].astype(np.int64))
        self._predictions = predictions.astype(np.float64)
        self._digest = table_digest(pair.dirty)
        self._columns = tuple(pair.dirty.column_names)
        self.labeled_rows = tuple(int(t) for t in labeled_rows)
        return self

    def score_cells(self, table: Table) -> np.ndarray:
        if self._predictions is None:
            raise NotFittedError("raha: fit() has not been called")
        if table_digest(table) != self._digest:
            raise DataError(
                "raha is transductive: score_cells only accepts the table "
                "it was fitted on")
        return self._predictions.copy()

    def config(self) -> dict:
        return {"n_label_tuples": self.n_label_tuples,
                "clusters_per_label": self.clusters_per_label,
                "seed": self.seed}

    def _state_digest(self) -> str | None:
        if self._predictions is None:
            return None
        digest = hashlib.sha256(self._predictions.tobytes())
        digest.update((self._digest or "").encode())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        if self._predictions is None:
            raise NotFittedError("raha: fit() has not been called")
        meta = {"config": self.config(), "digest": self._digest,
                "columns": list(self._columns or ())}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 predictions=self._predictions)

    @classmethod
    def load(cls, path: str | Path) -> "RahaAdapter":
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            predictions = archive["predictions"]
        adapter = cls(**meta["config"])
        adapter._predictions = predictions
        adapter._digest = meta["digest"]
        adapter._columns = tuple(meta["columns"])
        return adapter

    @classmethod
    def example(cls, seed: int = 0) -> "RahaAdapter":
        return cls(n_label_tuples=6, seed=seed)


# -- augmentation -------------------------------------------------------------


@register
class AugmentAdapter(Detector):
    """Adapter over the per-attribute augmentation baseline.

    Pointwise (a cell's score depends only on its text and column), but
    ``process_local``: the hashed n-gram features are keyed on Python's
    per-process ``hash()`` salt, so archives only round-trip within the
    writing process.
    """

    name = "augment"
    capabilities = frozenset({POINTWISE, PROCESS_LOCAL})

    def __init__(self, n_label_tuples: int = 20, n_augments: int = 4,
                 n_buckets: int = 256, seed: int = 0):
        self.n_label_tuples = n_label_tuples
        self.n_augments = n_augments
        self.n_buckets = n_buckets
        self.seed = seed
        self._models: dict[str, AugmentationDetector] | None = None
        self._columns: tuple[str, ...] | None = None

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "AugmentAdapter":
        prepared = prepare(pair.dirty, pair.clean)
        rng = np.random.default_rng(self.seed)
        if labeled_rows is None:
            labeled_rows = DiverSet().select(self.n_label_tuples, prepared,
                                             rng)
        self.labeled_rows = tuple(int(t) for t in labeled_rows)
        # The labelled tuples' cells of attribute j, in ascending tuple
        # order: tuple t's cell of attribute j is t * m + j.
        m = len(prepared.attributes)
        tuples = np.array(sorted(set(self.labeled_rows).intersection(
            range(prepared.n_tuples))), dtype=np.int64)
        models: dict[str, AugmentationDetector] = {}
        for j, attribute in enumerate(prepared.attributes):
            cells = tuples * m + j
            model = AugmentationDetector(n_augments=self.n_augments,
                                         n_buckets=self.n_buckets, rng=rng)
            model.fit(prepared.cell_texts(cells),
                      prepared.labels[cells].tolist())
            models[attribute] = model
        self._models = models
        self._columns = tuple(pair.dirty.column_names)
        return self

    def score_cells(self, table: Table) -> np.ndarray:
        if self._models is None:
            raise NotFittedError("augment: fit() has not been called")
        if tuple(table.column_names) != self._columns:
            raise DataError(
                f"augment was fitted on columns {self._columns}, "
                f"got {tuple(table.column_names)}")
        scores = np.zeros((table.n_rows, table.n_cols))
        for j, attribute in enumerate(table.column_names):
            texts = [_normalise_cell(v)
                     for v in table.column(attribute).values]
            scores[:, j] = self._models[attribute].predict_proba(texts)
        return scores

    def config(self) -> dict:
        return {"n_label_tuples": self.n_label_tuples,
                "n_augments": self.n_augments,
                "n_buckets": self.n_buckets, "seed": self.seed}

    def _state_digest(self) -> str | None:
        if self._models is None:
            return None
        digest = hashlib.sha256()
        for attribute in sorted(self._models):
            model = self._models[attribute]
            digest.update(attribute.encode())
            classifier = model._classifier
            if classifier is None:
                digest.update(str(getattr(model, "_constant", "")).encode())
            else:
                assert classifier.coefficients is not None
                digest.update(classifier.coefficients.tobytes())
                digest.update(np.float64(classifier.intercept).tobytes())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        if self._models is None:
            raise NotFittedError("augment: fit() has not been called")
        arrays: dict[str, np.ndarray] = {}
        columns_meta = {}
        for attribute, model in self._models.items():
            classifier = model._classifier
            if classifier is None:
                columns_meta[attribute] = {
                    "constant": int(getattr(model, "_constant", 0))}
            else:
                assert classifier.coefficients is not None
                columns_meta[attribute] = {
                    "intercept": classifier.intercept}
                arrays[f"coef:{attribute}"] = classifier.coefficients
        meta = {"config": self.config(),
                "columns": list(self._columns or ()),
                "models": columns_meta}
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "AugmentAdapter":
        from repro.baselines.logreg import LogisticRegression
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            coefs = {name[len("coef:"):]: archive[name]
                     for name in archive.files if name.startswith("coef:")}
        adapter = cls(**meta["config"])
        models: dict[str, AugmentationDetector] = {}
        for attribute, column_meta in meta["models"].items():
            model = AugmentationDetector(
                n_augments=meta["config"]["n_augments"],
                n_buckets=meta["config"]["n_buckets"])
            if "constant" in column_meta:
                model._classifier = None
                model._constant = int(column_meta["constant"])
            else:
                classifier = LogisticRegression()
                classifier.coefficients = coefs[attribute]
                classifier.intercept = float(column_meta["intercept"])
                model._classifier = classifier
            models[attribute] = model
        adapter._models = models
        adapter._columns = tuple(meta["columns"])
        return adapter

    @classmethod
    def example(cls, seed: int = 0) -> "AugmentAdapter":
        return cls(n_label_tuples=6, n_augments=2, seed=seed)
