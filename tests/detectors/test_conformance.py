"""The cross-detector conformance pass.

Every family in the registry -- present and future -- is held to the
same :class:`~repro.detectors.base.Detector` contract, parametrized over
``list_detectors()`` on both autograd backends:

* ``fit``/``score_cells`` shapes and the [0, 1] probability range;
* bitwise determinism of refitting with the same seed;
* subset/permutation invariance for pointwise detectors (a cell's score
  may not depend on which other rows share the batch);
* archive round-trip: identical scores and fingerprint after
  ``save``/``load``;
* the ``type(d)(**d.config())`` rebuild identity and JSON-serialisable
  configs;
* ``NotFittedError`` before ``fit``;
* ``labeled_rows`` records the tuples ``fit`` labelled, sampled or
  pinned.

Registering a detector is all it takes to be covered here.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.detectors import (
    POINTWISE,
    TRANSDUCTIVE,
    get,
    list_detectors,
)
from repro.errors import NotFittedError
from repro.nn.backend import use_backend
from repro.table import Table

from tests.detectors.conftest import SEED

BACKENDS = ("fused", "graph")


def _all_detectors():
    return list_detectors()


def _subset_table(table: Table, rows: list[int]) -> Table:
    return Table({name: [table.column(name).values[i] for i in rows]
                  for name in table.column_names})


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", _all_detectors())
class TestConformance:
    def test_registry_entry(self, name, backend):
        cls = get(name)
        assert cls.name == name or name == "ensemble"
        example = cls.example(seed=SEED)
        assert example.name == name
        assert example.capabilities & {POINTWISE, TRANSDUCTIVE}

    def test_score_shapes_and_range(self, name, backend, pair, fitted):
        _, scores = fitted(name, backend)
        assert scores.shape == (pair.dirty.n_rows, pair.dirty.n_cols)
        assert scores.dtype == np.float64
        assert float(scores.min()) >= 0.0
        assert float(scores.max()) <= 1.0

    def test_seed_determinism(self, name, backend, pair, fitted):
        _, scores = fitted(name, backend)
        with use_backend(backend):
            refit = get(name).example(seed=SEED).fit(pair)
            again = refit.score_cells(pair.dirty)
        np.testing.assert_array_equal(scores, again)

    def test_predict_cells_thresholds_scores(self, name, backend, pair,
                                             fitted):
        detector, scores = fitted(name, backend)
        with use_backend(backend):
            predictions = detector.predict_cells(pair.dirty)
        np.testing.assert_array_equal(predictions,
                                      (scores >= 0.5).astype(np.int64))

    def test_subset_and_permutation_invariance(self, name, backend, pair,
                                               fitted):
        detector, scores = fitted(name, backend)
        if TRANSDUCTIVE in detector.capabilities:
            pytest.skip("transductive detectors score only the fitted table")
        rows = [7, 3, 11, 3, 0]  # permuted, with a repeat
        with use_backend(backend):
            part = detector.score_cells(_subset_table(pair.dirty, rows))
        np.testing.assert_array_equal(part, scores[rows])

    def test_archive_round_trip(self, name, backend, pair, fitted, tmp_path):
        detector, scores = fitted(name, backend)
        path = tmp_path / f"{name}.npz"
        detector.save(path)
        with use_backend(backend):
            loaded = type(detector).load(path)
            again = loaded.score_cells(pair.dirty)
        np.testing.assert_array_equal(scores, again)
        assert loaded.fingerprint() == detector.fingerprint()

    def test_config_rebuilds_and_serialises(self, name, backend, fitted):
        detector, _ = fitted(name, backend)
        config = detector.config()
        json.loads(json.dumps(config))  # JSON-serialisable, round-trips
        rebuilt = type(detector)(**config)
        assert rebuilt.config() == config
        # An unfitted rebuild carries no state, only identity.
        assert rebuilt._state_digest() is None

    def test_unfitted_detector_refuses_to_score(self, name, backend, pair):
        detector = get(name).example(seed=SEED)
        with pytest.raises(NotFittedError):
            detector.score_cells(pair.dirty)

    def test_fit_records_labeled_rows(self, name, backend, pair, fitted):
        detector, _ = fitted(name, backend)
        rows = detector.labeled_rows
        assert isinstance(rows, tuple)
        assert all(type(row) is int for row in rows)
        assert len(set(rows)) == len(rows) == detector.n_label_tuples
        assert set(rows) <= set(range(pair.dirty.n_rows))
        assert get(name).example(seed=SEED).labeled_rows is None
        pinned = [9, 2, 30, 17, 5, 21]
        with use_backend(backend):
            refit = get(name).example(seed=SEED).fit(pair,
                                                     labeled_rows=pinned)
        assert refit.labeled_rows == tuple(pinned)

    def test_fingerprint_changes_with_fitted_state(self, name, backend,
                                                   fitted):
        detector, _ = fitted(name, backend)
        unfitted = type(detector)(**detector.config())
        assert detector.fingerprint() != unfitted.fingerprint()
