"""One cell encoder: a fitted model scores a cell the same on every path.

The reference is what training evaluates: ``encode_cells`` over the
model's prepared table, scored by the detector's engine.  Every scoring
path -- ``encode_values_for`` in memory, a saved and reloaded archive,
``repro predict``, batch ``repro serve``, the daemon's ``score`` and
``load_table``, ``repro detect PATH --model`` and the registry adapter's
``score_cells`` -- must give the same table's raw cells byte-equal
probabilities (the paths that write only CSVs: the same flags).  One
model per family (tsb, etsb, attn) is trained on a table with leading
whitespace in some values and an attribute whose values are all empty.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.dataprep import encode_cells
from repro.dataprep.encoding import table_cells
from repro.datasets import load
from repro.datasets.base import DatasetPair
from repro.detectors import NeuralDetector, get
from repro.inference import InferenceEngine
from repro.io import detect_path
from repro.models import ErrorDetector
from repro.models.serialization import (
    encode_values_for,
    load_detector,
    save_detector,
)
from repro.serving import ServingClient, ServingDaemon
from repro.table import Table, read_csv, write_csv

pytestmark = pytest.mark.equivalence

FAMILIES = ("tsb", "etsb", "attn")
TINY = dict(char_embed_dim=6, value_units=8, attr_embed_dim=3, attr_units=3,
            length_dense_units=6, head_units=8, attn_dim=6)


def parity_pair() -> DatasetPair:
    """hospital with leading whitespace on every third value of its first
    column (preparation strips it, so those cells stay correct) and an
    all-empty ``blank`` attribute."""
    pair = load("hospital", n_rows=30, seed=4)
    dirty, clean = pair.dirty, pair.clean
    first = dirty.column_names[0]
    padded = [(" \t " if i % 3 == 0 else "") + str(v)
              for i, v in enumerate(dirty.column(first).values)]
    blank = [""] * dirty.n_rows

    def with_blank(table, replaced):
        columns = {name: table.column(name).values
                   for name in table.column_names}
        return Table({**columns, **replaced, "blank": blank})

    return DatasetPair("parity", with_blank(dirty, {first: padded}),
                       with_blank(clean, {}))


@dataclass
class Fitted:
    adapter: NeuralDetector
    detector: ErrorDetector
    pair: DatasetPair
    archive: Path
    csv: Path
    reference: np.ndarray       # (cells, 2), tuple by tuple

    @property
    def n_rows(self) -> int:
        return self.pair.dirty.n_rows

    def column_major(self, array: np.ndarray) -> np.ndarray:
        """Reorder tuple-by-tuple rows column by column, as the scoring
        paths flatten a table."""
        m = self.pair.dirty.n_cols
        return np.ascontiguousarray(np.swapaxes(
            array.reshape(self.n_rows, m, *array.shape[1:]), 0, 1)
            .reshape(array.shape))

    def expected_flags(self) -> list[tuple[int, str, str]]:
        """(row, attribute, value as the CSV holds it) of every cell the
        reference flags, column by column."""
        table = read_csv(self.csv)
        flags = self.column_major(self.reference).argmax(axis=1)
        _, values, attributes = table_cells(table, table.column_names)
        return [(k % self.n_rows, attributes[k], values[k])
                for k in np.flatnonzero(flags)]


@pytest.fixture(scope="module", params=FAMILIES)
def fitted(request, tmp_path_factory) -> Fitted:
    pair = parity_pair()
    adapter = get(request.param)(n_label_tuples=6, model_config=TINY,
                                 training_config={"epochs": 2}, seed=1)
    adapter.fit(pair)
    detector = adapter._detector
    root = tmp_path_factory.mktemp(request.param)
    archive = root / "model.npz"
    save_detector(detector, archive)
    folder = root / "folder"
    folder.mkdir()
    write_csv(pair.dirty, folder / "dirty.csv")
    encoded = encode_cells(detector.prepared)
    detector.prediction_cache.invalidate()
    reference = detector.trainer.predict_proba(
        encoded.features, lengths=encoded.lengths, dedup=encoded.dedup)
    return Fitted(adapter, detector, pair, archive, folder / "dirty.csv",
                  reference)


def raw_cells(fitted: Fitted) -> tuple[list[str], list[str]]:
    _, values, attributes = table_cells(fitted.pair.dirty,
                                        fitted.pair.dirty.column_names)
    return values, attributes


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def read_flags(path: Path) -> list[tuple[int, str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return [(int(r["row"]), r["attribute"], r["value"])
                for r in csv.DictReader(handle)]


def test_table_has_whitespace_and_an_empty_attribute(fitted):
    prepared = fitted.detector.prepared
    assert prepared.longest["blank"] == 0
    first = fitted.pair.dirty.column_names[0]
    raw = fitted.pair.dirty.column(first).values
    assert raw[0].startswith(" \t ")
    assert prepared.cell_texts(slice(0, 1)) == [raw[0].lstrip()]


def test_in_memory_encoder_matches_training(fitted):
    values, attributes = raw_cells(fitted)
    features = encode_values_for(fitted.detector, values, attributes)
    encoded = encode_cells(fitted.detector.prepared)
    assert sorted(features) == sorted(encoded.features)
    for name, array in encoded.features.items():
        assert_bytes_equal(features[name], fitted.column_major(array))
    fitted.detector.prediction_cache.invalidate()
    assert_bytes_equal(fitted.detector.trainer.predict_proba(features),
                       fitted.column_major(fitted.reference))


def test_archive_round_trip_matches_training(fitted):
    loaded = load_detector(fitted.archive)
    assert loaded.prepared.longest == fitted.detector.prepared.longest
    values, attributes = raw_cells(fitted)
    features = encode_values_for(loaded, values, attributes)
    assert_bytes_equal(loaded.trainer.predict_proba(features),
                       fitted.column_major(fitted.reference))


def test_cli_predict_flags_match_training(fitted, tmp_path):
    out = tmp_path / "flags.csv"
    assert main(["predict", "--model", str(fitted.archive), "--dirty",
                 str(fitted.csv), "--out", str(out)]) == 0
    assert read_flags(out) == fitted.expected_flags()


def test_cli_serve_batch_flags_match_training(fitted, tmp_path):
    assert main(["serve", "--model", str(fitted.archive), str(fitted.csv),
                 "--out-dir", str(tmp_path)]) == 0
    got = read_flags(tmp_path / f"{fitted.csv.stem}.errors.csv")
    assert got == fitted.expected_flags()


def test_daemon_score_and_load_table_match_training(fitted):
    values, attributes = raw_cells(fitted)
    want = fitted.column_major(fitted.reference)
    with ServingDaemon(model_path=fitted.archive,
                       batch_delay_ms=1.0) as daemon, \
            ServingClient(daemon.host, daemon.port) as client:
        reply = client.request({"op": "score", "cells": [
            {"attribute": a, "value": v}
            for v, a in zip(values, attributes)]})
        assert reply["ok"] is True
        assert_bytes_equal(np.array(reply["probabilities"]), want)
        reply = client.request({"op": "load_table", "session": "t",
                                "csv": str(fitted.csv)})
        assert reply["ok"] is True
        assert_bytes_equal(daemon.sessions["t"].probabilities, want)
        assert [(f["row"], f["attribute"], f["value"])
                for f in reply["flagged"]] == fitted.expected_flags()


def test_detect_path_with_model_matches_training(fitted):
    _, outcomes = detect_path(fitted.csv.parent,
                              detector=load_detector(fitted.archive))
    (outcome,) = outcomes
    assert outcome.attributes == tuple(fitted.pair.dirty.column_names)
    want = fitted.column_major(fitted.reference)
    assert_bytes_equal(outcome.scores, np.ascontiguousarray(want[:, 1]))
    np.testing.assert_array_equal(outcome.flags, want[:, 1] >= want[:, 0])


def test_registry_adapter_matches_training(fitted):
    fitted.detector.prediction_cache.invalidate()
    scores = fitted.adapter.score_cells(fitted.pair.dirty)
    assert_bytes_equal(scores, np.ascontiguousarray(
        fitted.reference[:, 1]).reshape(fitted.n_rows, -1))


def test_one_cell_calls_match_the_whole_table(fitted):
    """Each cell scored on its own (no cache, a one-row chunk) gives the
    bytes it gets inside the whole-table call."""
    values, attributes = raw_cells(fitted)
    model = fitted.detector.model
    whole = InferenceEngine(model).predict_proba(encode_values_for(
        fitted.detector, values, attributes))
    first = fitted.pair.dirty.column_names[0]
    picks = [0, 1, attributes.index("blank"), len(values) - 1,
             attributes.index(first) + 3]      # a whitespace-led value
    assert values[picks[-1]].startswith(" \t ")
    for k in picks:
        one = InferenceEngine(model).predict_proba(encode_values_for(
            fitted.detector, [values[k]], [attributes[k]]))
        assert_bytes_equal(one, whole[k:k + 1])


def test_leading_whitespace_and_empty_attribute_features(fitted):
    detector = fitted.detector
    first = fitted.pair.dirty.column_names[0]
    value = fitted.pair.clean.column(first).values[0]
    padded, plain = (encode_values_for(detector, [v], [first])
                     for v in (" \t " + value, value))
    for name in plain:
        assert_bytes_equal(padded[name], plain[name])
    # Unseen text in an attribute whose training values were all empty.
    blank = encode_values_for(detector, ["unseen", ""], ["blank", "blank"])
    assert blank["length_norm"].tolist() == [[0.0], [0.0]]
    reloaded = load_detector(fitted.archive)
    assert reloaded.prepared.longest["blank"] == 0
    again = encode_values_for(reloaded, ["unseen", ""], ["blank", "blank"])
    for name in blank:
        assert_bytes_equal(again[name], blank[name])
