"""Detector archive format v3: each attribute's longest training value.

A v3 archive stores the denominator of ``length_norm`` per attribute,
so a loaded detector encodes cells as training did.  A v2 archive (the
field stripped from a fresh save) loads with every attribute's longest
value set to the archive's ``max_length``, the denominator it was
scored with.  The field is outside input: anything but exactly the
archive's attributes, each with an int in ``[0, max_length]``, raises
``DataError``.
"""

import json

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import DataError
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.models.serialization import (
    encode_values_for,
    load_detector,
    save_detector,
)

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)


@pytest.fixture(scope="module")
def fitted():
    pair = load("beers", n_rows=40, seed=5)
    detector = ErrorDetector(architecture="etsb", n_label_tuples=6,
                             model_config=TINY,
                             training_config=TrainingConfig(epochs=2), seed=0)
    return detector.fit(pair)


@pytest.fixture
def archive(fitted, tmp_path):
    path = tmp_path / "model.npz"
    save_detector(fitted, path)
    return path


def rewrite(path, edit):
    """Apply ``edit`` to the archive's metadata in place."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)


def probe(detector):
    """The training cells plus, per attribute, an overlong, a
    whitespace-led and an empty value."""
    df = detector.prepared.df
    values = list(df.column("value_x").values)
    attributes = list(df.column("attribute").values)
    for name in detector.prepared.attributes:
        for value in ("x" * 300, "  7", ""):
            values.append(value)
            attributes.append(name)
    return values, attributes


def test_v3_round_trip(fitted, archive):
    with np.load(archive, allow_pickle=False) as saved:
        meta = json.loads(str(saved["meta"]))
    assert meta["format_version"] == 3
    assert meta["longest"] == fitted.prepared.longest
    assert list(meta["longest"]) == list(fitted.prepared.attributes)
    loaded = load_detector(archive)
    assert loaded.prepared.longest == fitted.prepared.longest
    values, attributes = probe(fitted)
    want = encode_values_for(fitted, values, attributes)
    got = encode_values_for(loaded, values, attributes)
    for name, array in want.items():
        assert got[name].tobytes() == array.tobytes(), name
    assert (loaded.trainer.predict_proba(got).tobytes()
            == fitted.trainer.predict_proba(want).tobytes())


def test_v2_archive_loads_with_the_max_length_fallback(fitted, archive):
    def to_v2(meta):
        meta["format_version"] = 2
        del meta["longest"]

    rewrite(archive, to_v2)
    loaded = load_detector(archive)
    max_length = fitted.prepared.max_length
    assert loaded.prepared.longest == dict.fromkeys(
        fitted.prepared.attributes, max_length)
    values, attributes = probe(fitted)
    got = encode_values_for(loaded, values, attributes)
    want = [min(len(v.lstrip()[:max_length]) / max_length, 1.0)
            for v in values]
    assert got["length_norm"].ravel().tolist() == want
    # Only the denominator differs from a v3 load.
    current = encode_values_for(fitted, values, attributes)
    for name in ("values", "attributes"):
        assert got[name].tobytes() == current[name].tobytes()


def test_v2_archive_ignores_a_longest_field(fitted, archive):
    rewrite(archive, lambda meta: meta.update(
        format_version=2, longest="not checked before v3"))
    assert load_detector(archive).prepared.longest == dict.fromkeys(
        fitted.prepared.attributes, fitted.prepared.max_length)


def _malformed(fitted):
    attributes = list(fitted.prepared.attributes)
    good = dict(fitted.prepared.longest)
    top = fitted.prepared.max_length
    first = attributes[0]
    return {
        "missing": None,
        "list": [good[a] for a in attributes],
        "attribute_missing": {a: good[a] for a in attributes[1:]},
        "attribute_extra": {**good, "ghost": 1},
        "float": {**good, first: 1.0},
        "string": {**good, first: "3"},
        "bool": {**good, first: True},
        "negative": {**good, first: -1},
        "over_max_length": {**good, first: top + 1},
    }


@pytest.mark.parametrize("case", ["missing", "list", "attribute_missing",
                                  "attribute_extra", "float", "string",
                                  "bool", "negative", "over_max_length"])
def test_malformed_longest_raises_data_error(fitted, archive, case):
    bad = _malformed(fitted)[case]

    def corrupt(meta):
        if bad is None:
            del meta["longest"]
        else:
            meta["longest"] = bad

    rewrite(archive, corrupt)
    with pytest.raises(DataError, match="longest"):
        load_detector(archive)


def test_bounds_are_inclusive(fitted, archive):
    attributes = fitted.prepared.attributes
    edges = {a: (0 if i % 2 else fitted.prepared.max_length)
             for i, a in enumerate(attributes)}
    rewrite(archive, lambda meta: meta.update(longest=edges))
    assert load_detector(archive).prepared.longest == edges


def test_unknown_version_still_rejected(archive):
    rewrite(archive, lambda meta: meta.update(format_version=4))
    with pytest.raises(DataError, match="version"):
        load_detector(archive)
