"""Tests for detector serialization and ad-hoc value encoding."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataprep import AttributeDictionary, CharDictionary
from repro.datasets import load
from repro.errors import DataError, EncodingError, NotFittedError
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
    pair = load("hospital", n_rows=50, seed=2)
    detector = ErrorDetector(architecture="etsb", n_label_tuples=8,
                             model_config=TINY,
                             training_config=TrainingConfig(epochs=3), seed=0)
    detector.fit(pair)
    return detector


class TestRoundTrip:
    def test_identical_predictions(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        before = fitted.predict(fitted.split.test.features)
        after = loaded.predict(fitted.split.test.features)
        np.testing.assert_array_equal(before, after)

    def test_metadata_restored(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        assert loaded.architecture == "etsb"
        assert loaded.prepared.attributes == fitted.prepared.attributes
        assert loaded.prepared.max_length == fitted.prepared.max_length
        assert (loaded.prepared.char_index.n_chars
                == fitted.prepared.char_index.n_chars)

    def test_char_indices_preserved(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        original = fitted.prepared.char_index
        restored = loaded.prepared.char_index
        for i in range(1, original.n_chars + 1):
            assert restored.char_of(i) == original.char_of(i)

    def test_tsb_round_trip(self, tmp_path):
        pair = load("beers", n_rows=40, seed=2)
        detector = ErrorDetector(architecture="tsb", n_label_tuples=6,
                                 model_config=TINY,
                                 training_config=TrainingConfig(epochs=2),
                                 seed=0)
        detector.fit(pair)
        path = tmp_path / "tsb.npz"
        save_detector(detector, path)
        loaded = load_detector(path)
        np.testing.assert_array_equal(
            detector.predict(detector.split.test.features),
            loaded.predict(detector.split.test.features))

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_detector(ErrorDetector(), tmp_path / "x.npz")

    def test_bad_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(DataError, match="not a repro detector"):
            load_detector(path)


class TestEncodeValuesFor:
    def test_feature_shapes(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        features = encode_values_for(loaded, ["abc", "yes"],
                                     ["city", "emergency_service"])
        n, length = features["values"].shape
        assert n == 2
        assert length == loaded.prepared.max_length

    def test_unknown_characters_skipped(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        features = encode_values_for(loaded, ["☃☃"], ["city"])
        assert (features["values"] == 0).all()  # all skipped -> padding

    def test_overlong_value_truncated(self, fitted):
        features = encode_values_for(fitted, ["x" * 10_000], ["city"])
        assert features["values"].shape[1] == fitted.prepared.max_length
        assert features["length_norm"][0, 0] == 1.0

    def test_length_mismatch_rejected(self, fitted):
        with pytest.raises(DataError):
            encode_values_for(fitted, ["a", "b"], ["city"])


def _per_cell_encoding(prepared, values, attributes):
    """The one-cell-at-a-time rule ``encode_values_for`` must match."""
    n = len(values)
    encoded = np.zeros((n, prepared.max_length), dtype=np.int64)
    attr_idx = np.zeros(n, dtype=np.int64)
    length_norm = np.zeros((n, 1))
    for i, (value, attribute) in enumerate(zip(values, attributes)):
        text = value.lstrip()[:prepared.max_length]
        encoded[i] = prepared.char_index.encode(
            text, prepared.max_length, unknown="skip")
        attr_idx[i] = prepared.attribute_index.index_of(attribute)
        top = prepared.longest[attribute]
        length_norm[i, 0] = min(len(text) / top, 1.0) if top else 0.0
    return {"values": encoded, "attributes": attr_idx,
            "length_norm": length_norm}


def _assert_matches_per_cell_loop(cells, max_length, longest):
    values = [value for value, _ in cells]
    attributes = [attribute for _, attribute in cells]
    prepared = SimpleNamespace(
        char_index=CharDictionary(["abc\u00e9"]),
        attribute_index=AttributeDictionary(["x", "y"]),
        max_length=max_length, longest=longest)
    detector = SimpleNamespace(prepared=prepared)
    try:
        want = _per_cell_encoding(prepared, values, attributes)
    except EncodingError as exc:
        with pytest.raises(EncodingError) as got:
            encode_values_for(detector, values, attributes)
        assert str(got.value) == str(exc)
        return
    got = encode_values_for(detector, values, attributes)
    assert sorted(got) == sorted(want)
    for key, array in want.items():
        assert got[key].dtype == array.dtype, key
        assert got[key].shape == array.shape, key
        assert got[key].tobytes() == array.tobytes(), key


#: A few stock values so drawn lists repeat some of them.
STOCK = ["", "ab", "abc", "abcdefg", "a\u00e9b", "\u2603", "zz\U0001F600",
         " ab", "  ", "\t abc"]
CELLS = st.lists(
    st.tuples(st.one_of(st.sampled_from(STOCK),
                        st.text(alphabet="abc\u00e9\u2603\U0001F600z \t",
                                max_size=9)),
              st.sampled_from(["x", "y", "x", "y", "unknown", "other"])),
    max_size=24)


@pytest.mark.equivalence
@given(CELLS, st.integers(1, 6))
@settings(max_examples=200, deadline=None)
@example([("", "x"), ("abcdefg", "y"), ("abcdefg", "y"), ("\u2603", "x")], 3)
@example([("ab", "x"), ("ab", "unknown"), ("c", "y"), ("d", "other")], 4)
@example([(" ab", "x"), ("ab", "x"), ("  ", "y")], 2)
@example([], 2)
def test_encode_values_for_matches_per_cell_loop(cells, max_length):
    """The v1/v2 fallback (every attribute's longest value is
    ``max_length``): distinct-value encoding equals the per-cell loop,
    bit for bit: leading whitespace stripped, unknown characters
    skipped, overlong values clipped, empty and repeated values; an
    unknown attribute raises the loop's error, for its first row."""
    _assert_matches_per_cell_loop(cells, max_length,
                                  {"x": max_length, "y": max_length})


@pytest.mark.equivalence
@given(CELLS, st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
@example([(" ab", "x"), ("abcdefg", "y"), ("a", "x")], 6, None)
def test_encode_values_for_matches_per_attribute_loop(cells, max_length,
                                                      data):
    """v3: ``length_norm`` is the stripped, clipped value's length over
    its attribute's longest training value -- 0.0 when that value is
    empty, capped at 1.0 for longer values."""
    if data is None:
        longest = {"x": 0, "y": 3}
    else:
        bound = st.integers(0, max_length)
        longest = {"x": data.draw(bound), "y": data.draw(bound)}
    _assert_matches_per_cell_loop(cells, max_length, longest)
