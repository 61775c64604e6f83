"""Tests for the Figure 3 data-preparation pipeline."""

import numpy as np
import pytest

from repro.dataprep import encode_cells, prepare
from repro.errors import DataError
from repro.table import Table


def _texts(prepared):
    """Every cell's prepared dirty text, in cell order."""
    return prepared.cell_texts(slice(None))


def _cells(prepared, values):
    """``{(tuple, attribute): value}`` of per-cell ``values``: cell ``k``
    is tuple ``k // m``, attribute ``k % m``."""
    m = len(prepared.attributes)
    return {(k // m, prepared.attributes[k % m]): value
            for k, value in enumerate(values)}


class TestStructureTransformation:
    def test_id_column_added(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.n_tuples == 5
        assert encode_cells(prepared).tuple_ids.tolist() == [
            i for i in range(5) for _ in range(4)]

    def test_leading_whitespace_stripped(self):
        dirty = Table({"a": ["  x", "y"]})
        clean = Table({"a": ["x", " y"]})
        prepared = prepare(dirty, clean)
        assert _texts(prepared) == ["x", "y"]
        # The clean side is stripped too: neither cell is an error.
        assert prepared.labels.tolist() == [0, 0]

    def test_trailing_whitespace_kept(self):
        dirty = Table({"a": ["x  "]})
        prepared = prepare(dirty, Table({"a": ["x"]}))
        assert _texts(prepared) == ["x  "]
        assert prepared.labels.tolist() == [1]

    def test_columns_renamed_positionally(self):
        dirty = Table({"colA": ["1"], "colB": ["2"]})
        clean = Table({"a": ["1"], "b": ["3"]})
        prepared = prepare(dirty, clean)
        assert prepared.attributes == ("a", "b")
        assert _cells(prepared, _texts(prepared)) == {(0, "a"): "1",
                                                      (0, "b"): "2"}
        assert _cells(prepared, prepared.labels.tolist()) == {(0, "a"): 0,
                                                              (0, "b"): 1}

    def test_none_becomes_empty_string(self):
        dirty = Table({"a": [None]})
        prepared = prepare(dirty, Table({"a": ["x"]}))
        assert _texts(prepared) == [""]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            prepare(Table({"a": ["1"]}), Table({"a": ["1", "2"]}))

    def test_existing_id_column_rejected(self):
        table = Table({"id_": ["1"], "a": ["2"]})
        with pytest.raises(DataError):
            prepare(table, table)


class TestMergeToLong:
    def test_long_format_shape(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.labels.shape == (5 * 4,)  # tuples x attributes
        assert prepared.labels.dtype == np.int64
        # Cell k is tuple k // 4, attribute k % 4, paired with the clean
        # cell of the same position.
        for k, (text, label) in enumerate(zip(_texts(prepared),
                                              prepared.labels.tolist())):
            name = clean.column_names[k % 4]
            assert prepared.attributes[k % 4] == name
            assert text == (dirty.column(dirty.column_names[k % 4])
                            [k // 4] or "").lstrip()
            clean_text = (clean.column(name)[k // 4] or "").lstrip()
            assert label == int(text != clean_text)

    def test_labels_match_table1(self, paper_example):
        """The highlighted cells of Table 1 must be labelled 1."""
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        errors = {cell for cell, label
                  in _cells(prepared, prepared.labels.tolist()).items()
                  if label == 1}
        assert errors == {
            (0, "Sal"), (0, "City"),        # '80,000', 'NaN'
            (1, "City"),                    # 'Romr'
            (3, "A"), (3, "ZIP"),           # '12', 'BER'
            (4, "Sal"), (4, "ZIP"),         # '850', '75000'
        }

    def test_empty_flag(self):
        """An empty dirty value (DiverSet's ``#empty``) is a cell whose
        text is empty."""
        dirty = Table({"a": ["", "x"]})
        clean = Table({"a": ["y", "x"]})
        prepared = prepare(dirty, clean)
        by_id = _cells(prepared, [int(not text) for text in _texts(prepared)])
        assert by_id == {(0, "a"): 1, (1, "a"): 0}

    def test_concat_column(self, paper_example):
        """A cell's key is its ``(attribute, value)`` pair, DiverSet's
        ``attribute__value`` concat."""
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        keys = prepared.keys
        first = keys.codes[0]
        assert (keys.attributes[first], keys.values[first]) == (
            prepared.attributes[0], _texts(prepared)[0])

    def test_length_norm_is_ratio_per_attribute(self):
        dirty = Table({"a": ["xx", "xxxx"], "b": ["y", "y"]})
        prepared = prepare(dirty, dirty)
        ratios = _cells(prepared, encode_cells(prepared)
                        .features["length_norm"][:, 0].tolist())
        assert ratios[(0, "a")] == 0.5
        assert ratios[(1, "a")] == 1.0
        assert ratios[(0, "b")] == 1.0

    def test_length_norm_zero_for_all_empty_attribute(self):
        dirty = Table({"a": ["", ""], "b": ["x", "y"]})
        prepared = prepare(dirty, dirty)
        ratios = _cells(prepared, encode_cells(prepared)
                        .features["length_norm"][:, 0].tolist())
        assert prepared.longest["a"] == 0
        assert ratios[(0, "a")] == ratios[(1, "a")] == 0.0

    def test_truncation_at_max_length(self):
        dirty = Table({"a": ["x" * 200]})
        prepared = prepare(dirty, dirty, max_value_length=128)
        assert len(_texts(prepared)[0]) == 128

    def test_truncation_can_mask_errors(self):
        """Values differing only beyond the cut become label 0 -- the
        paper's 'cut them off' trade-off."""
        dirty = Table({"a": ["x" * 128 + "A"]})
        clean = Table({"a": ["x" * 128 + "B"]})
        prepared = prepare(dirty, clean)
        assert prepared.labels[0] == 0


class TestPrepare:
    def test_prepared_metadata(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.attributes == ("A", "Sal", "ZIP", "City")
        assert prepared.n_tuples == 5
        assert prepared.max_length == max(map(len, _texts(prepared)))

    def test_char_index_covers_dirty_values(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        for text in _texts(prepared):
            for char in text:
                assert char in prepared.char_index

    def test_attribute_index_covers_attributes(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        for name in prepared.attributes:
            assert name in prepared.attribute_index

    def test_tuple_ids_order(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.tuple_ids() == [0, 1, 2, 3, 4]

    def test_invalid_max_length_rejected(self, paper_example):
        dirty, clean = paper_example
        with pytest.raises(DataError):
            prepare(dirty, clean, max_value_length=0)
