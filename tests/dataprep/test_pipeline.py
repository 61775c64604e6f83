"""Tests for the Figure 3 data-preparation pipeline."""

import pytest

from repro.dataprep import prepare
from repro.errors import DataError
from repro.table import Table


def _cells(prepared, column):
    """``{(id_, attribute): cell}`` of one long-table column."""
    df = prepared.df
    return dict(zip(zip(df.column("id_").values, df.column("attribute").values),
                    df.column(column).values))


class TestStructureTransformation:
    def test_id_column_added(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.df.column("id_").values == tuple(
            i for i in range(5) for _ in range(4))

    def test_leading_whitespace_stripped(self):
        dirty = Table({"a": ["  x", "y"]})
        clean = Table({"a": ["x", " y"]})
        prepared = prepare(dirty, clean)
        assert prepared.df.column("value_x").values == ("x", "y")
        assert prepared.df.column("value_y").values == ("x", "y")

    def test_trailing_whitespace_kept(self):
        dirty = Table({"a": ["x  "]})
        prepared = prepare(dirty, Table({"a": ["x"]}))
        assert prepared.df.column("value_x")[0] == "x  "

    def test_columns_renamed_positionally(self):
        dirty = Table({"colA": ["1"], "colB": ["2"]})
        clean = Table({"a": ["1"], "b": ["3"]})
        prepared = prepare(dirty, clean)
        assert prepared.attributes == ("a", "b")
        assert _cells(prepared, "value_x") == {(0, "a"): "1", (0, "b"): "2"}
        assert _cells(prepared, "label") == {(0, "a"): 0, (0, "b"): 1}

    def test_none_becomes_empty_string(self):
        dirty = Table({"a": [None]})
        prepared = prepare(dirty, Table({"a": ["x"]}))
        assert prepared.df.column("value_x")[0] == ""

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
        df = prepare(dirty, clean).df
        assert df.n_rows == 5 * 4  # tuples x attributes
        assert df.column_names == ["id_", "attribute", "value_x", "value_y",
                                   "label", "empty", "concat", "length_norm"]
        # Cell k is tuple k // 4, attribute k % 4, paired with the clean
        # cell of the same position.
        for k, row in enumerate(df.iter_rows()):
            name = clean.column_names[k % 4]
            assert row["id_"] == k // 4
            assert row["attribute"] == name
            assert row["value_x"] == (dirty.column(dirty.column_names[k % 4])
                                      [k // 4] or "").lstrip()
            assert row["value_y"] == (clean.column(name)[k // 4] or "").lstrip()

    def test_labels_match_table1(self, paper_example):
        """The highlighted cells of Table 1 must be labelled 1."""
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        errors = {
            (row["id_"], row["attribute"])
            for row in prepared.df.iter_rows() if row["label"] == 1
        }
        assert errors == {
            (0, "Sal"), (0, "City"),        # '80,000', 'NaN'
            (1, "City"),                    # 'Romr'
            (3, "A"), (3, "ZIP"),           # '12', 'BER'
            (4, "Sal"), (4, "ZIP"),         # '850', '75000'
        }

    def test_empty_flag(self):
        dirty = Table({"a": ["", "x"]})
        clean = Table({"a": ["y", "x"]})
        prepared = prepare(dirty, clean)
        by_id = {r["id_"]: r["empty"] for r in prepared.df.iter_rows()}
        assert by_id == {0: 1, 1: 0}

    def test_concat_column(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        first = prepared.df.row(0)
        assert first["concat"] == f"{first['attribute']}__{first['value_x']}"

    def test_length_norm_is_ratio_per_attribute(self):
        dirty = Table({"a": ["xx", "xxxx"], "b": ["y", "y"]})
        prepared = prepare(dirty, dirty)
        ratios = {
            (r["attribute"], r["id_"]): r["length_norm"]
            for r in prepared.df.iter_rows()
        }
        assert ratios[("a", 0)] == 0.5
        assert ratios[("a", 1)] == 1.0
        assert ratios[("b", 0)] == 1.0

    def test_length_norm_zero_for_all_empty_attribute(self):
        dirty = Table({"a": ["", ""], "b": ["x", "y"]})
        prepared = prepare(dirty, dirty)
        a_rows = [r for r in prepared.df.iter_rows() if r["attribute"] == "a"]
        assert all(r["length_norm"] == 0.0 for r in a_rows)

    def test_truncation_at_max_length(self):
        dirty = Table({"a": ["x" * 200]})
        prepared = prepare(dirty, dirty, max_value_length=128)
        assert len(prepared.df.row(0)["value_x"]) == 128

    def test_truncation_can_mask_errors(self):
        """Values differing only beyond the cut become label 0 -- the
        paper's 'cut them off' trade-off."""
        dirty = Table({"a": ["x" * 128 + "A"]})
        clean = Table({"a": ["x" * 128 + "B"]})
        prepared = prepare(dirty, clean)
        assert prepared.df.row(0)["label"] == 0


class TestPrepare:
    def test_prepared_metadata(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        assert prepared.attributes == ("A", "Sal", "ZIP", "City")
        assert prepared.n_tuples == 5
        assert prepared.max_length == max(
            len(r["value_x"]) for r in prepared.df.iter_rows())

    def test_char_index_covers_dirty_values(self, paper_example):
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        for row in prepared.df.iter_rows():
            for char in row["value_x"]:
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
