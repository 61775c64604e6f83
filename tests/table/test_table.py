"""Tests for repro.table.table."""

import pytest

from repro.errors import SchemaError
from repro.table import Column, Table


class TestConstruction:
    def test_shape(self, people):
        assert people.shape == (4, 3)
        assert people.n_rows == 4
        assert people.n_cols == 3

    def test_empty_table(self):
        table = Table()
        assert table.shape == (0, 0)

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table({"a": [1, 2], "b": [1]})

    def test_from_rows(self):
        table = Table.from_rows([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert table.column("a").values == (1, 3)

    def test_from_rows_missing_keys_become_none(self):
        table = Table.from_rows([{"a": 1}, {"b": 2}])
        assert table.column("a").values == (1, None)
        assert table.column("b").values == (None, 2)

    def test_from_rows_explicit_column_order(self):
        table = Table.from_rows([{"a": 1, "b": 2}], column_names=["b", "a"])
        assert table.column_names == ["b", "a"]

    def test_accepts_column_objects(self):
        table = Table({"x": Column("x", [1, 2])})
        assert table.column("x").values == (1, 2)

    def test_column_object_renamed_to_key(self):
        table = Table({"y": Column("x", [1])})
        assert table.column("y").name == "y"


class TestAccessors:
    def test_column_lookup(self, people):
        assert people["name"][0] == "Ada"

    def test_unknown_column_raises_with_available(self, people):
        with pytest.raises(SchemaError, match="name"):
            people.column("nope")

    def test_contains(self, people):
        assert "city" in people
        assert "zzz" not in people

    def test_row(self, people):
        assert people.row(1) == {"name": "Grace", "city": "Rome", "age": "45"}

    def test_row_negative_index(self, people):
        assert people.row(-1)["name"] == "Edsger"

    def test_row_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.row(4)

    def test_iter_rows(self, people):
        rows = list(people.iter_rows())
        assert len(rows) == 4
        assert rows[0]["city"] == "Zurich"

    def test_equality(self, people):
        assert people == Table({name: list(people.column(name).values)
                                for name in people.column_names})

    def test_inequality_by_order(self):
        a = Table({"x": [1], "y": [2]})
        b = Table({"y": [2], "x": [1]})
        assert a != b

    def test_preview_contains_data(self, people):
        text = people.preview(2)
        assert "Ada" in text
        assert "more rows" in text


class TestColumnTransforms:
    def test_rename(self, people):
        out = people.rename({"name": "person"})
        assert "person" in out
        assert out.column("person").name == "person"

    def test_rename_unknown_raises(self, people):
        with pytest.raises(SchemaError):
            people.rename({"ghost": "x"})

    def test_original_unchanged_by_transforms(self, people):
        people.rename({"name": "person"})
        assert "person" not in people
        assert "name" in people
