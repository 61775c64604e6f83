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

    def test_empty_with_columns(self):
        table = Table.empty(["a", "b"])
        assert table.shape == (0, 2)
        assert table.column_names == ["a", "b"]

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

    def test_to_dict_returns_fresh_lists(self, people):
        data = people.to_dict()
        data["name"].append("extra")
        assert people.n_rows == 4

    def test_equality(self, people):
        assert people == Table(people.to_dict())

    def test_inequality_by_order(self):
        a = Table({"x": [1], "y": [2]})
        b = Table({"y": [2], "x": [1]})
        assert a != b

    def test_preview_contains_data(self, people):
        text = people.preview(2)
        assert "Ada" in text
        assert "more rows" in text


class TestColumnTransforms:
    def test_select_orders_columns(self, people):
        out = people.select(["age", "name"])
        assert out.column_names == ["age", "name"]

    def test_drop(self, people):
        assert people.drop(["age"]).column_names == ["name", "city"]

    def test_drop_unknown_raises(self, people):
        with pytest.raises(SchemaError):
            people.drop(["ghost"])

    def test_rename(self, people):
        out = people.rename({"name": "person"})
        assert "person" in out
        assert out.column("person").name == "person"

    def test_rename_unknown_raises(self, people):
        with pytest.raises(SchemaError):
            people.rename({"ghost": "x"})

    def test_with_column_adds(self, people):
        out = people.with_column("id", range(4))
        assert out.column("id").values == (0, 1, 2, 3)

    def test_with_column_replaces(self, people):
        out = people.with_column("age", ["1", "2", "3", "4"])
        assert out.column("age").values == ("1", "2", "3", "4")

    def test_with_computed(self, people):
        out = people.with_computed("label", lambda r: r["age"] is None)
        assert out.column("label").values == (False, False, False, True)

    def test_map_column(self, people):
        out = people.map_column("name", str.upper)
        assert out.column("name")[0] == "ADA"

    def test_original_unchanged_by_transforms(self, people):
        people.with_column("x", [1, 2, 3, 4])
        assert "x" not in people


class TestRowTransforms:
    def test_take(self, people):
        out = people.take([2, 0])
        assert out.column("name").values == ("Alan", "Ada")

    def test_head(self, people):
        assert people.head(2).n_rows == 2

    def test_head_beyond_length(self, people):
        assert people.head(99).n_rows == 4

    def test_filter(self, people):
        out = people.filter(lambda r: r["city"].startswith("R"))
        assert out.column("name").values == ("Grace",)

    def test_filter_mask(self, people):
        out = people.filter_mask([True, False, False, True])
        assert out.n_rows == 2

    def test_filter_mask_length_mismatch(self, people):
        with pytest.raises(SchemaError):
            people.filter_mask([True])

    def test_filter_in(self, people):
        out = people.filter_in("city", {"Rome", "Paris"})
        assert out.n_rows == 2

    def test_filter_not_in(self, people):
        out = people.filter_not_in("city", ["Rome"])
        assert out.n_rows == 3

    def test_sort_by(self, people):
        out = people.sort_by(["city"])
        assert out.column("city").values == ("Paris", "Rome", "Vienna", "Zurich")

    def test_sort_by_reverse(self, people):
        out = people.sort_by(["city"], reverse=True)
        assert out.column("city")[0] == "Zurich"

    def test_sort_missing_first(self, people):
        out = people.sort_by(["age"])
        assert out.column("age")[0] is None

    def test_sort_mixed_types(self):
        table = Table({"x": [2, "b", None, 1, "a"]})
        assert table.sort_by(["x"]).column("x").values == (None, 1, 2, "a", "b")

    def test_distinct_full_rows(self):
        table = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert table.distinct().n_rows == 2

    def test_distinct_subset_keeps_first(self):
        table = Table({"a": [1, 1, 2], "b": ["x", "y", "z"]})
        out = table.distinct(["a"])
        assert out.column("b").values == ("x", "z")

    def test_concat(self, people):
        combined = people.concat(people)
        assert combined.n_rows == 8

    def test_concat_schema_mismatch(self, people):
        with pytest.raises(SchemaError):
            people.concat(people.drop(["age"]))


def _long(table):
    """``table`` in long form: one (id_, attribute, value) row per cell."""
    return Table({
        "id_": [i for i in range(table.n_rows) for _ in table.column_names],
        "attribute": table.column_names * table.n_rows,
        "value": [table.column(name)[i] for i in range(table.n_rows)
                  for name in table.column_names],
    })


class TestPivot:
    def test_inverse_of_melt(self, people):
        back = _long(people).pivot("id_", "attribute", "value")
        assert back.select(people.column_names) == people

    def test_column_order_respected(self, people):
        long = _long(people)
        back = long.pivot("id_", "attribute", "value",
                          column_order=["age", "name", "city"])
        assert back.column_names == ["id_", "age", "name", "city"]

    def test_missing_combination_is_none(self):
        long = Table({
            "k": [0, 0, 1],
            "attr": ["a", "b", "a"],
            "v": ["x", "y", "z"],
        })
        wide = long.pivot("k", "attr", "v")
        assert wide.column("b").values == ("y", None)

    def test_duplicate_combination_keeps_last(self):
        long = Table({
            "k": [0, 0],
            "attr": ["a", "a"],
            "v": ["first", "second"],
        })
        assert long.pivot("k", "attr", "v").column("a").values == ("second",)

    def test_non_string_column_values_rejected(self):
        long = Table({"k": [0], "attr": [42], "v": ["x"]})
        with pytest.raises(SchemaError):
            long.pivot("k", "attr", "v")
