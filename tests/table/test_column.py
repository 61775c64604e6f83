"""Tests for repro.table.column."""

import pytest

from repro.errors import SchemaError
from repro.table import Column


class TestConstruction:
    def test_values_are_immutable_tuple(self):
        col = Column("a", [1, 2, 3])
        assert col.values == (1, 2, 3)
        assert isinstance(col.values, tuple)

    def test_name_property(self):
        assert Column("salary", []).name == "salary"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", [1])

    def test_non_string_name_rejected(self):
        with pytest.raises(SchemaError):
            Column(42, [1])

    def test_accepts_generator(self):
        col = Column("a", (i * 2 for i in range(3)))
        assert col.values == (0, 2, 4)


class TestProtocol:
    def test_len(self):
        assert len(Column("a", [1, 2])) == 2

    def test_iteration(self):
        assert list(Column("a", "xyz")) == ["x", "y", "z"]

    def test_indexing(self):
        col = Column("a", [10, 20, 30])
        assert col[0] == 10
        assert col[-1] == 30

    def test_slicing_returns_column(self):
        col = Column("a", [10, 20, 30])[1:]
        assert isinstance(col, Column)
        assert col.values == (20, 30)

    def test_equality_includes_name(self):
        assert Column("a", [1]) == Column("a", [1])
        assert Column("a", [1]) != Column("b", [1])

    def test_hashable(self):
        assert len({Column("a", [1]), Column("a", [1])}) == 1

    def test_repr_previews_values(self):
        text = repr(Column("a", list(range(10))))
        assert "..." in text
        assert "a" in text


class TestTransformations:
    def test_rename(self):
        renamed = Column("a", [1]).rename("b")
        assert renamed.name == "b"
        assert renamed.values == (1,)
