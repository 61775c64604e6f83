"""Property-based tests for the table substrate (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table import Table

cell = st.one_of(st.none(), st.text(string.printable, max_size=8),
                 st.integers(-100, 100))
names = st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=5),
                 min_size=1, max_size=4, unique=True)


@st.composite
def tables(draw, min_rows=0, max_rows=12):
    cols = draw(names)
    n = draw(st.integers(min_rows, max_rows))
    data = {c: draw(st.lists(cell, min_size=n, max_size=n)) for c in cols}
    return Table(data)


@given(tables())
def test_round_trip_rows(table):
    assert Table.from_rows(table.to_rows(), table.column_names) == table


@given(tables())
def test_take_identity(table):
    assert table.take(range(table.n_rows)) == table


@given(tables(min_rows=1))
def test_sort_is_permutation(table):
    key = table.column_names[0]
    sorted_table = table.sort_by([key])
    assert sorted(map(repr, sorted_table.column(key).values)) == \
        sorted(map(repr, table.column(key).values))


@given(tables())
def test_distinct_idempotent(table):
    once = table.distinct()
    assert once.distinct() == once


@given(tables(min_rows=1))
def test_filter_true_keeps_all(table):
    assert table.filter(lambda r: True) == table


@given(tables(min_rows=1))
def test_filter_partitions(table):
    key = table.column_names[0]
    pred = lambda r: r[key] is None
    kept = table.filter(pred)
    dropped = table.filter(lambda r: not pred(r))
    assert kept.n_rows + dropped.n_rows == table.n_rows
