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
