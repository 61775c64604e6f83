"""Hypothesis round-trip properties for the ingestion layer.

The contract: a table serialised to CSV bytes under *any* supported
encoding and dialect -- BOMs, embedded quotes and newlines, ragged
tails, non-ASCII cells -- comes back through
:func:`repro.io.read_delimited_bytes` cell-identical, and the column
analyzers give the same verdict before and after the trip (they are
pure functions of the cell values).
"""

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io import (
    analyze_column,
    detect_encoding,
    read_delimited_bytes,
    sniff_dialect,
)

ENCODINGS = ("utf-8", "utf-8-sig", "utf-16-le", "utf-16-be",
             "utf-16", "latin-1")
DELIMITERS = (",", ";", "\t", "|")

# Latin-1 covers exactly U+0000..U+00FF; the shared alphabet keeps every
# encoding in ENCODINGS applicable.  Control characters are excluded
# except the ones the quoting machinery must survive (newline inside a
# quoted field); NUL is exercised separately by the corpus suite.
_CELL_ALPHABET = st.characters(
    min_codepoint=0x20, max_codepoint=0xFF,
    exclude_characters="\x7f")
_cells = st.text(alphabet=_CELL_ALPHABET, max_size=12)
_quoted_cells = st.text(
    alphabet=st.one_of(_CELL_ALPHABET, st.sampled_from('"\n')),
    max_size=12)

_names = st.text(
    alphabet=st.characters(min_codepoint=0x41, max_codepoint=0x7A),
    min_size=1, max_size=8)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    names = draw(st.lists(_names, min_size=n_cols, max_size=n_cols,
                          unique=True))
    rows = [draw(st.lists(_quoted_cells, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]
    return names, rows


def _to_csv_bytes(names, rows, delimiter, encoding):
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter,
                        quoting=csv.QUOTE_ALL, lineterminator="\r\n")
    writer.writerow(names)
    writer.writerows(rows)
    return buffer.getvalue().encode(encoding)


@given(table=_tables(),
       delimiter=st.sampled_from(DELIMITERS),
       encoding=st.sampled_from(ENCODINGS))
@settings(max_examples=120, deadline=None)
def test_roundtrip_cell_identical(table, delimiter, encoding):
    """encode -> ingest returns byte-identical cells under any dialect."""
    names, rows = table
    data = _to_csv_bytes(names, rows, delimiter, encoding)
    ingested = read_delimited_bytes(data, name="t")
    assert ingested.table.column_names == list(names)
    assert ingested.table.n_rows == len(rows)
    for j, name in enumerate(names):
        got = ["" if v is None else v
               for v in ingested.table.column(name).values]
        assert got == [row[j] for row in rows], (
            f"column {name!r} mutated through the {encoding}/{delimiter!r} "
            f"round trip")


@given(table=_tables(), encoding=st.sampled_from(ENCODINGS))
@settings(max_examples=60, deadline=None)
def test_roundtrip_analyzer_stable(table, encoding):
    """Analyzer verdicts are identical before and after the round trip."""
    names, rows = table
    data = _to_csv_bytes(rows=rows, names=names, delimiter=",",
                         encoding=encoding)
    ingested = read_delimited_bytes(data, name="t")
    for j, name in enumerate(names):
        before = analyze_column(name, [row[j] for row in rows])
        after = analyze_column(name, ingested.table.column(name).values)
        assert (before.kind, before.pattern, before.n_distinct) == \
            (after.kind, after.pattern, after.n_distinct)


@given(table=_tables(),
       delimiter=st.sampled_from(DELIMITERS),
       encoding=st.sampled_from(ENCODINGS),
       n_extra=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
# Only the quoted ";;" cell splits under ";", as wide and as consistent
# as the tab split; the header is what tells them apart.
@example(table=(["A", "B", "AA"], [["", ";;", ""]]), delimiter="\t",
         encoding="utf-8", n_extra=1)
def test_ragged_tail_recovered(table, delimiter, encoding, n_extra):
    """Rows with missing trailing fields pad to None and are counted."""
    names, rows = table
    short_row = rows[-1][: max(1, len(names) - n_extra)]
    truncated = rows[:-1] + [short_row]
    if len(short_row) == len(names):
        return  # nothing truncated at 1 column
    data = _to_csv_bytes(names, truncated, delimiter, encoding)
    ingested = read_delimited_bytes(data, name="t")
    assert ingested.table.n_rows == len(rows)
    assert ingested.n_recovered_rows >= 1
    for j, name in enumerate(names):
        cell = ingested.table.column(name).values[-1]
        if j < len(short_row):
            assert cell == short_row[j]
        else:
            assert cell is None


def test_sniffer_prefers_the_delimiter_that_splits_the_header():
    """Tab and ";" both give a (0.5, 3) vote here, but ";" gets its three
    fields only from the quoted ";;" cell of the ragged row; the header
    splits into three under tab alone."""
    text = '"A"\t"B"\t"AA"\r\n""\t";;"\r\n'
    assert sniff_dialect(text).delimiter == "\t"


@given(text=st.text(alphabet=_CELL_ALPHABET, min_size=1, max_size=200),
       encoding=st.sampled_from(ENCODINGS))
@settings(max_examples=120, deadline=None)
def test_detect_encoding_decodes_what_it_detects(text, encoding):
    """Whatever the chain answers, decoding under it cannot raise, and
    BOM'd payloads always round-trip text-identical."""
    data = text.encode(encoding)
    verdict = detect_encoding(data)
    decoded = verdict.decode(data)
    if verdict.had_bom:
        assert decoded == text
    bom_encodings = ("utf-8-sig", "utf-16")
    if encoding in bom_encodings:
        assert verdict.had_bom


@given(table=_tables())
@settings(max_examples=40, deadline=None)
def test_bom_never_leaks_into_header(table):
    """The first column name never starts with a BOM codepoint."""
    names, rows = table
    for encoding in ("utf-8-sig", "utf-16"):
        data = _to_csv_bytes(names, rows, ",", encoding)
        ingested = read_delimited_bytes(data, name="t")
        first = ingested.table.column_names[0]
        assert not first.startswith("﻿")
        assert first == names[0]


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_unicode_cells_survive(encoding):
    """Accented Latin-1 range text survives every supported encoding."""
    names = ["city", "note"]
    rows = [["Zürich", "café"], ["Málaga", "naïve"]]
    data = _to_csv_bytes(names, rows, ",", encoding)
    ingested = read_delimited_bytes(data, name="t")
    assert list(ingested.table.column("city").values) == ["Zürich", "Málaga"]
    assert list(ingested.table.column("note").values) == ["café", "naïve"]
