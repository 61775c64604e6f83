"""The column-wise ``prepare`` and dedup-first ``encode_cells`` against a
row-wise reference.

The reference below is the paper's Figure 3 pipeline written row by row:
strip and align the two tables, put each cell on its own row tuple by
tuple, pair every dirty cell with the clean cell of the same
``(id_, attribute)`` through a hash lookup, derive the helper columns per
row, number characters one at a time, and encode every cell on its own
before grouping duplicate feature rows with ``build_dedup_index``.  The
production code must agree with it exactly: the same labels and dirty
texts cell by cell, the same character numbering, ``max_length`` and
per-attribute ``longest``, and byte-equal ``EncodedCells``, unique-cell
index included, for the whole table and for a subset of its cells.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataprep import encode_cells, prepare
from repro.dataprep.dictionaries import CharDictionary
from repro.datasets import load
from repro.errors import EncodingError
from repro.inference.index import build_dedup_index
from repro.table import Table

pytestmark = pytest.mark.equivalence

MAX_VALUE_LENGTH = 128


def reference_prepare(dirty, clean, max_value_length=MAX_VALUE_LENGTH):
    """Row-wise Figure 3, steps 2-4: returns (long rows, characters,
    max_length, longest)."""
    attributes = clean.column_names

    def long_rows(table):
        rows = []
        for i in range(table.n_rows):
            for position, name in enumerate(table.column_names):
                value = table.column(name)[i]
                value = "" if value is None else str(value).lstrip()
                rows.append({"id_": i, "attribute": attributes[position],
                             "value": value})
        return rows

    clean_by_key = {(r["id_"], r["attribute"]): r["value"]
                    for r in long_rows(clean)}
    df = []
    for r in long_rows(dirty):
        df.append({"id_": r["id_"], "attribute": r["attribute"],
                   "value_x": r["value"],
                   "value_y": clean_by_key[(r["id_"], r["attribute"])]})
    for row in df:
        row["value_x"] = row["value_x"][:max_value_length]
        row["value_y"] = row["value_y"][:max_value_length]
        row["label"] = 0 if row["value_x"] == row["value_y"] else 1
    longest = dict.fromkeys(attributes, 0)
    for row in df:
        longest[row["attribute"]] = max(longest[row["attribute"]],
                                        len(row["value_x"]))
    for row in df:
        top = longest[row["attribute"]]
        row["length_norm"] = len(row["value_x"]) / top if top else 0.0
    characters: dict[str, int] = {}
    for row in df:
        for char in row["value_x"]:
            if char not in characters:
                characters[char] = len(characters) + 1
    max_length = max((len(row["value_x"]) for row in df), default=1)
    return df, list(characters), max(max_length, 1), longest


def reference_encode(prepared, rows, unknown="error"):
    """One cell at a time, then ``build_dedup_index`` over the rows."""
    n = len(rows)
    values = np.zeros((n, prepared.max_length), dtype=np.int64)
    attributes = np.zeros(n, dtype=np.int64)
    length_norm = np.zeros((n, 1), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)
    tuple_ids = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(rows):
        values[i] = prepared.char_index.encode(
            row["value_x"], prepared.max_length, unknown=unknown)
        attributes[i] = prepared.attribute_index.index_of(row["attribute"])
        length_norm[i, 0] = float(row["length_norm"])
        labels[i] = int(row["label"])
        tuple_ids[i] = int(row["id_"])
    features = {"values": values, "attributes": attributes,
                "length_norm": length_norm}
    return {
        "features": features, "labels": labels, "tuple_ids": tuple_ids,
        "attribute_names": tuple(row["attribute"] for row in rows),
        "lengths": np.count_nonzero(values, axis=1).astype(np.int64),
        "dedup": build_dedup_index(features),
    }


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def assert_same_encoding(got, want):
    assert sorted(got.features) == sorted(want["features"])
    for name, array in want["features"].items():
        assert_same_array(got.features[name], array)
    assert_same_array(got.labels, want["labels"])
    assert_same_array(got.tuple_ids, want["tuple_ids"])
    assert_same_array(got.lengths, want["lengths"])
    assert got.attribute_names == want["attribute_names"]
    assert_same_array(got.dedup.representatives,
                      want["dedup"].representatives)
    assert_same_array(got.dedup.inverse, want["dedup"].inverse)


def assert_matches_reference(dirty, clean):
    """Checks ``prepare`` and ``encode_cells``; returns the prepared data
    and the reference's long rows."""
    prepared = prepare(dirty, clean)
    rows, characters, max_length, longest = reference_prepare(dirty, clean)
    assert_same_array(prepared.labels,
                      np.array([row["label"] for row in rows], dtype=np.int64))
    texts = prepared.cell_texts(slice(None))
    assert texts == [row["value_x"] for row in rows]
    assert all(type(text) is str for text in texts)
    assert [prepared.char_index.char_of(i)
            for i in range(1, prepared.char_index.n_chars + 1)] == characters
    assert prepared.max_length == max_length
    assert prepared.longest == longest
    assert prepared.attributes == tuple(clean.column_names)
    assert prepared.n_tuples == dirty.n_rows
    assert_same_encoding(encode_cells(prepared),
                         reference_encode(prepared, rows))
    return prepared, rows


# Leading/trailing whitespace, values over 128 characters, non-ASCII
# text, empties and a small pool so that duplicates are common.
_POOL = ["", " ", "  lead", "trail  ", " both ", "x" * 130, "y" * 128 + "é",
         "Zürich", "東京", "a", "b", "12", "12.0", "ab"]
_cells = st.one_of(st.none(), st.sampled_from(_POOL),
                   st.text(max_size=6), st.text(min_size=125, max_size=140))


@st.composite
def table_pairs(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 8))
    dirty = {}
    for j in range(n_cols):
        if draw(st.booleans()) and j == n_cols - 1:
            column = [draw(st.sampled_from([None, "", "  "]))
                      for _ in range(n_rows)]   # an all-empty column
        else:
            column = draw(st.lists(_cells, min_size=n_rows, max_size=n_rows))
        dirty[f"d{j}"] = column
    clean = {f"c{j}": [v if draw(st.booleans()) else draw(_cells)
                       for v in column]
             for j, column in enumerate(dirty.values())}
    return Table(dirty), Table(clean)


@given(table_pairs())
@settings(max_examples=120, deadline=None)
def test_prepare_and_encode_match_row_wise_reference(pair):
    dirty, clean = pair
    prepared, rows = assert_matches_reference(dirty, clean)
    # A subset of the cells, as the train/test split encodes them.
    keep = [i for i in range(len(rows)) if i % 3 != 1]
    assert_same_encoding(
        encode_cells(prepared).subset(np.array(keep, dtype=np.int64)),
        reference_encode(prepared, [rows[i] for i in keep]))


@given(table_pairs(), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_encode_with_unknown_characters_matches_reference(pair, n_known):
    """A dictionary that lacks characters: ``skip`` drops them (distinct
    values may then encode alike and share a group), ``error`` raises
    the reference's error."""
    prepared = prepare(*pair)
    rows = reference_prepare(*pair)[0]
    known = [prepared.char_index.char_of(i)
             for i in range(1, prepared.char_index.n_chars + 1)][:n_known]
    narrow = replace(prepared, char_index=CharDictionary(known))
    assert_same_encoding(encode_cells(narrow, unknown="skip"),
                         reference_encode(narrow, rows, "skip"))
    try:
        want = reference_encode(narrow, rows)
    except EncodingError as exc:
        with pytest.raises(EncodingError) as got:
            encode_cells(narrow)
        assert str(got.value) == str(exc)
    else:
        assert_same_encoding(encode_cells(narrow), want)


@given(st.lists(st.text(max_size=8), max_size=12),
       st.text(max_size=10), st.integers(0, 9),
       st.sampled_from(["error", "skip"]))
@settings(max_examples=150, deadline=None)
@example(["a\ud800", "\udc80b\U0001F600"], "ab\ud800\U0001F600", 4, "skip")
@example(["a\ud800", "\udc80b"], "ab\ud800", 4, "error")
def test_encode_batch_matches_encode(texts, corpus, length, unknown):
    chars = CharDictionary([corpus])
    try:
        want = [chars.encode(text, length, unknown) for text in texts]
    except EncodingError as exc:
        with pytest.raises(EncodingError) as got:
            chars.encode_batch(texts, length, unknown)
        assert str(got.value) == str(exc)
        return
    got = chars.encode_batch(texts, length, unknown)
    assert got.dtype == np.int64 and got.shape == (len(texts), length)
    for row, expected in zip(got, want):
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dataset", ["hospital", "flights", "beers",
                                     "rayyan", "movies", "tax"])
def test_paper_datasets_match_reference(dataset):
    pair = load(dataset, n_rows=60, seed=1)
    assert_matches_reference(pair.dirty, pair.clean)
    assert_matches_reference(pair.dirty, pair.dirty)
