"""Property-based tests for the preparation pipeline and samplers."""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataprep import encode_cells, prepare, split_by_tuple_ids
from repro.sampling import DiverSet, RandomSet
from repro.table import Table

cell_text = st.text(string.ascii_lowercase + string.digits + " .,-", max_size=10)


@st.composite
def table_pairs(draw):
    """A (dirty, clean) pair of random string tables with equal shape."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(2, 8))
    names = [f"c{i}" for i in range(n_cols)]
    clean = {name: draw(st.lists(cell_text, min_size=n_rows, max_size=n_rows))
             for name in names}
    dirty = {
        name: [
            draw(cell_text) if draw(st.booleans()) else clean[name][i]
            for i in range(n_rows)
        ]
        for name in names
    }
    return Table(dirty), Table(clean)


@given(table_pairs())
@settings(max_examples=40, deadline=None)
def test_prepare_cell_count(pair):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    assert prepared.labels.shape == (dirty.n_rows * dirty.n_cols,)
    assert prepared.keys.codes.shape == prepared.labels.shape


@given(table_pairs())
@settings(max_examples=40, deadline=None)
def test_labels_iff_values_differ(pair):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    m = clean.n_cols
    for k, (text, label) in enumerate(zip(prepared.cell_texts(slice(None)),
                                          prepared.labels.tolist())):
        assert text == dirty.column(dirty.column_names[k % m])[k // m].lstrip()
        clean_text = clean.column(clean.column_names[k % m])[k // m].lstrip()
        assert label == (0 if text == clean_text else 1)


@given(table_pairs())
@settings(max_examples=40, deadline=None)
def test_encoding_decodes_to_value(pair):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    encoded = encode_cells(prepared)
    for i, text in enumerate(prepared.cell_texts(slice(None))):
        assert prepared.char_index.decode(
            encoded.features["values"][i]) == text


@given(table_pairs())
@settings(max_examples=40, deadline=None)
def test_length_norm_in_unit_interval(pair):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    length_norm = encode_cells(prepared).features["length_norm"]
    assert ((0.0 <= length_norm) & (length_norm <= 1.0)).all()


@given(table_pairs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_diverset_invariants(pair, seed):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    n_obs = min(2, prepared.n_tuples - 1)
    if n_obs < 1:
        return
    ids = DiverSet().select(n_obs, prepared, np.random.default_rng(seed))
    assert len(ids) == n_obs
    assert len(set(ids)) == n_obs
    assert set(ids) <= set(prepared.tuple_ids())


@given(table_pairs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_partitions_cells(pair, seed):
    dirty, clean = pair
    prepared = prepare(dirty, clean)
    n_obs = min(2, prepared.n_tuples - 1)
    if n_obs < 1:
        return
    ids = RandomSet().select(n_obs, prepared, np.random.default_rng(seed))
    split = split_by_tuple_ids(prepared, ids)
    assert split.train_size + split.test_size == prepared.labels.size
    assert set(split.train.tuple_ids).isdisjoint(set(split.test.tuple_ids))
