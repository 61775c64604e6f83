"""The vectorised DiverSet against the paper's greedy loop, one cell at a
time.

``greedy_reference`` is Algorithm 3 written out per tuple and per cell
on the wide dirty table (each cell's ``attribute__value`` concat and
empty flag from its left-stripped, clipped text):
count each remaining tuple's unseen values and unseen empty values,
keep the lexicographic maximum of the two, draw uniformly among the
tied tuples in first-occurrence order, and once every value is seen
draw uniformly among the tuples not chosen yet.  Given the same
generator, ``DiverSet.select`` must return the same tuples in the same
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataprep import prepare
from repro.datasets import load
from repro.sampling import DiverSet
from repro.table import Table

pytestmark = pytest.mark.equivalence


def greedy_reference(n_obs, dirty, attributes, rng):
    available = list(range(dirty.n_rows))
    rows_by_id: dict[int, list[tuple[str, int]]] = {}
    for tid in available:
        for name, attribute in zip(dirty.column_names, attributes):
            value = dirty.column(name)[tid]
            text = ("" if value is None else str(value).lstrip())[:128]
            rows_by_id.setdefault(tid, []).append(
                (f"{attribute}__{text}", int(text == "")))
    selected, seen = [], set()
    for _ in range(n_obs):
        best_ids, best_key = [], None
        for tid, cells in rows_by_id.items():
            if tid in selected:
                continue
            unseen = [empty for concat, empty in cells if concat not in seen]
            if not unseen:
                continue
            key = (len(unseen), sum(unseen))
            if best_key is None or key > best_key:
                best_key, best_ids = key, [tid]
            elif key == best_key:
                best_ids.append(tid)
        if not best_ids:
            remaining = [t for t in available if t not in selected]
            chosen = remaining[int(rng.integers(len(remaining)))]
        else:
            chosen = best_ids[int(rng.integers(len(best_ids)))]
        selected.append(chosen)
        seen.update(concat for concat, _ in rows_by_id[chosen])
    return selected


def assert_same_selection(dirty, prepared, n_obs, seed):
    want = greedy_reference(n_obs, dirty, prepared.attributes,
                            np.random.default_rng(seed))
    got = DiverSet().select(n_obs, prepared, np.random.default_rng(seed))
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]


@st.composite
def tiny_tables(draw):
    """Tables over a two- or three-letter alphabet with empty cells:
    heavy ties, and tables whose values run out before ``n_obs`` tuples
    are chosen (the uniform fallback)."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 12))
    alphabet = draw(st.sampled_from([["", "a"], ["", "a", "b"],
                                     ["a", "b", "c"]]))
    columns = {f"c{j}": draw(st.lists(st.sampled_from(alphabet),
                                      min_size=n_rows, max_size=n_rows))
               for j in range(n_cols)}
    return Table(columns)


@given(tiny_tables(), st.data(), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_matches_greedy_reference(table, data, seed):
    prepared = prepare(table, table)
    n_obs = data.draw(st.integers(1, table.n_rows))
    assert_same_selection(table, prepared, n_obs, seed)


@pytest.mark.parametrize("dataset", ["hospital", "flights", "beers",
                                     "rayyan", "movies", "tax"])
def test_paper_datasets_match_greedy_reference(dataset):
    pair = load(dataset, n_rows=300, seed=2)
    prepared = prepare(pair.dirty, pair.clean)
    for seed in range(5):
        assert_same_selection(pair.dirty, prepared, 20, seed)
