"""Property tests: hash join against a brute-force oracle.

The paper's pipeline hinges on the long-format merge on
``(id_, attribute)`` (Figure 3) producing ``value_x`` / ``value_y``.
These properties check :func:`repro.table.join.merge_tables` against a
transparent nested-loop oracle over arbitrary generated tables:
duplicate keys, ``None`` keys, unmatched rows on either side.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table import Table

key_cell = st.one_of(st.none(), st.integers(0, 4),
                     st.sampled_from(["a", "b", "c"]))
value_cell = st.one_of(st.none(), st.integers(-50, 50),
                       st.text(string.ascii_lowercase, max_size=4))


@st.composite
def keyed_tables(draw, max_rows=8):
    """A pair of tables sharing key columns (id_, attribute) and an
    overlapping non-key column ``value`` -- the paper's merge shape."""
    def one(n):
        return Table({
            "id_": draw(st.lists(key_cell, min_size=n, max_size=n)),
            "attribute": draw(st.lists(key_cell, min_size=n, max_size=n)),
            "value": draw(st.lists(value_cell, min_size=n, max_size=n)),
        })
    left = one(draw(st.integers(0, max_rows)))
    right = one(draw(st.integers(0, max_rows)))
    return left, right


def oracle_merge(left, right, on, how):
    """Nested-loop join emitting rows in the documented order: left row
    order, right matches in right-table order, then (outer) unmatched
    right rows in right-table order."""
    lrows = left.to_rows()
    rrows = right.to_rows()
    non_key_l = [c for c in left.column_names if c not in on]
    non_key_r = [c for c in right.column_names if c not in on]
    overlap = set(non_key_l) & set(non_key_r)

    def out_row(lrow, rrow, key):
        row = dict(zip(on, key))
        for c in non_key_l:
            row[c + "_x" if c in overlap else c] = \
                lrow[c] if lrow is not None else None
        for c in non_key_r:
            row[c + "_y" if c in overlap else c] = \
                rrow[c] if rrow is not None else None
        return row

    out, matched = [], set()
    for lrow in lrows:
        key = tuple(lrow[c] for c in on)
        hits = [j for j, rrow in enumerate(rrows)
                if tuple(rrow[c] for c in on) == key]
        if hits:
            matched.update(hits)
            out.extend(out_row(lrow, rrows[j], key) for j in hits)
        elif how in ("left", "outer"):
            out.append(out_row(lrow, None, key))
    if how == "outer":
        out.extend(out_row(None, rrow, tuple(rrow[c] for c in on))
                   for j, rrow in enumerate(rrows) if j not in matched)
    return out


@given(keyed_tables(), st.sampled_from(["inner", "left", "outer"]))
@settings(max_examples=100)
def test_merge_matches_oracle(pair, how):
    left, right = pair
    merged = left.merge(right, on=["id_", "attribute"], how=how)
    assert merged.to_rows() == oracle_merge(left, right,
                                            ["id_", "attribute"], how)


@given(keyed_tables())
@settings(max_examples=50)
def test_single_key_merge_matches_oracle(pair):
    left, right = pair
    merged = left.merge(right, on="id_", how="inner")
    expected = oracle_merge(
        left.rename({"attribute": "attr"}),
        right.rename({"attribute": "attr"}), ["id_"], "inner")
    renamed = [{("attribute_x" if k == "attr_x" else
                 "attribute_y" if k == "attr_y" else k): v
                for k, v in row.items()} for row in expected]
    assert merged.to_rows() == renamed


@given(keyed_tables())
@settings(max_examples=50)
def test_outer_merge_loses_no_row(pair):
    """Every left and right row appears in at least one outer-join row."""
    left, right = pair
    merged = left.merge(right, on=["id_", "attribute"], how="outer")
    inner = left.merge(right, on=["id_", "attribute"], how="inner")
    left_keys = {tuple(r[c] for c in ("id_", "attribute"))
                 for r in left.to_rows()}
    right_keys = {tuple(r[c] for c in ("id_", "attribute"))
                  for r in right.to_rows()}
    merged_keys = {tuple(r[c] for c in ("id_", "attribute"))
                   for r in merged.to_rows()}
    assert merged_keys == left_keys | right_keys
    assert merged.n_rows >= max(left.n_rows, right.n_rows, inner.n_rows)
