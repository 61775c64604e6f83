"""Tests for the unique-cell index (DedupIndex / build_dedup_index)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataprep import encode_cells, prepare, split_by_tuple_ids
from repro.errors import ConfigurationError
from repro.inference import DedupIndex, build_dedup_index
from repro.inference.index import byte_order
from repro.table import Table


def _features(values, attributes):
    return {
        "values": np.asarray(values, dtype=np.int64),
        "attributes": np.asarray(attributes, dtype=np.int64),
    }


def _unique_reference(features):
    """Groups by ``np.unique`` over structured byte rows: representatives
    in byte order, each its group's first occurrence."""
    n = next(iter(features.values())).shape[0]
    keys = np.concatenate([np.ascontiguousarray(features[name])
                           .reshape(n, -1).view(np.uint8).reshape(n, -1)
                           for name in sorted(features)], axis=1)
    rows = np.ascontiguousarray(keys).view(
        [("bytes", np.uint8, keys.shape[1])]).reshape(n)
    _, first, inverse = np.unique(rows, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


@pytest.mark.equivalence
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-300, 300), min_size=3,
                                   max_size=3),
                          st.integers(0, 2),
                          st.sampled_from([0.0, -0.0, 0.5, 1e300])),
                min_size=1, max_size=30))
def test_groups_and_numbering_match_np_unique(rows):
    """Byte-order grouping equals ``np.unique`` over the byte rows: same
    groups, same numbering, same representatives (signed codes and
    ``-0.0`` put bytes above 127 and distinct zeros into the keys)."""
    features = {
        "values": np.array([r[0] for r in rows], dtype=np.int64),
        "attributes": np.array([r[1] for r in rows], dtype=np.int64),
        "length_norm": np.array([[r[2]] for r in rows]),
    }
    first, inverse = _unique_reference(features)
    idx = build_dedup_index(features)
    np.testing.assert_array_equal(idx.representatives, first)
    np.testing.assert_array_equal(idx.inverse, inverse)


def test_byte_order_keeps_shared_prefixes_adjacent():
    rows = np.array([[2, 1, 0], [1, 2, 3], [2, 0, 0], [1, 2, 0], [1, 3, 0]])
    order = byte_order(rows).tolist()
    position = {row: order.index(row) for row in range(5)}
    # Rows 1 and 3 share "1 2", rows 0 and 2 share "2".
    assert abs(position[1] - position[3]) == 1
    assert abs(position[0] - position[2]) == 1


class TestBuildDedupIndex:
    def test_groups_byte_identical_rows(self):
        feats = _features([[1, 2, 0], [3, 4, 5], [1, 2, 0], [1, 2, 0]],
                          [0, 1, 0, 0])
        idx = build_dedup_index(feats)
        assert idx.n_rows == 4
        assert idx.n_unique == 2
        np.testing.assert_array_equal(idx.inverse[[0, 2, 3]],
                                      [idx.inverse[0]] * 3)

    def test_representatives_are_first_occurrences(self):
        feats = _features([[9], [1], [9], [1], [5]], [0, 0, 0, 0, 0])
        idx = build_dedup_index(feats)
        # Every group's representative is the first row of that group.
        for group in range(idx.n_unique):
            members = np.where(idx.inverse == group)[0]
            assert idx.representatives[group] == members.min()

    def test_scatter_reconstructs_rows(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 3, size=(40, 5))
        attrs = rng.integers(0, 2, size=40)
        feats = _features(values, attrs)
        idx = build_dedup_index(feats)
        for name, arr in feats.items():
            np.testing.assert_array_equal(idx.scatter(arr[idx.representatives]),
                                          arr)

    def test_same_value_different_attribute_not_grouped(self):
        feats = _features([[1, 2], [1, 2]], [0, 1])
        assert build_dedup_index(feats).n_unique == 2

    def test_all_unique(self):
        feats = _features([[1], [2], [3]], [0, 0, 0])
        idx = build_dedup_index(feats)
        assert idx.n_unique == 3
        assert idx.unique_ratio == 1.0

    def test_mixed_dtypes_included(self):
        # float features participate in the key byte-for-byte
        feats = {
            "values": np.array([[1], [1], [1]], dtype=np.int64),
            "length_norm": np.array([[0.5], [0.5], [0.25]]),
        }
        assert build_dedup_index(feats).n_unique == 2

    def test_empty_features_rejected(self):
        with pytest.raises(ConfigurationError):
            build_dedup_index({})

    def test_misaligned_features_rejected(self):
        with pytest.raises(ConfigurationError, match="disagree"):
            build_dedup_index({"a": np.zeros(3), "b": np.zeros(4)})


class TestSubset:
    def test_subset_preserves_groups(self):
        feats = _features([[1], [2], [1], [3], [2], [1]], [0] * 6)
        idx = build_dedup_index(feats)
        indices = np.array([1, 2, 4, 5])
        sub = idx.subset(indices)
        assert sub.n_rows == 4
        # rows 2 and 5 (value 1) share a group; 1 and 4 (value 2) share one
        assert sub.inverse[1] == sub.inverse[3]
        assert sub.inverse[0] == sub.inverse[2]
        assert sub.inverse[0] != sub.inverse[1]

    def test_subset_representatives_are_first_in_subset(self):
        feats = _features([[1], [1], [2], [2]], [0] * 4)
        idx = build_dedup_index(feats)
        sub = idx.subset(np.array([3, 1, 0, 2]))
        for group in range(sub.n_unique):
            members = np.where(sub.inverse == group)[0]
            assert sub.representatives[group] == members.min()

    def test_subset_matches_rebuild(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2, size=(60, 4))
        feats = _features(values, np.zeros(60, dtype=np.int64))
        idx = build_dedup_index(feats)
        indices = rng.permutation(60)[:25]
        sub = idx.subset(indices)
        rebuilt = build_dedup_index(
            {k: v[indices] for k, v in feats.items()})
        # Group partitions agree even if group numbering differs.
        np.testing.assert_array_equal(
            sub.inverse == sub.inverse[:, None],
            rebuilt.inverse == rebuilt.inverse[:, None])


class TestLengthOrder:
    def test_sorts_representatives_by_length(self):
        feats = _features([[1, 1, 1], [2, 0, 0], [1, 1, 1]], [0] * 3)
        idx = build_dedup_index(feats)
        lengths = np.array([3, 1, 3])
        order = idx.length_order(lengths)
        rep_lengths = lengths[idx.representatives][order]
        assert (np.diff(rep_lengths) >= 0).all()

    def test_memoised_per_array(self):
        feats = _features([[1], [2]], [0, 0])
        idx = build_dedup_index(feats)
        lengths = np.array([2, 1])
        first = idx.length_order(lengths)
        assert idx.length_order(lengths) is first  # same array -> cached
        other = idx.length_order(np.array([1, 2]))
        assert other is not first


class TestEncodedCellsIntegration:
    @pytest.fixture
    def duplicated_pair(self):
        dirty = Table({
            "A": ["x", "y", "x", "y", "x", "z"],
            "B": ["1", "1", "1", "2", "2", "2"],
        })
        return dirty, dirty

    def test_encode_cells_carries_dedup(self, duplicated_pair):
        prepared = prepare(*duplicated_pair)
        encoded = encode_cells(prepared)
        assert isinstance(encoded.dedup, DedupIndex)
        assert encoded.dedup.n_rows == encoded.n_cells
        # A: 3 unique values (x, y, z); B: 2 unique values (1, 2)
        assert encoded.dedup.n_unique == 5

    def test_dedup_groups_match_attribute_value_pairs(self, duplicated_pair):
        prepared = prepare(*duplicated_pair)
        encoded = encode_cells(prepared)
        pairs = list(zip(encoded.attribute_names,
                         prepared.cell_texts(slice(None))))
        groups = {}
        for i, pair in enumerate(pairs):
            groups.setdefault(pair, []).append(i)
        for members in groups.values():
            assert len(set(encoded.dedup.inverse[members])) == 1

    def test_split_sides_carry_dedup(self, duplicated_pair):
        prepared = prepare(*duplicated_pair)
        split = split_by_tuple_ids(prepared, [0, 1])
        assert split.train.dedup is not None
        assert split.test.dedup is not None
        assert split.test.dedup.n_rows == split.test.n_cells
        # subset dedup equals an index rebuilt from the subset features
        rebuilt = build_dedup_index(split.test.features)
        np.testing.assert_array_equal(
            split.test.dedup.inverse == split.test.dedup.inverse[:, None],
            rebuilt.inverse == rebuilt.inverse[:, None])
