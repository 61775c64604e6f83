"""Tests for cell encoding and tuple-id splitting."""

import numpy as np
import pytest

from repro.dataprep import encode_cells, prepare, split_by_tuple_ids
from repro.errors import DataError
from repro.table import Table


@pytest.fixture
def prepared(paper_example):
    dirty, clean = paper_example
    return prepare(dirty, clean)


class TestEncodeCells:
    def test_feature_shapes(self, prepared):
        encoded = encode_cells(prepared)
        n = prepared.labels.size
        assert encoded.features["values"].shape == (n, prepared.max_length)
        assert encoded.features["attributes"].shape == (n,)
        assert encoded.features["length_norm"].shape == (n, 1)
        assert encoded.labels.shape == (n,)

    def test_values_decode_back(self, prepared):
        encoded = encode_cells(prepared)
        for i, text in enumerate(prepared.cell_texts(slice(None))):
            decoded = prepared.char_index.decode(encoded.features["values"][i])
            assert decoded == text

    def test_attribute_indices_valid(self, prepared):
        encoded = encode_cells(prepared)
        m = len(prepared.attributes)
        for i in range(encoded.n_cells):
            assert encoded.attribute_names[i] == prepared.attributes[i % m]
            assert (encoded.features["attributes"][i]
                    == prepared.attribute_index.index_of(
                        prepared.attributes[i % m]))

    def test_labels_are_binary(self, prepared):
        encoded = encode_cells(prepared)
        assert set(np.unique(encoded.labels)) <= {0, 1}

    def test_tuple_ids_recorded(self, prepared):
        encoded = encode_cells(prepared)
        assert set(encoded.tuple_ids.tolist()) == {0, 1, 2, 3, 4}

    def test_subset(self, prepared):
        encoded = encode_cells(prepared)
        sub = encoded.subset(np.array([0, 2]))
        assert sub.n_cells == 2
        assert sub.attribute_names == (encoded.attribute_names[0],
                                       encoded.attribute_names[2])

    def test_lengths_match_values(self, prepared):
        encoded = encode_cells(prepared)
        assert encoded.lengths is not None
        assert encoded.lengths.shape == encoded.labels.shape
        assert encoded.lengths.dtype == np.int64
        for i, text in enumerate(prepared.cell_texts(slice(None))):
            assert encoded.lengths[i] == len(text)
        # The length is exactly the non-pad prefix of the padded row.
        values = encoded.features["values"]
        for i, ell in enumerate(encoded.lengths):
            assert (values[i, :ell] != 0).all()
            assert (values[i, ell:] == 0).all()

    def test_subset_slices_lengths(self, prepared):
        encoded = encode_cells(prepared)
        sub = encoded.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.lengths, encoded.lengths[[1, 3]])

    def test_subset_is_python_loop_free(self, prepared):
        """Micro-assertion: subset never iterates the indices in Python.

        The index array refuses Python-level iteration, so any per-row
        comprehension over it (the pre-vectorisation implementation)
        fails immediately; numpy gathers go through the buffer instead.
        """

        class NoPythonIter(np.ndarray):
            def __iter__(self):
                raise AssertionError(
                    "subset iterated its indices in a Python loop")

        encoded = encode_cells(prepared)
        indices = np.array([0, 2, 3]).view(NoPythonIter)
        sub = encoded.subset(indices)
        assert sub.n_cells == 3
        assert sub.attribute_names == tuple(encoded.attribute_names[i]
                                            for i in (0, 2, 3))

    def test_subset_attribute_names_stay_strings(self, prepared):
        encoded = encode_cells(prepared)
        sub = encoded.subset(np.array([1, 2]))
        assert all(isinstance(name, str) for name in sub.attribute_names)

    def test_encode_cells_builds_dedup_index(self, prepared):
        encoded = encode_cells(prepared)
        assert encoded.dedup is not None
        assert encoded.dedup.n_rows == encoded.n_cells
        # scattering representative rows reconstructs every feature array
        for arr in encoded.features.values():
            np.testing.assert_array_equal(
                encoded.dedup.scatter(arr[encoded.dedup.representatives]),
                arr)

    def test_subset_renumbers_dedup(self, prepared):
        encoded = encode_cells(prepared)
        sub = encoded.subset(np.array([0, 1, 3]))
        assert sub.dedup is not None
        assert sub.dedup.n_rows == 3
        assert sub.dedup.n_unique <= 3


class TestSplitByTupleIds:
    def test_sizes(self, prepared):
        split = split_by_tuple_ids(prepared, [0, 2])
        assert split.train_size == 2 * 4  # tuples x attributes
        assert split.test_size == 3 * 4

    def test_no_leakage(self, prepared):
        split = split_by_tuple_ids(prepared, [0, 2])
        assert set(split.train.tuple_ids.tolist()) == {0, 2}
        assert set(split.test.tuple_ids.tolist()) == {1, 3, 4}

    def test_paper_sizes_example(self):
        """Section 5.2: Beers = 20 tuples x 11 attrs train, rest test."""
        n_rows, n_attrs = 50, 11
        dirty = Table({f"c{j}": [f"v{i}" for i in range(n_rows)]
                       for j in range(n_attrs)})
        prepared = prepare(dirty, dirty)
        split = split_by_tuple_ids(prepared, list(range(20)))
        assert split.train_size == 20 * n_attrs
        assert split.test_size == (n_rows - 20) * n_attrs

    def test_empty_ids_rejected(self, prepared):
        with pytest.raises(DataError):
            split_by_tuple_ids(prepared, [])

    def test_duplicate_ids_rejected(self, prepared):
        with pytest.raises(DataError):
            split_by_tuple_ids(prepared, [0, 0])

    def test_unknown_ids_rejected(self, prepared):
        with pytest.raises(DataError, match="99"):
            split_by_tuple_ids(prepared, [0, 99])

    def test_all_tuples_in_train_rejected(self, prepared):
        with pytest.raises(DataError, match="empty"):
            split_by_tuple_ids(prepared, [0, 1, 2, 3, 4])

    def test_train_tuple_ids_preserved_in_order(self, prepared):
        split = split_by_tuple_ids(prepared, [3, 1])
        assert split.train_tuple_ids == (3, 1)

    def test_split_sides_carry_lengths(self, prepared):
        split = split_by_tuple_ids(prepared, [0, 2])
        assert split.train.lengths is not None
        assert split.test.lengths is not None
        assert split.train.lengths.shape[0] == split.train_size
        assert split.test.lengths.shape[0] == split.test_size
