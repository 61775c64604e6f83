"""Train/test splitting by tuple id.

The paper labels 20 whole tuples: every cell of a selected tuple goes to
the trainset (20 tuples x n_attributes cells) and all remaining cells form
the testset (Section 5.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dataprep.encoding import EncodedCells, encode_cells
from repro.dataprep.pipeline import PreparedData
from repro.errors import DataError


@dataclass(frozen=True)
class TrainTestSplit:
    """Encoded train and test cell sets for one experiment run.

    ``cells`` is the whole prepared table's encoding, both sides in the
    prepared cell order, for callers that score every cell.  ``test`` is
    gathered from it on first use: callers that train and then score
    every cell never read it.
    """

    train: EncodedCells
    train_tuple_ids: tuple[int, ...]
    cells: EncodedCells

    @cached_property
    def test(self) -> EncodedCells:
        """The cells of the tuples not in ``train_tuple_ids``."""
        in_train = np.isin(self.cells.tuple_ids, self.train_tuple_ids)
        return self.cells.subset(np.flatnonzero(~in_train))

    @property
    def train_size(self) -> int:
        """Number of training cells (tuples x attributes)."""
        return self.train.n_cells

    @property
    def test_size(self) -> int:
        """Number of test cells."""
        return self.cells.n_cells - self.train.n_cells


def split_by_tuple_ids(prepared: PreparedData,
                       train_ids: Sequence[int]) -> TrainTestSplit:
    """Split the prepared cells into train (selected tuples) and test (rest).

    Parameters
    ----------
    prepared:
        Pipeline output.
    train_ids:
        Tuple ids chosen by a trainset-selection algorithm; must be
        distinct and present in the data.
    """
    ids = list(train_ids)
    if not ids:
        raise DataError("train_ids must not be empty")
    if len(set(ids)) != len(ids):
        raise DataError("train_ids contains duplicates")
    known = set(prepared.tuple_ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise DataError(f"train_ids not present in data: {unknown}")

    encoded = encode_cells(prepared)
    train = encoded.subset(np.flatnonzero(np.isin(encoded.tuple_ids, ids)))
    if train.n_cells == encoded.n_cells:
        raise DataError("test set is empty; choose fewer training tuples")
    return TrainTestSplit(train=train, train_tuple_ids=tuple(ids),
                          cells=encoded)
