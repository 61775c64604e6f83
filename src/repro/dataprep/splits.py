"""Train/test splitting by tuple id.

The paper labels 20 whole tuples: every cell of a selected tuple goes to
the trainset (20 tuples x n_attributes cells) and all remaining cells form
the testset (Section 5.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dataprep.encoding import EncodedCells, encode_cells
from repro.dataprep.pipeline import PreparedData
from repro.errors import DataError


@dataclass(frozen=True)
class TrainTestSplit:
    """Encoded train and test cell sets for one experiment run.

    ``cells`` is the whole prepared table's encoding, both sides in the
    prepared cell order, for callers that score every cell.
    """

    train: EncodedCells
    test: EncodedCells
    train_tuple_ids: tuple[int, ...]
    cells: EncodedCells

    @property
    def train_size(self) -> int:
        """Number of training cells (tuples x attributes)."""
        return self.train.n_cells

    @property
    def test_size(self) -> int:
        """Number of test cells."""
        return self.test.n_cells


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
    in_train = np.isin(encoded.tuple_ids, ids)
    train = encoded.subset(np.flatnonzero(in_train))
    test = encoded.subset(np.flatnonzero(~in_train))
    if test.n_cells == 0:
        raise DataError("test set is empty; choose fewer training tuples")
    return TrainTestSplit(train=train, test=test, train_tuple_ids=tuple(ids),
                          cells=encoded)
