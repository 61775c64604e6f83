"""Step 4 of the pipeline: numeric encoding of the long-format cell table.

Produces the arrays the models consume: padded character-index sequences
(``values``), attribute indices (``attributes``) and normalised lengths
(``length_norm``), plus labels and bookkeeping columns for mapping
predictions back to cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataprep.pipeline import PreparedData
from repro.errors import DataError
from repro.inference.index import DedupIndex, build_dedup_index
from repro.table import Table

_REQUIRED_COLUMNS = ("id_", "attribute", "value_x", "label", "length_norm")


@dataclass(frozen=True)
class EncodedCells:
    """Model-ready arrays for a set of cells.

    Attributes
    ----------
    features:
        ``values`` -- ``(n, max_length)`` int64 padded index sequences;
        ``attributes`` -- ``(n,)`` int64 attribute indices;
        ``length_norm`` -- ``(n, 1)`` float ratios.
    labels:
        ``(n,)`` int64 cell labels (0 correct, 1 error).
    tuple_ids:
        ``(n,)`` int64 tuple id of each cell.
    attribute_names:
        Attribute name of each cell (parallel to rows).
    lengths:
        ``(n,)`` int64 true (unpadded) sequence length of each ``values``
        row, stored at encoding time so sorted-by-length inference
        chunking never re-derives it from the padding.  ``None`` only for
        hand-built instances.
    dedup:
        Unique-cell index over the feature rows (first-occurrence
        representatives + inverse scatter map), computed at encoding time
        so the dedup-memoized inference engine never re-hashes the
        table.  ``None`` only for hand-built instances.
    """

    features: dict[str, np.ndarray]
    labels: np.ndarray
    tuple_ids: np.ndarray
    attribute_names: tuple[str, ...]
    lengths: np.ndarray | None = None
    dedup: DedupIndex | None = None

    @property
    def n_cells(self) -> int:
        """Number of encoded cells."""
        return int(self.labels.shape[0])

    def _attribute_name_array(self) -> np.ndarray:
        """The attribute names as an object ndarray (built once, memoised)."""
        cached = self.__dict__.get("_names_arr")
        if cached is None:
            cached = np.empty(len(self.attribute_names), dtype=object)
            cached[:] = self.attribute_names
            object.__setattr__(self, "_names_arr", cached)
        return cached

    def subset(self, indices: np.ndarray) -> EncodedCells:
        """Select a row subset (used for train/test splits).

        Every field is gathered with vectorised numpy indexing -- the
        attribute names through a memoised object-array gather -- so the
        hot arrays are copied without any per-row Python loop, and the
        unique-cell index is re-numbered to the subset (not rebuilt).
        """
        indices = np.asarray(indices)
        names = self._attribute_name_array()[indices]
        return EncodedCells(
            features={k: np.take(v, indices, axis=0)
                      for k, v in self.features.items()},
            labels=np.take(self.labels, indices, axis=0),
            tuple_ids=np.take(self.tuple_ids, indices, axis=0),
            attribute_names=tuple(names.tolist()),
            lengths=(None if self.lengths is None
                     else np.take(self.lengths, indices, axis=0)),
            dedup=None if self.dedup is None else self.dedup.subset(indices),
        )


def encode_cells(prepared: PreparedData, df: Table | None = None,
                 unknown: str = "error") -> EncodedCells:
    """Encode (a subset of) the prepared cell table into model arrays.

    Each distinct cell -- the same attribute, value and length ratio --
    is encoded once and scattered to its rows, and the unique-cell index
    comes out of the same pass, numbered exactly as
    :func:`~repro.inference.index.build_dedup_index` numbers the full
    feature rows.

    Parameters
    ----------
    prepared:
        Pipeline output carrying the dictionaries and sequence length.
    df:
        Long-format table to encode; defaults to ``prepared.df``.  Must
        contain the pipeline's columns.
    unknown:
        Passed to the character dictionary: ``"error"`` (default) or
        ``"skip"`` for out-of-dictionary characters.
    """
    table = prepared.df if df is None else df
    for name in _REQUIRED_COLUMNS:
        if name not in table:
            raise DataError(f"encode_cells requires column {name!r}")
    n = table.n_rows
    attr_col = table.column("attribute").values
    length_norm = np.fromiter(map(float, table.column("length_norm").values),
                              dtype=np.float64, count=n).reshape(n, 1)
    # Number the distinct (attribute, value, ratio bits) keys in
    # first-occurrence order; row i has key cell_key[i].
    cells = list(zip(attr_col, table.column("value_x").values,
                     length_norm.view(np.int64).ravel().tolist()))
    keys = {key: k for k, key in enumerate(dict.fromkeys(cells))}
    cell_key = np.fromiter(map(keys.__getitem__, cells), dtype=np.int64,
                           count=n)
    _, first_row = np.unique(cell_key, return_index=True)
    key_features = {
        "values": prepared.char_index.encode_batch(
            [value for _, value, _ in keys], prepared.max_length,
            unknown=unknown),
        "attributes": np.fromiter(
            map(prepared.attribute_index.index_of,
                [attr for attr, _, _ in keys]),
            dtype=np.int64, count=len(keys)),
        "length_norm": length_norm[first_row],
    }
    # Keys whose features are byte-identical (a skipped character) share
    # a group.  Groups are ranked by their bytes like the full rows'
    # groups, and a group's first key holds its first row, since keys
    # are numbered in row order.
    key_groups = build_dedup_index(key_features)
    values = np.take(key_features["values"], cell_key, axis=0)
    return EncodedCells(
        features={
            "values": values,
            "attributes": np.take(key_features["attributes"], cell_key),
            "length_norm": length_norm,
        },
        labels=np.fromiter(map(int, table.column("label").values),
                           dtype=np.int64, count=n),
        tuple_ids=np.fromiter(map(int, table.column("id_").values),
                              dtype=np.int64, count=n),
        attribute_names=tuple(attr_col),
        # Encoded characters are contiguous from position 0 and never map
        # to the pad index, so the true length is the non-pad count.
        lengths=np.count_nonzero(values, axis=1).astype(np.int64),
        dedup=DedupIndex(
            representatives=first_row[key_groups.representatives],
            inverse=key_groups.inverse[cell_key]),
    )
