"""Step 4 of the pipeline: numeric encoding of cells.

:func:`encode_values` is the one cell encoder.  Training encodes the
long-format cell table through it (:func:`encode_cells`), and every
scoring path encodes the cells of new tables through it, so a fitted
model scores a cell the same way on every path.  It produces the arrays
the models consume: padded character-index sequences (``values``),
attribute indices (``attributes``) and normalised lengths
(``length_norm``); :func:`encode_cells` adds labels and bookkeeping
columns for mapping predictions back to cells.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dataprep.pipeline import PreparedData, _normalise_cell, length_ratio
from repro.errors import DataError
from repro.inference.index import DedupIndex, build_dedup_index
from repro.table import Table

_REQUIRED_COLUMNS = ("id_", "attribute", "value_x", "label")


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


def _first_occurrence_ids(items: Sequence) -> tuple[np.ndarray, list]:
    """Each item's index among the distinct items, in first-seen order."""
    first: dict = {}
    ids = np.fromiter((first.setdefault(item, len(first)) for item in items),
                      dtype=np.int64, count=len(items))
    return ids, list(first)


def encode_values(prepared: PreparedData, values: Sequence,
                  attributes: Sequence[str], unknown: str = "skip",
                  ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Features and true lengths of cells ``(values[i], attributes[i])``.

    Each value is normalised as ``prepare`` does (``None`` -> ``""``,
    left-strip), clipped to ``max_length`` and encoded with ``unknown``
    (``"error"`` for training cells, ``"skip"`` for unseen data);
    ``length_norm`` is its length over its attribute's longest training
    value (:func:`~repro.dataprep.pipeline.length_ratio`).  Each
    distinct value and attribute is processed once; an unknown
    attribute raises for the first row that has one.
    """
    if len(values) != len(attributes):
        raise DataError(
            f"{len(values)} values but {len(attributes)} attributes")
    attr_ids, distinct_attrs = _first_occurrence_ids(attributes)
    attr_index = np.array([prepared.attribute_index.index_of(name)
                           for name in distinct_attrs], dtype=np.int64)
    longest = np.array([prepared.longest[name] for name in distinct_attrs],
                       dtype=np.float64)
    value_ids, distinct_values = _first_occurrence_ids(values)
    texts = [_normalise_cell(value)[:prepared.max_length]
             for value in distinct_values]
    encoded = prepared.char_index.encode_batch(texts, prepared.max_length,
                                               unknown=unknown)
    sizes = np.fromiter(map(len, texts), dtype=np.float64, count=len(texts))
    features = {
        "values": encoded[value_ids],
        "attributes": attr_index[attr_ids],
        "length_norm": length_ratio(sizes[value_ids],
                                    longest[attr_ids]).reshape(-1, 1),
    }
    # Encoded characters are contiguous from position 0 and never map to
    # the pad index, so the true length is the non-pad count.
    return features, encoded.astype(bool).sum(axis=1)[value_ids]


def table_cells(table: Table, attributes: Iterable[str],
                ) -> tuple[list[str], list[str], list[str]]:
    """The kept columns (those ``attributes`` names, in table order) and
    their cells' raw texts and attributes, column by column: cell ``k``
    is row ``k % table.n_rows`` of column ``k // table.n_rows``."""
    known = set(attributes)
    columns = [name for name in table.column_names if name in known]
    values = ["" if value is None else str(value)
              for name in columns for value in table.column(name).values]
    cell_attributes = [name for name in columns for _ in range(table.n_rows)]
    return columns, values, cell_attributes


def encode_cells(prepared: PreparedData, df: Table | None = None,
                 unknown: str = "error") -> EncodedCells:
    """Encode (a subset of) the prepared cell table into model arrays.

    Each distinct cell -- the same attribute and value -- is encoded
    once by :func:`encode_values` and scattered to its rows, and the
    unique-cell index comes out of the same pass, numbered exactly as
    :func:`~repro.inference.index.build_dedup_index` numbers the full
    feature rows.

    Parameters
    ----------
    prepared:
        Pipeline output carrying the dictionaries and sequence lengths.
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
    # Row i is distinct (attribute, value) key cell_key[i], numbered in
    # first-occurrence order.
    cell_key, keys = _first_occurrence_ids(
        list(zip(attr_col, table.column("value_x").values)))
    _, first_row = np.unique(cell_key, return_index=True)
    key_features, key_lengths = encode_values(
        prepared, [value for _, value in keys], [attr for attr, _ in keys],
        unknown=unknown)
    # Keys whose features are byte-identical (a skipped character) share
    # a group.  Groups are ranked by their bytes like the full rows'
    # groups, and a group's first key holds its first row, since keys
    # are numbered in row order.
    key_groups = build_dedup_index(key_features)
    return EncodedCells(
        features={name: np.take(array, cell_key, axis=0)
                  for name, array in key_features.items()},
        labels=np.fromiter(map(int, table.column("label").values),
                           dtype=np.int64, count=n),
        tuple_ids=np.fromiter(map(int, table.column("id_").values),
                              dtype=np.int64, count=n),
        attribute_names=tuple(attr_col),
        lengths=np.take(key_lengths, cell_key),
        dedup=DedupIndex(
            representatives=first_row[key_groups.representatives],
            inverse=key_groups.inverse[cell_key]),
    )
