"""Steps 1-3 of the data-preparation pipeline (Figure 3).

The paper builds a long table with one row per cell and the columns
``id_``, ``attribute``, ``value_x`` (dirty), ``value_y`` (clean),
``label``, ``empty``, ``concat`` and ``length_norm``.  Here the cells
are numbered instead: cell ``k`` of an ``n`` x ``m`` table is tuple
``k // m`` and attribute ``k % m``, so ``id_`` and ``attribute`` follow
from ``k``.  :class:`PreparedData` keeps each cell's ``label`` and the
key of its dirty text; ``empty``, ``concat`` and ``length_norm`` are
derived from the keys where they are used (DiverSet and the encoder),
and the clean text only decides the label.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.dataprep.dictionaries import AttributeDictionary, CharDictionary
from repro.errors import DataError
from repro.table import Table

#: Values longer than this are cut off (Section 4.1, step 3: needed for
#: hospital, movies and rayyan).
MAX_VALUE_LENGTH = 128


def first_occurrence_ids(items: Sequence) -> tuple[np.ndarray, list]:
    """Each item's index among the distinct items, in first-seen order."""
    first = dict.fromkeys(items)
    for i, item in enumerate(first):
        first[item] = i
    ids = np.fromiter(map(first.__getitem__, items), dtype=np.int64,
                      count=len(items))
    return ids, list(first)


def _first_rows(codes: np.ndarray) -> np.ndarray:
    """Where each code first occurs, for codes numbered in first-seen
    order (the running maximum grows exactly there)."""
    seen = np.maximum.accumulate(codes)
    new = np.ones(codes.shape, dtype=bool)
    new[1:] = seen[1:] > seen[:-1]
    return np.flatnonzero(new)


@dataclass(frozen=True)
class CellKeys:
    """The distinct ``(attribute, value)`` keys of the prepared cells.

    Attributes
    ----------
    codes:
        ``(n_cells,)`` int64 key of each cell; keys are numbered in
        first-occurrence order over the cells.
    first:
        ``(n_keys,)`` int64 first cell of each key (ascending).
    attributes, values:
        Each key's attribute name and prepared dirty text.
    """

    codes: np.ndarray
    first: np.ndarray
    attributes: list[str]
    values: list[str]


@dataclass(frozen=True)
class PreparedData:
    """Output of :func:`prepare`: the cells of an ``n`` x ``m`` table,
    column by column.

    Cell ``k`` is tuple ``k // m`` and attribute ``k % m``: the order of
    the paper's melt followed by its merge on ``(id_, attribute)``.
    Every per-cell array below is in that order.

    Attributes
    ----------
    attributes:
        Attribute names in original column order (``m`` of them).
    char_index:
        Character dictionary built over all dirty texts.
    attribute_index:
        Attribute dictionary for the metadata input.
    max_length:
        Longest (truncated) dirty text in characters; the padded
        sequence length used by the models.
    longest:
        Longest dirty text of each attribute: the denominator of
        ``length_norm``.
    keys:
        The :class:`CellKeys` of the cells: each cell's dirty text is
        ``keys.values[keys.codes[k]]``.  ``encode_cells`` and DiverSet
        use them instead of hashing every cell.
    labels:
        ``(n_cells,)`` int64: 1 where the dirty text differs from the
        clean one.
    """

    attributes: tuple[str, ...]
    char_index: CharDictionary
    attribute_index: AttributeDictionary
    max_length: int
    longest: dict[str, int]
    keys: CellKeys
    labels: np.ndarray

    @property
    def n_tuples(self) -> int:
        """Number of tuples."""
        return self.labels.size // len(self.attributes)

    def tuple_ids(self) -> list[int]:
        """Tuple ids ``0 .. n_tuples - 1``."""
        return list(range(self.n_tuples))

    def cell_texts(self, cells) -> list[str]:
        """The prepared dirty text of each of ``cells`` (a slice or an
        index array into the cell order)."""
        values = self.keys.values
        return [values[code] for code in self.keys.codes[cells].tolist()]


def _normalise_cell(value: object) -> str:
    """Missing cells become the empty string; others are left-stripped text.

    The paper removes *preceding* white spaces during structure
    transformation (Figure 3, step 2).
    """
    if value is None:
        return ""
    return str(value).lstrip()


def length_ratio(lengths, longest) -> np.ndarray:
    """``length_norm`` (Figure 3, step 3): each length over its
    attribute's longest value; 0.0 where that is empty, at most 1.0."""
    longest = np.asarray(longest, dtype=np.float64)
    ratio = np.asarray(lengths, dtype=np.float64) / np.maximum(longest, 1.0)
    return np.minimum(ratio, 1.0) * (longest > 0)


def _coded_columns(table: Table, max_value_length: int
                   ) -> tuple[list[np.ndarray], list[list[str]]]:
    """Each column's cells as indices into its distinct prepared texts
    (numbered in first-seen order), and those texts.  Each distinct raw
    value is normalised and clipped once."""
    codes, texts = [], []
    for name in table.column_names:
        values = table.column(name).values
        raw_ids, raw = first_occurrence_ids(values)
        if not all(type(value) is str or value is None for value in raw):
            # Other types can be equal yet print differently (1, 1.0,
            # True): normalise every cell.
            raw_ids, raw = np.arange(len(values)), values
        text_ids, distinct = first_occurrence_ids(
            [_normalise_cell(value)[:max_value_length] for value in raw])
        codes.append(text_ids[raw_ids])
        texts.append(distinct)
    return codes, texts


@telemetry.spanned("dataprep.prepare")
def prepare(dirty: Table, clean: Table,
            max_value_length: int = MAX_VALUE_LENGTH) -> PreparedData:
    """Run the full preparation pipeline on a (dirty, clean) table pair.

    Parameters
    ----------
    dirty, clean:
        Wide tables of equal shape; the dirty table's columns are aligned
        to the clean table's positionally.  Passing the same table twice
        (unlabelled data) labels every cell 0.
    max_value_length:
        Truncation limit for cell values (the paper uses 128).

    Returns
    -------
    PreparedData
        The cells' labels and keys plus dictionaries and sequence length.
    """
    if max_value_length < 1:
        raise DataError(f"max_value_length must be >= 1, got {max_value_length}")
    # Step 2, structure transformation: the dirty columns are aligned to
    # the clean names by position, cells are left-stripped and ``None``
    # becomes "".  Values are cut at ``max_value_length`` before
    # anything is derived from them.
    if dirty.shape != clean.shape:
        raise DataError(
            f"dirty and clean tables must have the same shape, "
            f"got {dirty.shape} vs {clean.shape}"
        )
    if "id_" in clean.column_names:
        raise DataError("input tables must not already contain an 'id_' column")
    attributes = tuple(clean.column_names)
    # Raises for a table without columns.
    attribute_index = AttributeDictionary(attributes)
    n, m = clean.n_rows, len(attributes)
    dirty_codes, dirty_texts = _coded_columns(dirty, max_value_length)

    # Step 3, column by column on the distinct texts: ``label`` marks a
    # dirty value that differs from its clean one, ``longest`` is each
    # attribute's ``length_norm`` denominator, and the keys number the
    # distinct (attribute, value) pairs in cell order.
    longest = {attribute: max(map(len, texts), default=0)
               for attribute, texts in zip(attributes, dirty_texts)}
    labels = np.zeros((n, m), dtype=np.int64)
    if clean is not dirty:
        clean_codes, clean_texts = _coded_columns(clean, max_value_length)
        # A clean value's code among the dirty texts of its column (-1
        # when absent): a cell is an error where the two codes differ.
        for j, (xs, ys, x_codes, y_codes) in enumerate(zip(
                dirty_texts, clean_texts, dirty_codes, clean_codes)):
            index = {text: i for i, text in enumerate(xs)}
            as_dirty = np.array([index.get(text, -1) for text in ys],
                                dtype=np.int64)
            labels[:, j] = x_codes != as_dirty[y_codes]
    keys = _cell_keys(attributes, n, dirty_codes, dirty_texts)
    # Characters are numbered in first-occurrence order over the cells;
    # a repeated value adds none, so the keys, in first-occurrence
    # order, give the same dictionary.
    return PreparedData(
        attributes=attributes,
        char_index=CharDictionary(keys.values),
        attribute_index=attribute_index,
        max_length=max(max(map(len, keys.values), default=1), 1),
        longest=longest,
        keys=keys,
        labels=labels.ravel(),
    )


def _cell_keys(attributes: tuple[str, ...], n: int,
               codes: list[np.ndarray], texts: list[list[str]]) -> CellKeys:
    """The cells' :class:`CellKeys` from each column's codes.

    Key ``(j, c)`` first occurs at cell ``first_row * m + j``, where
    ``first_row`` is the first row of code ``c`` in column ``j``; the
    keys are ranked by that cell.
    """
    m = len(attributes)
    offsets = np.cumsum([0] + [len(column) for column in texts])
    firsts = np.concatenate([_first_rows(column) * m + j
                             for j, column in enumerate(codes)])
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    cells = np.empty((n, m), dtype=np.int64)
    for j, column in enumerate(codes):
        cells[:, j] = rank[offsets[j] + column]
    column_of = np.repeat(np.arange(m), np.diff(offsets))
    flat = [text for column in texts for text in column]
    return CellKeys(codes=cells.ravel(), first=firsts[order],
                    attributes=[attributes[j] for j in column_of[order]],
                    values=[flat[g] for g in order.tolist()])
