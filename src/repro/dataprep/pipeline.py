"""Steps 1-3 of the data-preparation pipeline (Figure 3).

Builds the long-format cell table ``df`` with the columns the paper
describes: ``id_``, ``attribute``, ``value_x`` (dirty), ``value_y``
(clean), ``label``, ``empty``, ``concat`` and ``length_norm``.
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
    """The distinct ``(attribute, value_x)`` keys of a long cell table.

    Attributes
    ----------
    codes:
        ``(n_cells,)`` int64 key of each cell; keys are numbered in
        first-occurrence order over the cells.
    first:
        ``(n_keys,)`` int64 first cell of each key (ascending).
    attributes, values:
        Each key's attribute name and value text.
    """

    codes: np.ndarray
    first: np.ndarray
    attributes: list[str]
    values: list[str]

    @classmethod
    def of_cells(cls, attributes: Sequence[str],
                 values: Sequence[str]) -> "CellKeys":
        """The keys of cells ``(attributes[k], values[k])``, hashed cell
        by cell."""
        codes, pairs = first_occurrence_ids(list(zip(attributes, values)))
        return cls(codes=codes, first=_first_rows(codes),
                   attributes=[attribute for attribute, _ in pairs],
                   values=[value for _, value in pairs])


@dataclass(frozen=True)
class PreparedData:
    """Output of :func:`prepare`.

    Attributes
    ----------
    df:
        Long-format table with one row per cell and columns ``id_``,
        ``attribute``, ``value_x``, ``value_y``, ``label``, ``empty``,
        ``concat``, ``length_norm``.
    attributes:
        Attribute names in original column order.
    char_index:
        Character dictionary built over all ``value_x`` texts.
    attribute_index:
        Attribute dictionary for the metadata input.
    max_length:
        Longest (truncated) ``value_x`` in characters; the padded
        sequence length used by the models.
    longest:
        Longest ``value_x`` of each attribute: the denominator of
        ``length_norm``.  Measured on ``df`` when not given.
    keys:
        The :class:`CellKeys` of ``df``'s cells, which ``encode_cells``
        and DiverSet use instead of hashing every cell.  Hashed from
        ``df`` when not given; a ``replace`` that changes ``df``'s
        ``attribute`` or ``value_x`` cells must pass ``keys=None``.
    """

    df: Table
    attributes: tuple[str, ...]
    char_index: CharDictionary
    attribute_index: AttributeDictionary
    max_length: int
    longest: dict[str, int] | None = None
    keys: CellKeys | None = None

    def __post_init__(self) -> None:
        if self.longest is None:
            longest = dict.fromkeys(self.attributes, 0)
            for attribute, value in zip(self.df.column("attribute").values,
                                        self.df.column("value_x").values):
                longest[attribute] = max(longest[attribute], len(value))
            object.__setattr__(self, "longest", longest)
        if self.keys is None:
            object.__setattr__(self, "keys", CellKeys.of_cells(
                self.df.column("attribute").values,
                self.df.column("value_x").values))

    @property
    def n_tuples(self) -> int:
        """Number of distinct tuples (``id_`` values)."""
        return len(self.df.column("id_").unique())

    def tuple_ids(self) -> list[int]:
        """Distinct tuple ids in first-occurrence order."""
        return self.df.column("id_").unique()


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


def _cell_order(columns: Sequence[np.ndarray], n: int, dtype) -> list:
    """Interleave per-attribute cell arrays into the long table's cell
    order, as Python objects.

    Cell ``k`` of the long table is tuple ``k // m``, attribute
    ``k % m`` (``m`` attributes): the order of the paper's melt followed
    by its merge on ``(id_, attribute)``, which pairs the dirty and
    clean cells of the same position.
    """
    out = np.empty((n, len(columns)), dtype=dtype)
    for j, column in enumerate(columns):
        out[:, j] = column
    return out.ravel().tolist()


def _gather(per_value: Sequence[Sequence], codes: Sequence[np.ndarray],
            n: int, dtype) -> list:
    """:func:`_cell_order` of each column's per-value items taken at its
    cells' codes."""
    columns = []
    for items, column in zip(per_value, codes):
        table = np.empty(len(items), dtype=dtype)
        table[:] = items
        columns.append(table[column])
    return _cell_order(columns, n, dtype)


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
        The long-format cell table plus dictionaries and sequence length.
    """
    if max_value_length < 1:
        raise DataError(f"max_value_length must be >= 1, got {max_value_length}")
    # Step 2, structure transformation: the dirty columns are aligned to
    # the clean names by position, cells are left-stripped and ``None``
    # becomes "".  Values are cut at ``max_value_length`` before any
    # helper column is derived from them.
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

    # Step 3, built column by column on the distinct texts and gathered
    # into cell order: ``label`` marks a dirty value that differs from
    # its clean one, ``empty`` an empty dirty value, ``concat`` is
    # DiverSet's ``attribute__value`` key and ``length_norm`` the
    # value's length over the longest value of the same attribute.
    longest: dict[str, int] = {}
    ratios = []
    for attribute, texts in zip(attributes, dirty_texts):
        sizes = np.fromiter(map(len, texts), dtype=np.float64,
                            count=len(texts))
        longest[attribute] = int(sizes.max(initial=0))
        ratios.append(length_ratio(sizes, longest[attribute]))
    value_x = _gather(dirty_texts, dirty_codes, n, object)
    if clean is dirty:
        value_y, labels = value_x, [0] * (n * m)
    else:
        clean_codes, clean_texts = _coded_columns(clean, max_value_length)
        value_y = _gather(clean_texts, clean_codes, n, object)
        # A clean value's code among the dirty texts of its column (-1
        # when absent): a cell is an error where the two codes differ.
        differs = []
        for xs, ys, x_codes, y_codes in zip(dirty_texts, clean_texts,
                                            dirty_codes, clean_codes):
            index = {text: i for i, text in enumerate(xs)}
            as_dirty = np.array([index.get(text, -1) for text in ys],
                                dtype=np.int64)
            differs.append(x_codes != as_dirty[y_codes])
        labels = _cell_order(differs, n, np.int64)
    df = Table({
        "id_": np.repeat(np.arange(n), m).tolist(),
        "attribute": list(attributes) * n,
        "value_x": value_x,
        "value_y": value_y,
        "label": labels,
        "empty": _gather([[0 if text else 1 for text in texts]
                          for texts in dirty_texts], dirty_codes, n,
                         np.int64),
        "concat": _gather([[f"{attribute}__{text}" for text in texts]
                           for attribute, texts in zip(attributes,
                                                       dirty_texts)],
                          dirty_codes, n, object),
        "length_norm": _gather(ratios, dirty_codes, n, np.float64),
    })
    keys = _long_keys(attributes, n, dirty_codes, dirty_texts)
    # Characters are numbered in first-occurrence order over the cells;
    # a repeated value adds none, so the keys, in first-occurrence
    # order, give the same dictionary.
    return PreparedData(
        df=df,
        attributes=attributes,
        char_index=CharDictionary(keys.values),
        attribute_index=attribute_index,
        max_length=max(max(map(len, keys.values), default=1), 1),
        longest=longest,
        keys=keys,
    )


def _long_keys(attributes: tuple[str, ...], n: int,
               codes: list[np.ndarray], texts: list[list[str]]) -> CellKeys:
    """The long table's :class:`CellKeys` from each column's codes.

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
