"""Steps 1-3 of the data-preparation pipeline (Figure 3).

Builds the long-format cell table ``df`` with the columns the paper
describes: ``id_``, ``attribute``, ``value_x`` (dirty), ``value_y``
(clean), ``label``, ``empty``, ``concat`` and ``length_norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataprep.dictionaries import AttributeDictionary, CharDictionary
from repro.errors import DataError
from repro.table import Table

#: Values longer than this are cut off (Section 4.1, step 3: needed for
#: hospital, movies and rayyan).
MAX_VALUE_LENGTH = 128


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
    """

    df: Table
    attributes: tuple[str, ...]
    char_index: CharDictionary
    attribute_index: AttributeDictionary
    max_length: int
    longest: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.longest is None:
            longest = dict.fromkeys(self.attributes, 0)
            for attribute, value in zip(self.df.column("attribute").values,
                                        self.df.column("value_x").values):
                longest[attribute] = max(longest[attribute], len(value))
            object.__setattr__(self, "longest", longest)

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


def _cell_order(columns: list[list]) -> list:
    """Interleave per-attribute columns into the long table's cell order.

    Cell ``k`` of the long table is tuple ``k // m``, attribute
    ``k % m`` (``m`` attributes): the order of the paper's melt followed
    by its merge on ``(id_, attribute)``, which pairs the dirty and
    clean cells of the same position.
    """
    return [value for row in zip(*columns) for value in row]


def prepare(dirty: Table, clean: Table,
            max_value_length: int = MAX_VALUE_LENGTH) -> PreparedData:
    """Run the full preparation pipeline on a (dirty, clean) table pair.

    Parameters
    ----------
    dirty, clean:
        Wide tables of equal shape; the dirty table's columns are aligned
        to the clean table's positionally.
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

    def cells(table: Table, name: str) -> list[str]:
        return [_normalise_cell(v)[:max_value_length]
                for v in table.column(name).values]

    dirty_cols = [cells(dirty, name) for name in dirty.column_names]
    clean_cols = [cells(clean, name) for name in attributes]

    # Step 3, built column by column: ``label`` marks a dirty value that
    # differs from its clean one, ``empty`` an empty dirty value,
    # ``concat`` is DiverSet's ``attribute__value`` key and
    # ``length_norm`` the value's length over the longest value of the
    # same attribute.
    labels, empties, concats, ratios = [], [], [], []
    longest: dict[str, int] = {}
    for attribute, xs, ys in zip(attributes, dirty_cols, clean_cols):
        labels.append([0 if x == y else 1 for x, y in zip(xs, ys)])
        empties.append([0 if x else 1 for x in xs])
        prefix = f"{attribute}__"
        concats.append([prefix + x for x in xs])
        sizes = np.fromiter(map(len, xs), dtype=np.float64, count=len(xs))
        longest[attribute] = int(sizes.max(initial=0))
        ratios.append(length_ratio(sizes, longest[attribute]).tolist())
    df = Table({
        "id_": [i for i in range(clean.n_rows) for _ in attributes],
        "attribute": list(attributes) * clean.n_rows,
        "value_x": _cell_order(dirty_cols),
        "value_y": _cell_order(clean_cols),
        "label": _cell_order(labels),
        "empty": _cell_order(empties),
        "concat": _cell_order(concats),
        "length_norm": _cell_order(ratios),
    })
    # Characters are numbered in first-occurrence order over the cells;
    # a repeated value adds none, so the distinct values give the same
    # dictionary.
    distinct = list(dict.fromkeys(df.column("value_x").values))
    return PreparedData(
        df=df,
        attributes=attributes,
        char_index=CharDictionary(distinct),
        attribute_index=AttributeDictionary(attributes),
        max_length=max(max(map(len, distinct), default=1), 1),
        longest=longest,
    )
