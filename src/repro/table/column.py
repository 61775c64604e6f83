"""The :class:`Column` type: a named, immutable sequence of cell values.

Cells are arbitrary Python objects; ``None`` represents a missing value
(the library never uses ``float('nan')`` as a sentinel because NaN breaks
equality-based operations such as joins and group-bys).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.errors import SchemaError


class Column:
    """A named sequence of cell values.

    Columns are value objects: every transforming method returns a new
    :class:`Column` and leaves the receiver untouched.

    Parameters
    ----------
    name:
        Column name.  Must be a non-empty string.
    values:
        Iterable of cell values.  ``None`` encodes a missing value.
    """

    __slots__ = ("_name", "_values")

    def __init__(self, name: str, values: Iterable[Any]):
        if not isinstance(name, str) or not name:
            raise SchemaError(f"column name must be a non-empty string, got {name!r}")
        self._name = name
        self._values = tuple(values)

    @property
    def name(self) -> str:
        """The column's name."""
        return self._name

    @property
    def values(self) -> tuple[Any, ...]:
        """The cell values as an immutable tuple."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return Column(self._name, self._values[index])
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self._name == other._name and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._name, self._values))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:6])
        suffix = ", ..." if len(self._values) > 6 else ""
        return f"Column({self._name!r}, [{preview}{suffix}])"

    # -- transformations ---------------------------------------------------

    def rename(self, name: str) -> Column:
        """Return a copy of this column under a new name."""
        return Column(name, self._values)

    def map(self, fn: Callable[[Any], Any]) -> Column:
        """Return a new column with ``fn`` applied to every cell."""
        return Column(self._name, (fn(v) for v in self._values))

    def take(self, indices: Sequence[int]) -> Column:
        """Return a new column containing the cells at ``indices``."""
        values = self._values
        return Column(self._name, (values[i] for i in indices))

    def astype_str(self) -> Column:
        """Return a copy with every non-missing cell converted to ``str``."""
        return self.map(lambda v: v if v is None else str(v))

    # -- predicates and summaries ------------------------------------------

    def is_missing(self) -> list[bool]:
        """Per-cell missingness mask (``True`` where the cell is ``None``)."""
        return [v is None for v in self._values]

    def n_missing(self) -> int:
        """Number of missing cells."""
        return sum(1 for v in self._values if v is None)

    def unique(self) -> list[Any]:
        """Distinct values in first-occurrence order (``None`` included)."""
        return list(dict.fromkeys(self._values))

    def value_counts(self) -> dict[Any, int]:
        """Map each distinct value to its number of occurrences."""
        counts: dict[Any, int] = {}
        for v in self._values:
            counts[v] = counts.get(v, 0) + 1
        return counts

    def equals_mask(self, other: Column) -> list[bool]:
        """Element-wise equality with ``other`` (missing == missing)."""
        if len(other) != len(self):
            raise SchemaError(
                f"cannot compare columns of length {len(self)} and {len(other)}"
            )
        return [a == b for a, b in zip(self._values, other._values)]
