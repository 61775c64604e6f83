"""The :class:`Column` type: a named, immutable sequence of cell values.

Cells are arbitrary Python objects; ``None`` represents a missing value
(the library never uses ``float('nan')`` as a sentinel because NaN breaks
equality: ``nan != nan``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import SchemaError


class Column:
    """A named sequence of cell values.

    Columns are value objects: :meth:`rename` and slicing return a new
    :class:`Column` and leave the receiver untouched.

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
