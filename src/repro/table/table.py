"""The :class:`Table` type: an ordered collection of equal-length columns.

Tables are immutable value objects: :meth:`Table.rename` returns a new
table and leaves the receiver untouched.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.errors import SchemaError
from repro.table.column import Column

Row = dict[str, Any]


class Table:
    """An immutable relational table.

    Parameters
    ----------
    columns:
        Mapping from column name to an iterable of cell values.  All
        columns must have the same length.
    """

    __slots__ = ("_columns", "_n_rows")

    def __init__(self, columns: Mapping[str, Iterable[Any]] | None = None):
        cols: dict[str, Column] = {}
        n_rows: int | None = None
        for name, values in (columns or {}).items():
            col = values if isinstance(values, Column) else Column(name, values)
            if col.name != name:
                col = col.rename(name)
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"column {name!r} has length {len(col)}, expected {n_rows}"
                )
            cols[name] = col
        self._columns = cols
        self._n_rows = n_rows or 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]],
                  column_names: Sequence[str] | None = None) -> Table:
        """Build a table from a sequence of row dictionaries.

        Missing keys become ``None``.  Column order follows
        ``column_names`` when given, otherwise first-seen order.
        """
        if column_names is None:
            names: list[str] = []
            for row in rows:
                for key in row:
                    if key not in names:
                        names.append(key)
        else:
            names = list(column_names)
        data = {name: [row.get(name) for row in rows] for name in names}
        return cls(data)

    # -- basic accessors -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self._n_rows, len(self._columns))

    @property
    def column_names(self) -> list[str]:
        """Column names in table order."""
        return list(self._columns)

    def column(self, name: str) -> Column:
        """Return the column called ``name``.

        Raises
        ------
        SchemaError
            If no such column exists.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._n_rows

    def row(self, index: int) -> Row:
        """Return row ``index`` as a ``{column: value}`` dict."""
        if not -self._n_rows <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range for {self._n_rows} rows")
        return {name: col[index] for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over rows as dicts."""
        for i in range(self._n_rows):
            yield {name: col[i] for name, col in self._columns.items()}

    def to_rows(self) -> list[Row]:
        """Materialise all rows as a list of dicts."""
        return list(self.iter_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (self.column_names == other.column_names
                and all(self._columns[n] == other._columns[n] for n in self._columns))

    def __repr__(self) -> str:
        return f"Table({self._n_rows} rows x {len(self._columns)} cols: {self.column_names})"

    def preview(self, n: int = 10) -> str:
        """A plain-text rendering of the first ``n`` rows."""
        names = self.column_names
        head = [self.row(i) for i in range(min(n, self._n_rows))]
        widths = {c: max(len(c), *(len(str(r[c])) for r in head)) if head else len(c)
                  for c in names}
        lines = [" | ".join(c.ljust(widths[c]) for c in names)]
        lines.append("-+-".join("-" * widths[c] for c in names))
        for r in head:
            lines.append(" | ".join(str(r[c]).ljust(widths[c]) for c in names))
        if self._n_rows > n:
            lines.append(f"... ({self._n_rows - n} more rows)")
        return "\n".join(lines)

    # -- transformations -------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> Table:
        """Return a table with columns renamed per ``mapping``."""
        unknown = set(mapping) - set(self._columns)
        if unknown:
            raise SchemaError(f"cannot rename unknown columns: {sorted(unknown)}")
        return Table({mapping.get(n, n): c.rename(mapping.get(n, n))
                      for n, c in self._columns.items()})
