"""The :class:`Table` type: an ordered collection of equal-length columns.

Tables are immutable value objects.  All transforming methods return a new
table, which makes the data-preparation pipeline (Figure 3 of the paper)
easy to reason about and to test step by step.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.errors import SchemaError
from repro.table.column import Column

Row = dict[str, Any]


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order over heterogeneous cells: missing first, then by type."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


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

    @classmethod
    def empty(cls, column_names: Sequence[str]) -> Table:
        """An empty (zero-row) table with the given columns."""
        return cls({name: [] for name in column_names})

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

    def to_dict(self) -> dict[str, list[Any]]:
        """Return ``{column: [values...]}`` with fresh lists."""
        return {name: list(col.values) for name, col in self._columns.items()}

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

    # -- column-level transformations -----------------------------------------

    def select(self, names: Sequence[str]) -> Table:
        """Return a table with only ``names``, in the given order."""
        return Table({name: self.column(name) for name in names})

    def drop(self, names: Sequence[str]) -> Table:
        """Return a table without the given columns."""
        doomed = set(names)
        missing = doomed - set(self._columns)
        if missing:
            raise SchemaError(f"cannot drop unknown columns: {sorted(missing)}")
        return Table({n: c for n, c in self._columns.items() if n not in doomed})

    def rename(self, mapping: Mapping[str, str]) -> Table:
        """Return a table with columns renamed per ``mapping``."""
        unknown = set(mapping) - set(self._columns)
        if unknown:
            raise SchemaError(f"cannot rename unknown columns: {sorted(unknown)}")
        return Table({mapping.get(n, n): c.rename(mapping.get(n, n))
                      for n, c in self._columns.items()})

    def with_column(self, name: str, values: Iterable[Any]) -> Table:
        """Return a table with ``name`` added (or replaced)."""
        data = dict(self._columns)
        data[name] = Column(name, values)
        return Table(data)

    def with_computed(self, name: str, fn: Callable[[Row], Any]) -> Table:
        """Return a table with ``name`` computed per-row by ``fn``."""
        return self.with_column(name, (fn(row) for row in self.iter_rows()))

    def map_column(self, name: str, fn: Callable[[Any], Any]) -> Table:
        """Return a table with ``fn`` applied to every cell of ``name``."""
        return self.with_column(name, self.column(name).map(fn))

    # -- row-level transformations ---------------------------------------------

    def take(self, indices: Sequence[int]) -> Table:
        """Return a table with the rows at ``indices`` (order preserved)."""
        return Table({n: c.take(indices) for n, c in self._columns.items()})

    def head(self, n: int) -> Table:
        """The first ``n`` rows."""
        return self.take(range(min(n, self._n_rows)))

    def filter(self, predicate: Callable[[Row], bool]) -> Table:
        """Return the rows for which ``predicate(row)`` is truthy."""
        indices = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.take(indices)

    def filter_mask(self, mask: Sequence[bool]) -> Table:
        """Return the rows where ``mask`` is ``True``."""
        if len(mask) != self._n_rows:
            raise SchemaError(
                f"mask length {len(mask)} does not match row count {self._n_rows}"
            )
        return self.take([i for i, keep in enumerate(mask) if keep])

    def filter_in(self, name: str, allowed: Iterable[Any]) -> Table:
        """Rows whose ``name`` cell is a member of ``allowed``."""
        allowed_set = set(allowed)
        values = self.column(name).values
        return self.take([i for i, v in enumerate(values) if v in allowed_set])

    def filter_not_in(self, name: str, banned: Iterable[Any]) -> Table:
        """Rows whose ``name`` cell is *not* a member of ``banned``."""
        banned_set = set(banned)
        values = self.column(name).values
        return self.take([i for i, v in enumerate(values) if v not in banned_set])

    def sort_by(self, names: Sequence[str], reverse: bool = False) -> Table:
        """Return a table stably sorted by the given columns."""
        cols = [self.column(n).values for n in names]
        order = sorted(
            range(self._n_rows),
            key=lambda i: tuple(_sort_key(c[i]) for c in cols),
            reverse=reverse,
        )
        return self.take(order)

    def distinct(self, names: Sequence[str] | None = None) -> Table:
        """Return the first occurrence of each distinct key combination.

        When ``names`` is ``None``, full rows are de-duplicated.
        """
        keys = names if names is not None else self.column_names
        cols = [self.column(n).values for n in keys]
        seen: set[tuple[Any, ...]] = set()
        indices: list[int] = []
        for i in range(self._n_rows):
            key = tuple(c[i] for c in cols)
            if key not in seen:
                seen.add(key)
                indices.append(i)
        return self.take(indices)

    def concat(self, other: Table) -> Table:
        """Stack ``other`` below this table (schemas must match)."""
        if self.column_names != other.column_names:
            raise SchemaError(
                "cannot concat tables with different schemas: "
                f"{self.column_names} vs {other.column_names}"
            )
        return Table({
            n: list(self._columns[n].values) + list(other._columns[n].values)
            for n in self._columns
        })

    # -- reshaping ----------------------------------------------------------------

    def pivot(self, index: str, columns: str, values: str,
              column_order: Sequence[str] | None = None) -> Table:
        """Reshape from long to wide format.

        One output row per distinct ``index`` value (first-seen order);
        one output column per distinct ``columns`` value plus the index
        column itself.  Missing combinations become ``None``; duplicate
        combinations keep the last value.

        Parameters
        ----------
        index:
            Column identifying the output row (e.g. ``id_``).
        columns:
            Column whose values become output column names.
        values:
            Column supplying the cell values.
        column_order:
            Explicit output column order; defaults to first-seen order.
        """
        index_col = self.column(index).values
        name_col = self.column(columns).values
        value_col = self.column(values).values
        row_order: list[Any] = []
        seen_rows: set[Any] = set()
        names: list[str] = list(column_order) if column_order else []
        cells: dict[tuple[Any, Any], Any] = {}
        for key, name, value in zip(index_col, name_col, value_col):
            if key not in seen_rows:
                seen_rows.add(key)
                row_order.append(key)
            if column_order is None and name not in names:
                names.append(name)
            cells[(key, name)] = value
        data: dict[str, list[Any]] = {index: row_order}
        for name in names:
            if not isinstance(name, str):
                raise SchemaError(
                    f"pivot column values must be strings, got {name!r}"
                )
            data[name] = [cells.get((key, name)) for key in row_order]
        return Table(data)
