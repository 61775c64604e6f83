"""Dataset containers and the statistics of Table 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.errors import CellError
from repro.errors import DataError
from repro.table import Table


@dataclass(frozen=True)
class DatasetStats:
    """The per-dataset statistics the paper reports in Table 2."""

    name: str
    n_rows: int
    n_attributes: int
    error_rate: float
    n_distinct_characters: int
    error_types: tuple[str, ...]

    def as_row(self) -> dict[str, object]:
        """One Table 2 row."""
        return {
            "Name": self.name,
            "Size": f"{self.n_rows:,}x{self.n_attributes}",
            "Error Rate": round(self.error_rate, 2),
            "Different Characters": self.n_distinct_characters,
            "Error Types": ", ".join(self.error_types),
        }


@dataclass(frozen=True)
class DatasetPair:
    """A dirty table, its clean ground truth, and the injected errors.

    Attributes
    ----------
    name:
        Dataset identifier (``beers``, ``flights``, ...).
    dirty, clean:
        Wide tables of identical shape and column names.
    errors:
        Ledger of every injected error (empty for externally loaded
        pairs, where the ground truth is the only error record).
    error_types:
        The error-type tags of Table 2 (MV, T, FI, VAD).
    """

    name: str
    dirty: Table
    clean: Table
    errors: tuple[CellError, ...] = ()
    error_types: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.dirty.shape != self.clean.shape:
            raise DataError(
                f"dirty and clean shapes differ: {self.dirty.shape} vs {self.clean.shape}"
            )
        if self.dirty.column_names != self.clean.column_names:
            raise DataError("dirty and clean must share column names")

    @property
    def n_rows(self) -> int:
        """Number of tuples."""
        return self.dirty.n_rows

    @property
    def n_attributes(self) -> int:
        """Number of attributes."""
        return self.dirty.n_cols

    @property
    def n_cells(self) -> int:
        """Total cell count."""
        return self.n_rows * self.n_attributes

    def error_mask(self) -> np.ndarray:
        """Per-cell ground-truth error mask (``dirty != clean``), a
        ``(rows, attributes)`` bool array built column by column."""
        mask = np.zeros((self.n_rows, self.n_attributes), dtype=bool)
        for j, name in enumerate(self.dirty.column_names):
            mask[:, j] = [_norm(dirty) != _norm(clean) for dirty, clean in
                          zip(self.dirty.column(name).values,
                              self.clean.column(name).values)]
        return mask

    def measured_error_rate(self) -> float:
        """Fraction of cells whose dirty value deviates from the clean one."""
        wrong = int(self.error_mask().sum())
        return wrong / self.n_cells if self.n_cells else 0.0

    def distinct_characters(self) -> int:
        """Size of the dirty table's character inventory."""
        chars: set[str] = set()
        for name in self.dirty.column_names:
            for value in self.dirty.column(name).values:
                chars.update(_norm(value))
        return len(chars)

    def stats(self) -> DatasetStats:
        """Compute the Table 2 statistics for this pair."""
        return DatasetStats(
            name=self.name,
            n_rows=self.n_rows,
            n_attributes=self.n_attributes,
            error_rate=self.measured_error_rate(),
            n_distinct_characters=self.distinct_characters(),
            error_types=self.error_types,
        )


def _norm(value: object) -> str:
    return "" if value is None else str(value).lstrip()
