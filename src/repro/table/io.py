"""CSV reading and writing for tables.

All benchmark datasets ship as a pair of CSV files (dirty and clean).  The
reader treats every cell as a string -- the paper's models operate on raw
character sequences, so no type inference is performed.  Empty cells are
read as the empty string, and a configurable set of markers (by default
``"NaN"`` stays literal, because in the benchmark data ``'NaN'`` is a
*value* the models must learn about, not a parser-level missing cell).
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from pathlib import Path

from repro.errors import CSVFormatError
from repro.table.table import Table


def read_csv(path: str | Path, missing_markers: Sequence[str] = (),
             encoding: str = "utf-8") -> Table:
    """Read a CSV file into a :class:`~repro.table.table.Table` of strings.

    Parameters
    ----------
    path:
        File to read.  The first row is the header.
    missing_markers:
        Cell contents converted to ``None`` on read.  Empty by default:
        benchmark datasets keep ``"NaN"``-style markers as literal values.
    encoding:
        File encoding.

    Raises
    ------
    CSVFormatError
        On an empty file, duplicate header names, ragged rows, or bytes
        that are not valid under ``encoding``.  (Decode failures must
        surface as CSVFormatError, not UnicodeDecodeError: the latter is
        a ValueError, which callers handling "bad input file" via
        OSError/DataError would miss.  For sniffed-encoding reading of
        real files use :func:`repro.io.read_file` instead.)
    """
    path = Path(path)
    markers = set(missing_markers)
    try:
        with path.open(newline="", encoding=encoding) as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CSVFormatError(f"{path}: file is empty") from None
            if len(set(header)) != len(header):
                raise CSVFormatError(
                    f"{path}: duplicate column names in header {header}")
            data: dict[str, list[str | None]] = {name: [] for name in header}
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CSVFormatError(
                        f"{path}:{line_no}: expected {len(header)} cells, "
                        f"got {len(row)}"
                    )
                for name, cell in zip(header, row):
                    data[name].append(None if cell in markers else cell)
    except UnicodeDecodeError as exc:
        raise CSVFormatError(
            f"{path}: not valid {encoding} (byte offset {exc.start}); "
            f"try 'repro detect' / repro.io.read_file, which sniff the "
            f"encoding") from exc
    return Table(data)


def write_csv(table: Table, path: str | Path, missing_marker: str = "",
              encoding: str = "utf-8") -> None:
    """Write a table to CSV.  ``None`` cells are written as ``missing_marker``."""
    path = Path(path)
    with path.open("w", newline="", encoding=encoding) as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(zip(*(
            [missing_marker if cell is None else str(cell)
             for cell in table.column(name).values]
            for name in table.column_names)))
