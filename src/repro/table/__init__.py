"""A small column-oriented table type.

The paper's code keeps its tables in pandas dataframes.  The execution
environment has no pandas, and the data path works on per-column
arrays, so this subpackage holds only the container the repository
needs to carry wide tables between ingestion, CSV I/O, the dataset
generators and the renderers:

* :class:`~repro.table.column.Column` -- an immutable named sequence of
  cell values,
* :class:`~repro.table.table.Table` -- an ordered collection of
  equal-length columns, built from columns or rows and read by column,
  row or rendered preview,
* :mod:`~repro.table.io` -- CSV reading and writing on top of :mod:`csv`,
* :mod:`~repro.table.keys` -- functional-dependency discovery (used by
  the Raha-style baseline's rule-violation strategy).
"""

from repro.table.column import Column
from repro.table.io import read_csv, write_csv
from repro.table.keys import discover_functional_dependencies
from repro.table.table import Table

__all__ = [
    "Column",
    "Table",
    "read_csv",
    "write_csv",
    "discover_functional_dependencies",
]
