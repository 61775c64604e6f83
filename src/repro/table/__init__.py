"""A small column-oriented relational table engine.

The paper's code keeps its tables in pandas dataframes.  The execution
environment has no pandas, so this subpackage implements the small
substitute the repository needs:

* :class:`~repro.table.column.Column` -- an immutable named sequence of cell
  values with vectorised helpers,
* :class:`~repro.table.table.Table` -- an ordered collection of equal-length
  columns with selection, filtering, sorting, de-duplication and a
  long-to-wide pivot,
* :mod:`~repro.table.io` -- CSV reading and writing on top of :mod:`csv`,
* :mod:`~repro.table.keys` -- candidate-key and functional-dependency
  discovery (used by the Raha-style baseline and the paper's future-work
  extensions).
"""

from repro.table.column import Column
from repro.table.io import read_csv, write_csv
from repro.table.keys import discover_candidate_keys, discover_functional_dependencies
from repro.table.table import Table

__all__ = [
    "Column",
    "Table",
    "read_csv",
    "write_csv",
    "discover_candidate_keys",
    "discover_functional_dependencies",
]
