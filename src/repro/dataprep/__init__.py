"""The paper's data-preparation pipeline (Section 4.1, Figure 3).

Transforms a (dirty, clean) pair of wide tables into the long-format cell
table with labels, then encodes values and attribute metadata as padded
integer sequences for the neural networks:

1. **Structure transformation** -- strip leading whitespace, add the
   ``id_`` row number, align the dirty table's column names to the clean
   table's.
2. **Merge** -- one row per cell, the dirty and clean cells of each
   ``(id_, attribute)`` side by side: ``value_x`` (dirty), ``value_y``
   (clean), the binary ``label``, the ``empty`` flag, the ``concat``
   key used by DiverSet, and ``length_norm``.  The paper melts and
   joins; here cell ``k`` is tuple ``k // m``, attribute ``k % m`` by
   construction, so the long table is built column by column.
3. **Dictionary generation** -- build the character dictionary
   (index 0 reserved for padding) and the attribute dictionary.
4. **Encoding** -- convert each distinct cell once to a zero-padded
   index sequence plus the attribute index and normalised length, and
   scatter it to its rows; scoring encodes new cells the same way.
"""

from repro.dataprep.dictionaries import AttributeDictionary, CharDictionary
from repro.dataprep.encoding import EncodedCells, encode_cells
from repro.dataprep.pipeline import PreparedData, prepare
from repro.dataprep.splits import TrainTestSplit, split_by_tuple_ids

__all__ = [
    "CharDictionary",
    "AttributeDictionary",
    "PreparedData",
    "prepare",
    "EncodedCells",
    "encode_cells",
    "TrainTestSplit",
    "split_by_tuple_ids",
]
