"""The paper's data-preparation pipeline (Section 4.1, Figure 3).

Transforms a (dirty, clean) pair of wide tables into labelled cells,
then encodes values and attribute metadata as padded integer sequences
for the neural networks:

1. **Structure transformation** -- strip leading whitespace, number the
   tuples, align the dirty table's column names to the clean table's.
2. **Merge** -- the paper melts both tables to one row per cell and
   joins them on ``(id_, attribute)``.  Here cell ``k`` of an ``n`` x
   ``m`` table is tuple ``k // m``, attribute ``k % m`` by construction,
   so :class:`PreparedData` keeps only what the later steps read: each
   cell's binary ``label`` and the key of its dirty text
   (:meth:`PreparedData.cell_texts`).
3. **Dictionary generation** -- build the character dictionary
   (index 0 reserved for padding) and the attribute dictionary.
4. **Encoding** -- convert each distinct cell once to a zero-padded
   index sequence plus the attribute index and normalised length, and
   scatter it to its cells; scoring encodes new cells the same way.
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
