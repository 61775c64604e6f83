"""Algorithm 3 (DiverSet): the paper's novel diverse trainset selection.

Greedy selection of tuples that contribute the most *unseen* attribute
values.  Per iteration:

1. among the remaining (not-yet-seen) cell rows, count per tuple the
   number of unseen attribute values (``#unseenAttr``) and the number of
   empty values (``#empty``);
2. keep the tuples with maximal ``#unseenAttr``; among those, keep the
   ones with maximal ``#empty``; pick one uniformly at random;
3. add every ``concat`` value (``attribute__value``) of the chosen tuple
   to the seen set and delete all remaining rows whose ``concat`` is now
   seen.

If the remaining rows run out before ``n_obs`` tuples are chosen (every
attribute value already seen), the algorithm falls back to uniform random
selection among the not-yet-chosen tuples -- the paper's step 2 tie-break
generalised to the fully-exhausted case.
"""

from __future__ import annotations

import numpy as np

from repro.dataprep.pipeline import PreparedData
from repro.sampling.base import Sampler


class DiverSet(Sampler):
    """The paper's Algorithm 3."""

    name = "DiverSet"

    def select(self, n_obs: int, prepared: PreparedData,
               rng: np.random.Generator) -> list[int]:
        available = self._validate(n_obs, prepared)
        df = prepared.df
        n = df.n_rows
        # Tuples by position in first-occurrence order, concat values by
        # code: cell i belongs to tuple cell_tuple[i] and has concat
        # codes[i].
        ids = list(map(int, df.column("id_").values))
        tuples = list(dict.fromkeys(ids))
        position = {tid: i for i, tid in enumerate(tuples)}
        cell_tuple = np.fromiter(map(position.__getitem__, ids),
                                 dtype=np.int64, count=n)
        concats = df.column("concat").values
        code_of = {c: i for i, c in enumerate(dict.fromkeys(concats))}
        codes = np.fromiter(map(code_of.__getitem__, concats),
                            dtype=np.int64, count=n)
        empty = np.fromiter(map(int, df.column("empty").values),
                            dtype=np.int64, count=n)
        seen = np.zeros(len(code_of), dtype=bool)

        selected: list[int] = []
        for _ in range(n_obs):
            unseen = ~seen[codes]
            owners = cell_tuple[unseen]
            n_unseen = np.bincount(owners, minlength=len(tuples))
            n_empty = np.bincount(owners, weights=empty[unseen],
                                  minlength=len(tuples))
            # A chosen tuple's values are all seen, so it never
            # qualifies again; nor does any tuple fully covered.
            best = n_unseen > 0
            if not best.any():
                # All attribute values are already covered: fall back to
                # uniform random among the remaining tuples.
                remaining = [t for t in available if t not in selected]
                chosen = remaining[int(rng.integers(len(remaining)))]
            else:
                best &= n_unseen == n_unseen[best].max()
                best &= n_empty == n_empty[best].max()
                ties = np.flatnonzero(best)
                chosen = tuples[ties[int(rng.integers(len(ties)))]]
            selected.append(chosen)
            seen[codes[cell_tuple == position[chosen]]] = True
        return selected
