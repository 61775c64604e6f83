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

from repro import telemetry
from repro.dataprep.pipeline import PreparedData, first_occurrence_ids
from repro.sampling.base import Sampler


class DiverSet(Sampler):
    """The paper's Algorithm 3."""

    name = "DiverSet"

    @telemetry.spanned("sampling.select")
    def select(self, n_obs: int, prepared: PreparedData,
               rng: np.random.Generator) -> list[int]:
        available = self._validate(n_obs, prepared)
        # Tuple t holds cells t * m .. t * m + m - 1 (the cell order).
        m, n_tuples = len(prepared.attributes), prepared.n_tuples
        cell_tuple = np.arange(prepared.labels.size) // m
        # Concat values by code, from the prepared cell keys: each key's
        # ``attribute__value`` string is built once, and cell i has concat
        # codes[i] and is empty where its value is.
        keys = prepared.keys
        concat_of_key, concats = first_occurrence_ids(
            [f"{attribute}__{value}"
             for attribute, value in zip(keys.attributes, keys.values)])
        codes = concat_of_key[keys.codes]
        empty = np.array([not value for value in keys.values],
                         dtype=bool)[keys.codes]
        seen = np.zeros(len(concats), dtype=bool)
        # Each tuple's unseen and unseen-empty cell counts, kept up to
        # date: marking a concat seen removes its cells, found through
        # the cells grouped by code, from their tuples' counts.
        n_unseen = np.bincount(cell_tuple, minlength=n_tuples)
        n_empty = np.bincount(cell_tuple[empty], minlength=n_tuples)
        by_code, code_start = _grouped(codes, len(concats))

        selected: list[int] = []
        for _ in range(n_obs):
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
                chosen = int(ties[int(rng.integers(len(ties)))])
            selected.append(chosen)
            chosen_codes = codes[chosen * m:(chosen + 1) * m].tolist()
            new = [k for k in dict.fromkeys(chosen_codes) if not seen[k]]
            seen[new] = True
            gone = np.concatenate(
                [by_code[code_start[k]:code_start[k + 1]] for k in new]
                or [np.empty(0, dtype=np.int64)])
            n_unseen -= np.bincount(cell_tuple[gone], minlength=n_tuples)
            n_empty -= np.bincount(cell_tuple[gone[empty[gone]]],
                                   minlength=n_tuples)
        return selected


def _grouped(groups: np.ndarray, n_groups: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices ordered by group, and where each group starts: group
    ``g``'s cells are ``order[start[g]:start[g + 1]]``."""
    order = np.argsort(groups, kind="stable")
    start = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=n_groups), out=start[1:])
    return order, start
