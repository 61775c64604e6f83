"""Algorithm 2 (RahaSet): cluster-diverse sampling following Raha.

Runs the Raha-style pipeline (strategies -> features -> per-column
clustering) on the dirty values and greedily samples tuples whose cells
cover the largest number of still-unlabelled clusters.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.raha import RahaDetector
from repro.dataprep.pipeline import PreparedData
from repro.sampling.base import Sampler
from repro.table import Table


def dirty_wide_view(prepared: PreparedData) -> Table:
    """The wide table of prepared dirty texts: one row per tuple, in
    original attribute order.

    The sampler must only see the dirty side; column ``j`` holds cells
    ``j, j + m, j + 2m, ...``.
    """
    m = len(prepared.attributes)
    return Table({name: prepared.cell_texts(slice(j, None, m))
                  for j, name in enumerate(prepared.attributes)})


class RahaSet(Sampler):
    """The paper's Algorithm 2, built on :class:`RahaDetector`.

    Parameters
    ----------
    clusters_per_label:
        Passed through to the detector; controls clustering granularity.
    """

    name = "RahaSet"

    def __init__(self, clusters_per_label: int = 2):
        self.clusters_per_label = clusters_per_label

    def select(self, n_obs: int, prepared: PreparedData,
               rng: np.random.Generator) -> list[int]:
        available = self._validate(n_obs, prepared)
        dirty = dirty_wide_view(prepared)
        detector = RahaDetector(clusters_per_label=self.clusters_per_label, rng=rng)
        detector.analyze(dirty, n_labels=n_obs)
        rows = detector.sample_tuples(n_obs)
        return [available[row] for row in rows]
