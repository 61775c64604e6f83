"""The sampler interface shared by Algorithms 1-3."""

from __future__ import annotations

import numpy as np

from repro.dataprep.pipeline import PreparedData
from repro.errors import SamplingError


class Sampler:
    """Base class for trainset-selection algorithms.

    A sampler inspects only the *dirty* side of the prepared data (the
    paper is explicit that the clean values and labels must not be used)
    and returns the tuple ids the user should label.
    """

    #: Human-readable name used in experiment reports.
    name: str = "sampler"

    def select(self, n_obs: int, prepared: PreparedData,
               rng: np.random.Generator) -> list[int]:
        """Choose ``n_obs`` distinct tuple ids for labelling.

        Parameters
        ----------
        n_obs:
            Number of tuples to select (the paper uses 20).
        prepared:
            Output of the data-preparation pipeline.
        rng:
            Random generator controlling any stochastic tie-breaking.
        """
        raise NotImplementedError

    def _validate(self, n_obs: int, prepared: PreparedData) -> list[int]:
        """Common argument checks; returns the available tuple ids."""
        if n_obs < 1:
            raise SamplingError(f"n_obs must be >= 1, got {n_obs}")
        available = prepared.tuple_ids()
        if n_obs > len(available):
            raise SamplingError(
                f"cannot select {n_obs} tuples from a dataset with "
                f"{len(available)} tuples"
            )
        return available
