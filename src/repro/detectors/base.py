"""The uniform detector protocol every registered family implements.

A :class:`Detector` is the composition unit of the registry
(:mod:`repro.detectors.registry`): anything that can be fitted on a
(dirty, clean) pair under the paper's labelled-tuples protocol and then
score every cell of a table with an error probability.  The contract --
shapes, probability range, determinism, invariances -- is enforced for
every registered family by the conformance suite
(``tests/detectors/test_conformance.py``); a new family gets the checks
by registering alone.
"""

from __future__ import annotations

import abc
import hashlib
import json

import numpy as np

from repro.datasets.base import DatasetPair
from repro.table import Table

#: A detector whose cell score depends only on the cell's own content
#: and attribute: scores are invariant under row subsetting and
#: permutation (checked bitwise by the conformance suite).
POINTWISE = "pointwise"

#: A detector whose scores are tied to the table it was fitted on
#: (e.g. Raha's strategy-verdict clustering); it can only score that
#: table, and subset/permutation invariance is not required.
TRANSDUCTIVE = "transductive"

CAPABILITIES = (POINTWISE, TRANSDUCTIVE)


class Detector(abc.ABC):
    """Base class for registry detectors.

    Subclasses define ``name`` (the registry key), ``capabilities`` (a
    frozenset of the module-level capability strings -- exactly one of
    :data:`POINTWISE` / :data:`TRANSDUCTIVE`), and the abstract methods.
    Construction from keyword arguments must equal construction from
    :meth:`config`, i.e. ``type(d)(**d.config())`` builds an equivalent
    unfitted detector -- that identity is what lets ensemble members be
    rebuilt in worker processes.
    """

    #: Registry key; set by subclasses.
    name: str = ""

    #: Capability strings; set by subclasses.
    capabilities: frozenset[str] = frozenset()

    #: Labelled budget when ``fit`` runs its own sampler; set by
    #: subclasses' constructors.
    n_label_tuples: int = 20

    #: The tuple ids the last ``fit`` labelled (pinned or self-sampled),
    #: as ints; ``None`` until fitted.
    labeled_rows: tuple[int, ...] | None = None

    # -- fitting ------------------------------------------------------------

    @abc.abstractmethod
    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "Detector":
        """Fit under the labelled-tuples protocol.

        ``labeled_rows`` pins the labelled tuple ids (position indices
        into the pair's rows); ``None`` lets the detector run its own
        sampler.  Only those tuples' ground-truth labels may be used.
        Records the ids it labelled in :attr:`labeled_rows`.  Returns
        ``self``.
        """

    # -- scoring ------------------------------------------------------------

    @abc.abstractmethod
    def score_cells(self, table: Table) -> np.ndarray:
        """Per-cell error probabilities, ``(n_rows, n_attributes)`` in [0, 1].

        Transductive detectors accept only the table they were fitted
        on; pointwise detectors accept any table with the fitted columns.
        """

    def predict_cells(self, table: Table, threshold: float = 0.5) -> np.ndarray:
        """Binary error mask derived from :meth:`score_cells`."""
        return (self.score_cells(table) >= threshold).astype(np.int64)

    # -- identity -----------------------------------------------------------

    @abc.abstractmethod
    def config(self) -> dict:
        """JSON-serialisable constructor kwargs (see the class docstring)."""

    def _state_digest(self) -> str | None:
        """Hexdigest of the fitted state; ``None`` while unfitted."""
        return None

    def fingerprint(self) -> str:
        """Stable identity of family + configuration + fitted state.

        Orders ensemble members deterministically.  Prediction-cache
        keys use :func:`repro.inference.model_fingerprint` instead.
        """
        payload = {"name": self.name, "config": self.config(),
                   "state": self._state_digest()}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- conformance hook ---------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def example(cls, seed: int = 0) -> "Detector":
        """A small, fast instance for the conformance suite.

        Must be deterministic in ``seed`` and cheap enough to fit on a
        40-row pair in a test.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
