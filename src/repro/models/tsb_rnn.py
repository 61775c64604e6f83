"""TSB-RNN: the Two-Stacked Bidirectional RNN architecture (Section 4.3.1).

Character indices -> embedding -> two-stacked bidirectional tanh RNN
(64 units per direction) -> dense 32 ReLU -> batch norm -> dense 2
softmax.  The output is the probability distribution over
{correct, error} for one cell value.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.nn import BatchNorm1d, BidirectionalRNN, Dense, Embedding
from repro.nn.backend import get_backend
from repro.nn.kernels import dense_softmax_bce, live_lengths
from repro.nn.losses import categorical_cross_entropy, one_hot
from repro.nn.module import Module


class ValueBranch:
    """The character-level value branch of Figure 5: ``embedding`` ->
    two-stacked ``birnn``, shared by TSB-RNN and ETSB-RNN (which create
    both layers).

    ``value_states`` arguments let a caller supply this branch's output,
    as :meth:`distinct_value_states` computes it, instead of running it.
    """

    def _value_mask(self, indices: np.ndarray) -> np.ndarray | None:
        mask = self.embedding.padding_mask(indices)
        if mask is not None and not mask.any(axis=1).all():
            # Fully padded rows (empty cell values) would never update the
            # RNN state; give them one live step so the final state is the
            # learned response to "empty".
            mask = mask.copy()
            mask[~mask.any(axis=1), 0] = True
        return mask

    def _value_states(self, features: dict[str, np.ndarray],
                      value_states: np.ndarray | None) -> Tensor:
        if value_states is not None:
            return Tensor(value_states)
        indices = features["values"]
        return self.birnn(self.embedding(indices),
                          mask=self._value_mask(indices))

    @property
    def shares_values(self) -> bool:
        """Whether :meth:`distinct_value_states` runs here: it drives the
        fused level kernels, so only on the ``"fused"`` backend."""
        return get_backend() == "fused"

    def distinct_value_states(self, values: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """The branch's output for ``values`` rows, each distinct value,
        prefix and suffix evaluated once (fused backend, inference only).

        Returns ``(states, inverse)``; row ``i``'s output is
        ``states[inverse[i]]``, bit-identical to the packed forward's (see
        :meth:`~repro.nn.BidirectionalRNN.distinct_final_states`).
        """
        values = np.asarray(values)
        lengths = live_lengths(self._value_mask(values), values.shape)
        # The narrowest dtype that holds the codes: they are only grouped
        # and looked up, and narrow rows sort and compare faster.
        codes = values.astype(np.min_scalar_type(int(values.max())))
        return self.birnn.distinct_final_states(self.embedding, codes,
                                                lengths)


class TSBRNN(ValueBranch, Module):
    """The value-only architecture of Figure 5 (top part).

    Parameters
    ----------
    char_vocab_size:
        Character dictionary size including the pad slot.
    config:
        Architecture widths.
    rng:
        Random generator for weight initialization.
    """

    def __init__(self, char_vocab_size: int, config: ModelConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.embedding = Embedding(char_vocab_size, config.char_embed_dim, rng)
        self.birnn = BidirectionalRNN(config.char_embed_dim, config.value_units,
                                      rng, num_layers=config.num_layers,
                                      cell_type=config.cell_type)
        self.head = Dense(self.birnn.output_dim, config.head_units, rng,
                          activation="relu")
        self.norm = BatchNorm1d(config.head_units)
        self.classifier = Dense(config.head_units, 2, rng, activation="softmax")

    def _encode(self, features: dict[str, np.ndarray],
                value_states: np.ndarray | None = None) -> Tensor:
        """The shared trunk: everything up to (excluding) the classifier."""
        if "values" not in features:
            raise ConfigurationError("TSBRNN requires a 'values' feature")
        return self.norm(self.head(self._value_states(features, value_states)))

    def forward(self, features: dict[str, np.ndarray],
                value_states: np.ndarray | None = None) -> Tensor:
        """Classify each cell; returns ``(batch, 2)`` softmax probabilities.

        Parameters
        ----------
        features:
            Must contain ``values``: ``(batch, max_length)`` padded
            character indices.  Other keys are ignored, which lets the
            same feature dicts feed both architectures.
        value_states:
            The value branch's output for these rows, when the caller
            already has it (:meth:`ValueBranch.distinct_value_states`).
        """
        return self.classifier(self._encode(features, value_states))

    def training_loss(self, features: dict[str, np.ndarray],
                      labels: np.ndarray) -> Tensor:
        """Binary cross-entropy of the two-way softmax head (Section 5.2).

        On the ``"fused"`` backend the dense + softmax + BCE head runs as
        a single autograd node; the ``"graph"`` backend composes the same
        computation from primitive ops.  Values are identical.
        """
        hidden = self._encode(features)
        targets = one_hot(np.asarray(labels), 2)
        if get_backend() == "fused":
            return dense_softmax_bce(hidden, self.classifier.kernel,
                                     self.classifier.bias, targets)
        return categorical_cross_entropy(self.classifier(hidden), targets)
