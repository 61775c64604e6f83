"""PAT-style pattern-perceptive self-attention encoder (the ``"attn"`` family).

A third registered architecture next to TSB-RNN / ETSB-RNN: instead of a
recurrence over the character sequence, every position attends to every
other through a single scaled-dot-product self-attention layer whose
input embedding is the sum of a character embedding, a character-pattern
embedding (digit / lower / upper / space / punctuation -- the signal the
PAT line of work exploits for format errors) and a learned position
embedding.  The attended context is mean-pooled into one vector per
cell, then joined with the ETSB-style attribute and length branches and
fed through the same dense -> batch-norm -> softmax head.

The attention and fused-embedding kernels live in
:mod:`repro.nn.attention`; both compute backends produce bit-identical
forwards and the kernels keep the dedup engine's batch-composition
invariance (see that module's docstring).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.nn import BatchNorm1d, Dense, Embedding
from repro.nn.attention import (
    N_PATTERN_CLASSES,
    attention_pool,
    effective_lengths,
    pattern_embed,
)
from repro.nn.backend import get_backend
from repro.nn.init import glorot_uniform
from repro.nn.kernels import dense_softmax_bce
from repro.nn.losses import categorical_cross_entropy, one_hot
from repro.nn.module import Module, Parameter


class PatternAttentionEncoder(Module):
    """Single-layer self-attention cell classifier.

    Parameters
    ----------
    char_vocab_size:
        Character dictionary size including the pad slot.
    attr_vocab_size:
        Attribute dictionary size including the pad slot.
    pattern_classes:
        Per-character-index pattern class table from
        :func:`repro.nn.attention.pattern_table` -- length
        ``char_vocab_size``, derived from the character dictionary (so a
        restored archive rebuilds it identically).
    max_length:
        Maximum padded sequence width; sizes the position table.
    config:
        Architecture widths (``char_embed_dim``, ``attn_dim``,
        ``attr_embed_dim``, ``attr_units``, ``length_dense_units``,
        ``head_units``).
    rng:
        Random generator for weight initialization.
    """

    def __init__(self, char_vocab_size: int, attr_vocab_size: int,
                 pattern_classes: np.ndarray, max_length: int,
                 config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        pattern_classes = np.asarray(pattern_classes, dtype=np.int64)
        if pattern_classes.shape != (char_vocab_size,):
            raise ConfigurationError(
                f"pattern_classes must have shape ({char_vocab_size},), "
                f"got {pattern_classes.shape}")
        self.config = config
        self.max_length = max(int(max_length), 1)
        # Derived from the dictionary, not trained: a plain array, so it
        # stays out of the state dict and archives rebuild it from chars.
        self.pattern_classes = pattern_classes
        self.embedding = Embedding(char_vocab_size, config.char_embed_dim, rng)
        self.pattern_embedding = Embedding(N_PATTERN_CLASSES,
                                           config.char_embed_dim, rng,
                                           mask_zero=False)
        self.position_embedding = Embedding(self.max_length,
                                            config.char_embed_dim, rng,
                                            mask_zero=False)
        self.wq = Parameter(glorot_uniform(
            rng, (config.char_embed_dim, config.attn_dim)), name="attn.wq")
        self.wk = Parameter(glorot_uniform(
            rng, (config.char_embed_dim, config.attn_dim)), name="attn.wk")
        self.wv = Parameter(glorot_uniform(
            rng, (config.char_embed_dim, config.attn_dim)), name="attn.wv")
        self.scale = 1.0 / float(np.sqrt(config.attn_dim))
        # Attribute branch: embedding + dense (no recurrence needed for a
        # length-1 "sequence").  Length branch mirrors ETSB-RNN.
        self.attr_embedding = Embedding(attr_vocab_size, config.attr_embed_dim,
                                        rng, mask_zero=False)
        self.attr_dense = Dense(config.attr_embed_dim, config.attr_units, rng,
                                activation="relu")
        self.length_dense = Dense(1, config.length_dense_units, rng,
                                  activation="relu")
        combined = (config.attn_dim + config.attr_units
                    + config.length_dense_units)
        self.head = Dense(combined, config.head_units, rng, activation="relu")
        self.norm = BatchNorm1d(config.head_units)
        self.classifier = Dense(config.head_units, 2, rng, activation="softmax")

    def _encode(self, features: dict[str, np.ndarray]) -> Tensor:
        """The shared trunk: all three branches up to (excluding) the classifier."""
        for key in ("values", "attributes", "length_norm"):
            if key not in features:
                raise ConfigurationError(
                    f"PatternAttentionEncoder requires a {key!r} feature")
        values = np.asarray(features["values"], dtype=np.int64)
        lengths = effective_lengths(values)
        embedded = pattern_embed(self.embedding.weights,
                                 self.pattern_embedding.weights,
                                 self.position_embedding.weights,
                                 values, self.pattern_classes[values])
        pooled = attention_pool(embedded, self.wq, self.wk, self.wv,
                                lengths, self.scale)

        attr_indices = np.asarray(features["attributes"],
                                  dtype=np.int64).reshape(-1)
        attr_encoded = self.attr_dense(self.attr_embedding(attr_indices))

        length = Tensor(np.asarray(features["length_norm"], dtype=np.float64))
        length_encoded = self.length_dense(length)

        combined = concat([pooled, attr_encoded, length_encoded], axis=-1)
        return self.norm(self.head(combined))

    def forward(self, features: dict[str, np.ndarray]) -> Tensor:
        """Classify each cell; returns ``(batch, 2)`` softmax probabilities.

        Takes the same encoded-feature dict as the RNN families:
        ``values`` ``(batch, max_length)``, ``attributes`` ``(batch,)``,
        ``length_norm`` ``(batch, 1)``.
        """
        return self.classifier(self._encode(features))

    def training_loss(self, features: dict[str, np.ndarray],
                      labels: np.ndarray) -> Tensor:
        """Binary cross-entropy of the two-way softmax head.

        Dispatches on the active backend exactly like
        :meth:`repro.models.etsb_rnn.ETSBRNN.training_loss`.
        """
        hidden = self._encode(features)
        targets = one_hot(np.asarray(labels), 2)
        if get_backend() == "fused":
            return dense_softmax_bce(hidden, self.classifier.kernel,
                                     self.classifier.bias, targets)
        return categorical_cross_entropy(self.classifier(hidden), targets)
