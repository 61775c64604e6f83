"""Hyperparameter configuration for the paper's architectures.

Defaults follow Sections 4.3 and 5.2: 64-unit two-stacked bidirectional
value RNN, 8-unit attribute RNN, 64-wide length branch, 32-wide head,
120 epochs, RMSprop, batch size of a quarter of the trainset.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture widths (Figure 5).

    Attributes
    ----------
    char_embed_dim:
        Character embedding width.  The paper embeds into the dictionary
        dimension; a fixed 32 keeps cost stable across datasets whose
        alphabets range from 46 to 135 characters.
    value_units:
        Hidden width of the value BiRNN (64 in the paper).
    num_layers:
        Stack depth of every RNN (2 -- "two-stacked").
    attr_embed_dim, attr_units:
        Attribute embedding width and attribute BiRNN width (8).
    length_dense_units:
        Width of the length_norm dense branch (64).
    head_units:
        Width of the shared dense layer before batch norm (32).
    cell_type:
        Recurrence family: ``"rnn"`` (the paper's tanh RNN), ``"lstm"``
        or ``"gru"`` (the heavier alternatives of the related-work
        comparison; used by the cell-type ablation bench).
    attn_dim:
        Projection width of the pattern-perceptive self-attention
        encoder (the ``"attn"`` family); unused by the RNN families.
    """

    char_embed_dim: int = 32
    value_units: int = 64
    num_layers: int = 2
    attr_embed_dim: int = 8
    attr_units: int = 8
    length_dense_units: int = 64
    head_units: int = 32
    cell_type: str = "rnn"
    attn_dim: int = 32

    def __post_init__(self) -> None:
        for name in ("char_embed_dim", "value_units", "num_layers",
                     "attr_embed_dim", "attr_units", "length_dense_units",
                     "head_units", "attn_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.cell_type not in ("rnn", "lstm", "gru"):
            raise ConfigurationError(
                f"cell_type must be rnn, lstm or gru, got {self.cell_type!r}"
            )


@dataclass(frozen=True)
class TrainingConfig:
    """Training-loop settings (Section 5.2).

    Attributes
    ----------
    epochs:
        Number of training epochs (120 in the paper).
    batch_fraction:
        Batch size as a fraction of the trainset (the paper uses 1/4).
    learning_rate:
        RMSprop step size.
    max_grad_norm:
        Global-norm gradient clipping (``None`` disables).
    """

    epochs: int = 120
    batch_fraction: float = 0.25
    learning_rate: float = 0.001
    max_grad_norm: float | None = 5.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ConfigurationError(
                f"batch_fraction must be in (0, 1], got {self.batch_fraction}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )

    def batch_size(self, train_size: int) -> int:
        """Batch size for a given trainset size (at least 1)."""
        return max(int(train_size * self.batch_fraction), 1)


#: Fields of the retired length-bucketed batching that archives written
#: before its removal still carry in their ``training_config``.
RETIRED_TRAINING_KEYS = ("bucket_batches", "n_length_buckets", "bucket_edges")


def training_config_from_dict(data: Mapping[str, object]) -> TrainingConfig:
    """Rebuild a :class:`TrainingConfig` from its archived dict form.

    Drops exactly the :data:`RETIRED_TRAINING_KEYS`, so older archives
    keep loading; any other unknown key still raises ``TypeError``.
    """
    return TrainingConfig(**{key: value for key, value in data.items()
                             if key not in RETIRED_TRAINING_KEYS})
