"""Layer implementations for :mod:`repro.nn`."""

from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.normalization import BatchNorm1d
from repro.nn.layers.rnn import BidirectionalRNN, RNNCell, StackedRNN

__all__ = [
    "Dense",
    "Embedding",
    "BatchNorm1d",
    "BidirectionalRNN",
    "RNNCell",
    "StackedRNN",
]
