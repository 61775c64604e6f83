"""Neural-network layers, losses, optimizers and a training loop.

Built on :mod:`repro.autograd`, this subpackage provides everything the
paper's two architectures (Figure 5) are made of:

* layers: :class:`Embedding`, :class:`Dense`, :class:`RNNCell`,
  :class:`StackedRNN`, :class:`BidirectionalRNN`, :class:`BatchNorm1d`;
* the loss: categorical cross-entropy on a two-way softmax, which is
  Section 5.2's binary cross-entropy;
* the optimizer: :class:`RMSprop` (the paper's choice);
* a :class:`Trainer` with Keras-style callbacks, including
  :class:`BestWeightsCheckpoint`, which restores the weights from the
  epoch with the lowest training loss exactly as Section 5.2 describes;
* compute backends (:mod:`repro.nn.backend`): the default ``"fused"``
  backend runs each recurrence level as one autograd node
  (:mod:`repro.nn.kernels`), the ``"graph"`` backend is the per-step
  reference implementation.
"""

from repro.nn.backend import (
    BACKENDS,
    get_backend,
    reset_backend,
    set_backend,
    use_backend,
)
from repro.nn.callbacks import (
    BestWeightsCheckpoint,
    Callback,
    EpochEvaluator,
    History,
)
from repro.nn.init import glorot_uniform, orthogonal, uniform, zeros
from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.normalization import BatchNorm1d
from repro.nn.layers.gated import GRUCell, LSTMCell
from repro.nn.layers.rnn import (
    CELL_TYPES,
    BidirectionalRNN,
    RNNCell,
    StackedRNN,
    make_cell,
)
from repro.nn.losses import categorical_cross_entropy
from repro.nn.module import Module, Parameter
from repro.nn.optim import RMSprop, clip_gradients
from repro.nn.training import (
    Batch,
    Trainer,
    iterate_batches,
    predict_proba,
)

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "reset_backend",
    "use_backend",
    "Module",
    "Parameter",
    "Embedding",
    "Dense",
    "RNNCell",
    "LSTMCell",
    "GRUCell",
    "StackedRNN",
    "BidirectionalRNN",
    "CELL_TYPES",
    "make_cell",
    "BatchNorm1d",
    "categorical_cross_entropy",
    "RMSprop",
    "clip_gradients",
    "Callback",
    "History",
    "BestWeightsCheckpoint",
    "EpochEvaluator",
    "Trainer",
    "Batch",
    "iterate_batches",
    "predict_proba",
    "glorot_uniform",
    "orthogonal",
    "uniform",
    "zeros",
]
