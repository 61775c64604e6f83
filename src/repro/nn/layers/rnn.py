"""Recurrent layers: the paper's core building block.

Implements exactly the recurrences of Section 3.2:

.. math::

    z_t^{a1} &= W_x^{a1} x_t + W_h^{a1} h_{t-1}^{a1} + b_h^{a1}   \\
    h_t^{a1} &= \\tanh(z_t^{a1})                                   \\
    z_t^{a2} &= W_x^{a2} h_t^{a1} + W_h^{a2} h_{t-1}^{a2} + b_h^{a2} \\
    h_t^{a2} &= \\tanh(z_t^{a2})

:class:`StackedRNN` chains :class:`RNNCell` levels (two for the paper's
models); :class:`BidirectionalRNN` runs a forward and a backward stack and
concatenates their final hidden states, matching Figure 5.

Padded steps (index 0 from the data-preparation pipeline) are skipped via
a boolean mask: on a padded step the hidden state is carried over
unchanged, so the final state is the state after the last real character.

Each level runs on the backend selected by :mod:`repro.nn.backend`: the
default ``"fused"`` backend computes a whole level as one autograd node
(:mod:`repro.nn.kernels`), while ``"graph"`` builds the reference
step-by-step graph from primitive ops.  Both yield bit-for-bit identical
forward values.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.autograd import Tensor, concat, no_grad, stack, tanh, where
from repro.errors import ConfigurationError
from repro.inference.index import build_dedup_index, byte_order
from repro.nn import kernels
from repro.nn.backend import get_backend
from repro.nn.init import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter


class RNNCell(Module):
    """A single tanh recurrence level (Eq. 1-2 of the paper).

    Parameters
    ----------
    input_dim:
        Width of the per-step input vector ``x_t``.
    units:
        Width of the hidden state ``h_t``.
    rng:
        Random generator; the input kernel is Glorot-initialised, the
        recurrent kernel orthogonal.
    """

    #: Width multiplier of the state tensor (plain RNN state is just h).
    state_multiplier = 1

    #: Fused whole-level kernel on packed sequences (see
    #: :meth:`StackedRNN._run_packed`).
    level_function = kernels.RNNLevelFunction

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator):
        super().__init__()
        if input_dim < 1 or units < 1:
            raise ConfigurationError(
                f"input_dim and units must be >= 1, got {input_dim}, {units}"
            )
        self.input_dim = input_dim
        self.units = units
        self.w_x = Parameter(glorot_uniform(rng, (input_dim, units)), name="rnn.w_x")
        self.w_h = Parameter(orthogonal(rng, (units, units)), name="rnn.w_h")
        self.b_h = Parameter(zeros((units,)), name="rnn.b_h")

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        """One recurrence step: ``tanh(x_t W_x + h_prev W_h + b_h)``."""
        return tanh(x_t @ self.w_x + h_prev @ self.w_h + self.b_h)

    def step_projected(self, proj_t: Tensor, h_prev: Tensor) -> Tensor:
        """Recurrence step with the input projection precomputed.

        ``proj_t`` must equal ``x_t W_x + b_h``; batching that projection
        over all time steps at once is much cheaper than a per-step
        matmul.
        """
        return tanh(proj_t + h_prev @ self.w_h)

    def initial_state(self, batch_size: int) -> Tensor:
        """The all-zeros initial hidden state."""
        return Tensor(np.zeros((batch_size, self.units)))

    def output(self, state: Tensor) -> Tensor:
        """The externally visible output (the state itself for plain RNNs)."""
        return state


#: Cell families usable in the stacked/bidirectional wrappers.
CELL_TYPES = ("rnn", "lstm", "gru")


def make_cell(cell_type: str, input_dim: int, units: int,
              rng: np.random.Generator) -> Module:
    """Instantiate a recurrence cell by family name.

    ``"rnn"`` is the paper's tanh recurrence; ``"lstm"`` and ``"gru"``
    enable the complexity comparison of the related-work section.
    """
    if cell_type == "rnn":
        return RNNCell(input_dim, units, rng)
    if cell_type == "lstm":
        from repro.nn.layers.gated import LSTMCell
        return LSTMCell(input_dim, units, rng)
    if cell_type == "gru":
        from repro.nn.layers.gated import GRUCell
        return GRUCell(input_dim, units, rng)
    raise ConfigurationError(
        f"cell_type must be one of {CELL_TYPES}, got {cell_type!r}"
    )


class StackedRNN(Module):
    """A stack of :class:`RNNCell` levels run over a time dimension.

    With ``num_layers=2`` this is the paper's "two-stacked" RNN: level a2
    receives level a1's hidden sequence as its input (Eq. 3-4).

    Parameters
    ----------
    input_dim:
        Width of each input step.
    units:
        Hidden width of every level.
    rng:
        Random generator for the cells.
    num_layers:
        Stack depth (the paper uses 2).
    reverse:
        Process the sequence from last step to first (the backward
        direction of a bidirectional RNN).
    cell_type:
        ``"rnn"`` (the paper), ``"lstm"`` or ``"gru"``.
    """

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator,
                 num_layers: int = 2, reverse: bool = False,
                 cell_type: str = "rnn"):
        super().__init__()
        if num_layers < 1:
            raise ConfigurationError(f"num_layers must be >= 1, got {num_layers}")
        self.input_dim = input_dim
        self.units = units
        self.num_layers = num_layers
        self.reverse = reverse
        self.cell_type = cell_type
        self.cells = [
            make_cell(cell_type, input_dim if level == 0 else units, units, rng)
            for level in range(num_layers)
        ]

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Run the stack over ``x`` and return the top level's final state.

        Parameters
        ----------
        x:
            Input of shape ``(batch, time, input_dim)``.
        mask:
            Optional boolean array ``(batch, time)``; ``False`` marks
            padding, on which every level carries its state unchanged.

        Returns
        -------
        Tensor
            Final hidden state of the top level, ``(batch, units)``.
        """
        final, _ = self.run(x, mask=mask, collect_outputs=False)
        return final

    def run(self, x: Tensor, mask: np.ndarray | None = None,
            collect_outputs: bool = True) -> tuple[Tensor, list[Tensor]]:
        """Run the stack; return ``(final_state, per_step_top_states)``.

        ``per_step_top_states`` is ordered by the original time axis even
        when ``reverse`` is set, so callers can align forward and backward
        sequences step by step.  Pass ``collect_outputs=False`` when only
        the final state is needed (the common path used by
        :meth:`forward`): the per-step list is skipped and an empty list
        is returned in its place.
        """
        self._validate(x, mask)
        if get_backend() == "fused":
            plan = kernels.SequencePlan(mask, x.shape[:2])
            return self._run_packed(plan.pack(x), plan, collect_outputs)
        return self._run_graph(x, mask, collect_outputs)

    def _validate(self, x: Tensor, mask: np.ndarray | None) -> None:
        """Reject an input or mask that does not fit this stack."""
        if x.ndim != 3:
            raise ConfigurationError(f"StackedRNN expects (batch, time, dim), got {x.shape}")
        batch_size, n_steps, input_dim = x.shape
        if input_dim != self.input_dim:
            raise ConfigurationError(
                f"StackedRNN expected input dim {self.input_dim}, got {input_dim}"
            )
        if mask is not None and mask.shape != (batch_size, n_steps):
            raise ConfigurationError(
                f"mask shape {mask.shape} does not match input {(batch_size, n_steps)}"
            )

    def _run_packed(self, packed: Tensor, plan: kernels.SequencePlan,
                    collect_outputs: bool = False
                    ) -> tuple[Tensor, list[Tensor]]:
        """Fused backend: one autograd node per level on a packed sequence.

        ``packed`` is the input in ``plan``'s layout
        (:class:`~repro.nn.kernels.SequencePlan`).  Every level runs on
        packed arrays, and each row's final state is gathered from its
        last live step (step 0 in reverse).  The plan needs right
        padding; the graph backend accepts any mask.
        """
        sequence = packed
        for cell in self.cells:
            sequence = cell.level_function.apply(
                sequence, cell.w_x, cell.w_h, cell.b_h, plan, self.reverse)
        final = plan.final_states(sequence, self.reverse)
        outputs: list[Tensor] = []
        if collect_outputs:
            steps = plan.unpack(sequence, self.reverse)
            outputs = [steps[:, t, :] for t in range(plan.n_steps)]
        return final, outputs

    def _run_graph(self, x: Tensor, mask: np.ndarray | None,
                   collect_outputs: bool) -> tuple[Tensor, list[Tensor]]:
        """Reference implementation: one graph node per step per level."""
        batch_size, n_steps, _ = x.shape
        # Pre-classify every step once: fully padded steps are skipped,
        # fully live steps avoid the carry-over select.  The trailing
        # block of steps that is padding for *every* row (right-padded
        # batches whose longest value is short) is trimmed off wholesale:
        # each level loops only over the effective width, and the tail
        # states are reconstructed analytically (carried final state
        # forward, untouched initial state in reverse); the fused
        # kernels, which run packed sequences, never visit them either.
        if mask is None:
            any_live = [True] * n_steps
            all_live = [True] * n_steps
            width = n_steps
        else:
            any_live = mask.any(axis=0).tolist()
            all_live = mask.all(axis=0).tolist()
            width = n_steps
            while width > 1 and not any_live[width - 1]:
                width -= 1
        time_order = (range(width - 1, -1, -1) if self.reverse
                      else range(width))

        sequence = x if width == n_steps else x[:, :width, :]
        states: list[Tensor | None] = []
        initial = None
        # Per-level forward timers behind the REPRO_TELEMETRY switch (the
        # graph backward runs through the generic engine, so its cost is
        # recorded at whole-batch granularity by the training loop's
        # train.backward_seconds timer instead).
        tele = telemetry.enabled()
        for level, cell in enumerate(self.cells):
            level_started = time.perf_counter() if tele else 0.0
            # Batch the input projection over all time steps: one big
            # matmul instead of one per step.  Width-1 sequences use a
            # flat 2-d matmul: the batched (batch, 1, in) form runs one
            # BLAS GEMV per row, whose bits can differ from the m >= 2
            # GEMM path; the fused kernels' packed projection is one flat
            # GEMM as well, so the backends stay bit-identical.
            if width == 1:
                projected = sequence[:, 0, :] @ cell.w_x + cell.b_h
            else:
                projected = sequence @ cell.w_x + cell.b_h
            state = initial = cell.initial_state(batch_size)
            states = [None] * width
            for t in time_order:
                if not any_live[t]:
                    states[t] = state
                    continue
                proj_t = projected if width == 1 else projected[:, t, :]
                new_state = cell.step_projected(proj_t, state)
                if not all_live[t]:
                    new_state = where(mask[:, t:t + 1], new_state, state)
                state = new_state
                states[t] = state
            if level + 1 < self.num_layers:
                # The externally visible output is cell.output(state): for
                # LSTM that strips the internal cell state from the packing.
                sequence = stack([cell.output(s) for s in states], axis=1)
            if tele:
                telemetry.get_registry().timer(
                    f"graph.{self.cell_type}.level{level}.forward").observe(
                        time.perf_counter() - level_started)
        top = self.cells[-1]
        final_output = top.output(state)
        outputs: list[Tensor] = []
        if collect_outputs:
            outputs = [top.output(s) for s in states]
            if width < n_steps:
                # Dead-tail steps carry the final state (forward) or never
                # leave the initial state (reverse), exactly as the
                # full-width loop would produce.
                tail = (top.output(initial) if self.reverse else final_output)
                outputs.extend([tail] * (n_steps - width))
        return final_output, outputs


#: Live characters per :class:`~repro.nn.kernels.PrefixPlan` in
#: :meth:`BidirectionalRNN.distinct_final_states`.  A plan has at most one
#: node per character, so this bounds its node tables (a few MB at the
#: paper's widths, as a packed 256-row chunk of short values).
PLAN_CHARS = 8192


def _reversed_live(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's live codes in reverse order, right-padded with 0."""
    out = np.zeros_like(codes)
    # The distinct lengths, ascending (a plain np.unique would import
    # numpy.ma on first use).
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == length)
        out[rows, :length] = codes[rows, length - 1::-1]
    return out


class BidirectionalRNN(Module):
    """Forward and backward :class:`StackedRNN` with concatenated outputs.

    Matches the bidirectional architecture of Figure 5: the output is
    ``concat(final_forward, final_backward)`` of width ``2 * units``.
    """

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator,
                 num_layers: int = 2, cell_type: str = "rnn"):
        super().__init__()
        self.units = units
        self.forward_rnn = StackedRNN(input_dim, units, rng,
                                      num_layers=num_layers, reverse=False,
                                      cell_type=cell_type)
        self.backward_rnn = StackedRNN(input_dim, units, rng,
                                       num_layers=num_layers, reverse=True,
                                       cell_type=cell_type)

    @property
    def output_dim(self) -> int:
        """Width of the concatenated output (``2 * units``)."""
        return 2 * self.units

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Return ``(batch, 2 * units)``: forward ++ backward final states.

        With a padding mask, the forward direction's final state is the
        state after the last real character, and the backward direction's
        final state is the state after (reverse-reading) the first real
        character -- the same semantics as a masked Keras Bidirectional.
        """
        if get_backend() == "fused":
            # Both directions share one plan and one packing of the input.
            self.forward_rnn._validate(x, mask)
            plan = kernels.SequencePlan(mask, x.shape[:2])
            packed = plan.pack(x)
            finals = [rnn._run_packed(packed, plan)[0]
                      for rnn in (self.forward_rnn, self.backward_rnn)]
        else:
            finals = [self.forward_rnn(x, mask=mask),
                      self.backward_rnn(x, mask=mask)]
        return concat(finals, axis=-1)

    def distinct_final_states(self, embedding: Module, codes: np.ndarray,
                              lengths: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` of embedded character rows, evaluating each
        distinct row, prefix and suffix once (fused kernels, inference).

        ``codes`` are right-padded ``(rows, time)`` indices for
        ``embedding``, ``lengths`` their live lengths (see
        :func:`~repro.nn.kernels.live_lengths`).  Duplicate rows are
        evaluated once; each stack then runs over prefix plans
        (:class:`~repro.nn.kernels.PrefixPlan`) of about
        :data:`PLAN_CHARS` live characters of distinct rows, taken in
        :func:`~repro.inference.index.byte_order` so that one plan holds
        rows sharing prefixes (suffixes, for the reverse stack).  A node
        evaluates what the packed path evaluates at every position with
        that prefix, so the states are bit-identical to :meth:`forward`'s.

        Returns ``(states, inverse)``: row ``i``'s
        ``concat(final_forward, final_backward)`` is
        ``states[inverse[i]]``.
        """
        distinct = build_dedup_index({"values": codes})
        first = distinct.representatives
        codes, lengths = codes[first], lengths[first]
        states = np.empty((first.shape[0], 2 * self.units))
        directions = ((self.forward_rnn, codes, states[:, :self.units]),
                      (self.backward_rnn, _reversed_live(codes, lengths),
                       states[:, self.units:]))
        with no_grad():
            for rnn, rows, out in directions:
                order = byte_order(rows)
                # A plan per PLAN_CHARS characters, by where rows start.
                starts = np.cumsum(lengths[order]) - lengths[order]
                cuts = np.flatnonzero(np.diff(starts // PLAN_CHARS)) + 1
                for group in np.split(order, cuts):
                    plan = kernels.PrefixPlan(rows[group], lengths[group])
                    final, _ = rnn._run_packed(embedding(plan.codes), plan)
                    out[group] = final.data
        return states, distinct.inverse
