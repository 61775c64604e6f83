"""Fused forward+backward sequence kernels on packed sequences.

Each kernel runs a whole recurrence level -- the full time loop of
Eq. 1-4 -- in numpy inside a *single* autograd node (a
:class:`~repro.autograd.function.Function`), replacing the thousands of
per-step graph nodes the reference ``"graph"`` backend records.  The
backward passes are hand-derived backpropagation-through-time sweeps,
validated against finite differences and against the reference backend by
the test suite.

Packed layout: the kernels never see padding.  A :class:`SequencePlan`
sorts a batch's rows once by live length and lays the sequence out
time-major, so step ``t`` owns one contiguous block holding only the rows
still live at ``t`` (PyTorch's ``PackedSequence`` layout).  The input
projection, each step's ``h @ W_h``, the BPTT sweep and the weight
gradients therefore touch live (row, step) pairs only, while every
optimizer step still sees the batch it was given.

Numerical contract: every kernel evaluates the same numpy expressions as
the per-step graph implementation in :mod:`repro.nn.layers.rnn` /
:mod:`repro.nn.layers.gated`, on fewer rows.  A row's GEMM result does not
depend on how many other rows share the product as long as there are at
least two (a one-row product takes BLAS's GEMV path, which rounds
differently), so a per-step product with one live row is computed with a
duplicate row that is discarded.  Forward values are therefore bit-for-bit
identical across backends; gradients agree to float-accumulation order.

Kernels
-------
:class:`RNNLevelFunction`
    Whole-sequence tanh recurrence (the paper's Eq. 1-2).
:class:`LSTMLevelFunction` / :class:`GRULevelFunction`
    Gated counterparts for the cell-type ablation.
:func:`dense_softmax_bce`
    The classifier head fused with its loss: dense + softmax + binary
    (two-way categorical) cross-entropy in one node.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from repro import telemetry
from repro.autograd import Tensor
from repro.autograd.function import Function, FunctionCtx
from repro.errors import ShapeError

__all__ = [
    "SequencePlan",
    "RNNLevelFunction",
    "LSTMLevelFunction",
    "GRULevelFunction",
    "DenseSoftmaxBCEFunction",
    "dense_softmax_bce",
]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Mirrors repro.autograd.ops.sigmoid bit for bit (incl. the clamp).
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _instrumented(cls: type[Function]) -> type[Function]:
    """Per-kernel forward/backward wall-time timers.

    Behind the ``REPRO_TELEMETRY`` switch: with telemetry off each call
    pays a single cached boolean test before dispatching to the original
    static method, so the default path's speedup gates are unaffected.
    Timers are named ``kernel.<ClassName>.forward`` / ``.backward`` in
    the process registry.
    """
    inner_forward = cls.forward
    inner_backward = cls.backward
    forward_name = f"kernel.{cls.__name__}.forward"
    backward_name = f"kernel.{cls.__name__}.backward"

    def forward(ctx, *args, **kwargs):
        if not telemetry.enabled():
            return inner_forward(ctx, *args, **kwargs)
        started = time.perf_counter()
        out = inner_forward(ctx, *args, **kwargs)
        telemetry.get_registry().timer(forward_name).observe(
            time.perf_counter() - started)
        return out

    def backward(ctx, grad):
        if not telemetry.enabled():
            return inner_backward(ctx, grad)
        started = time.perf_counter()
        out = inner_backward(ctx, grad)
        telemetry.get_registry().timer(backward_name).observe(
            time.perf_counter() - started)
        return out

    forward.__doc__ = inner_forward.__doc__
    backward.__doc__ = inner_backward.__doc__
    cls.forward = staticmethod(forward)
    cls.backward = staticmethod(backward)
    return cls


class _ScratchPool(threading.local):
    """Per-thread, per-key scratch arrays reused across kernel calls.

    Fresh large allocations are page-fault bound on this workload, so the
    kernels stage their *call-local* intermediates (input projection, BPTT
    derivative tables, pre-activation gradients) in warm buffers instead.
    Each key owns one grow-only flat buffer and every request gets a view
    of its prefix, so the pool never holds more than the largest request
    per key, however many distinct packed lengths a process sees.
    An array from the pool is only valid until the next ``get`` with the
    same key *on the same thread*; nothing handed to the autograd graph
    (outputs, returned gradients, ``ctx`` state) may ever live here.
    Kernel calls never nest on a thread, so sequential reuse is safe, and
    each thread gets its own buffers -- the serving daemon's handler
    threads run forwards concurrently without aliasing.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        array = self._arrays.get(key)
        if array is None or array.size < size:
            array = np.empty(size)
            self._arrays[key] = array
        return array[:size].reshape(shape)


_scratch = _ScratchPool()


class _PackFunction(Function):
    """``(batch, time, dim)`` -> packed ``(n_packed, dim)`` by flat position."""

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray,
                source: np.ndarray) -> np.ndarray:
        ctx.shape, ctx.source = x.shape, source
        return np.take(x.reshape(-1, x.shape[-1]), source, axis=0)

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray) -> tuple[np.ndarray]:
        dx = np.zeros(ctx.shape)
        # Packed positions are distinct, so a plain scatter suffices.
        dx.reshape(-1, ctx.shape[-1])[ctx.source] = grad
        return (dx,)


class _UnpackFunction(Function):
    """Packed rows gathered by position; position ``-1`` reads the zero
    initial state."""

    @staticmethod
    def forward(ctx: FunctionCtx, packed: np.ndarray,
                index: np.ndarray) -> np.ndarray:
        live = index >= 0
        if live.all():
            out = np.take(packed, index, axis=0)
        else:
            out = np.zeros(index.shape + packed.shape[1:])
            out[live] = packed[index[live]]
        ctx.n_packed, ctx.index, ctx.live = packed.shape[0], index, live
        return out

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray) -> tuple[np.ndarray]:
        dpacked = np.zeros((ctx.n_packed, grad.shape[-1]))
        np.add.at(dpacked, ctx.index[ctx.live], grad[ctx.live])
        return (dpacked,)


class SequencePlan:
    """Packed, time-major layout of one right-padded ``(batch, time)`` batch.

    Rows are sorted once by live length, longest first (stable), and step
    ``t`` owns the contiguous block ``offsets[t]:offsets[t + 1]`` of the
    packed sequence, holding the sorted rows still live at ``t`` in sorted
    order.  Liveness is "length > t" in both directions, so one plan
    serves every level and both directions of a stack: a row's previous
    state in iteration order always sits in the first rows of the
    neighbouring block, and in reverse order the rows whose last live
    step is ``t`` start from the zero initial state.

    Parameters
    ----------
    mask:
        Boolean ``(batch, time)`` padding mask (``False`` marks padding),
        or ``None`` when every step is live.  Each row's live steps must
        be a prefix of the row -- the right padding every encoder
        produces -- otherwise :class:`ShapeError` is raised.
    shape:
        ``(batch, time)`` of the padded sequence.
    """

    def __init__(self, mask: np.ndarray | None, shape: tuple[int, int]):
        batch, n_steps = shape
        if mask is None:
            lengths = np.full(batch, n_steps, dtype=np.int64)
        else:
            if mask.shape != (batch, n_steps):
                raise ShapeError(
                    f"mask shape {mask.shape} does not match sequence "
                    f"{(batch, n_steps)}")
            lengths = mask.sum(axis=1)
            if not np.array_equal(mask, np.arange(n_steps) < lengths[:, None]):
                raise ShapeError(
                    "fused kernels need right-padded sequences: each row's "
                    "live steps must be a prefix of the row")
        order = np.argsort(-lengths, kind="stable")
        rank = np.empty(batch, dtype=np.int64)
        rank[order] = np.arange(batch)
        max_len = int(lengths.max()) if batch else 0
        counts = np.bincount(lengths, minlength=max_len + 1)
        sizes = batch - np.cumsum(counts)[:max_len]  # rows live at each step
        offsets = np.zeros(max_len + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n_packed = int(offsets[-1])
        steps = np.repeat(np.arange(max_len), sizes)
        ranks = np.arange(n_packed) - offsets[steps]

        self.batch, self.n_steps, self.n_packed = batch, n_steps, n_packed
        #: Rows of every per-step forward product: a one-row product in a
        #: batch of two or more takes a duplicate row (see module notes).
        self.min_rows = min(2, batch)
        self._source = order[ranks] * n_steps + steps
        self._lengths, self._rank, self._offsets = lengths, rank, offsets
        self._sizes, self._steps, self._ranks = sizes, steps, ranks
        self._prev: dict[bool, np.ndarray] = {}

        # Iteration schedule per direction: (block lo, block hi, prev lo,
        # prev hi), where ``prev`` holds the previous states of the
        # block's first rows; the remaining rows start from zeros.
        size, off = sizes.tolist(), offsets.tolist()
        forward = [(off[t], off[t + 1], off[t - 1], off[t - 1] + size[t])
                   for t in range(1, max_len)]
        backward = [(off[t], off[t + 1], off[t + 1], off[t + 1] + size[t + 1])
                    for t in range(max_len - 2, -1, -1)]
        if max_len:
            forward.insert(0, (0, off[1], 0, 0))
            backward.insert(0, (off[-2], off[-1], 0, 0))
        self._schedule = {False: forward, True: backward}

    def schedule(self, reverse: bool) -> list[tuple[int, int, int, int]]:
        """Per-step ``(lo, hi, prev_lo, prev_hi)`` in iteration order."""
        return self._schedule[reverse]

    def prev_index(self, reverse: bool) -> np.ndarray:
        """Packed position of each position's previous state, ``n_packed``
        where it is the zero initial state (built on first use: only the
        backward passes gather whole previous-state sequences)."""
        if reverse not in self._prev:
            steps, ranks, offsets = self._steps, self._ranks, self._offsets
            if reverse:
                has_prev = ranks < np.append(self._sizes, 0)[steps + 1]
                prev = offsets[steps + 1]
            else:
                has_prev = steps > 0
                prev = offsets[steps - 1]
            self._prev[reverse] = np.where(has_prev, prev + ranks,
                                           self.n_packed)
        return self._prev[reverse]

    def pack(self, x: Tensor) -> Tensor:
        """``(batch, time, dim)`` -> packed ``(n_packed, dim)``."""
        if x.shape[:2] != (self.batch, self.n_steps):
            raise ShapeError(
                f"sequence {x.shape} does not match plan "
                f"{(self.batch, self.n_steps)}")
        return _PackFunction.apply(x, self._source)

    def _position(self, step: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Packed position of each row at ``step``; ``-1`` where not live."""
        rank = self._rank if step.ndim < 2 else self._rank[:, None]
        return np.where(live, self._offsets[np.maximum(step, 0)] + rank, -1)

    def unpack(self, packed: Tensor, reverse: bool) -> Tensor:
        """Each row's state at every step, ``(batch, time, units)``.

        Padded steps carry the state as the masked loop does: the last
        live state forward, the zero initial state in reverse (where they
        come first).
        """
        steps = np.arange(self.n_steps)
        lengths = self._lengths[:, None]
        if reverse:
            live = steps < lengths
            at = np.where(live, steps, 0)
        else:
            live = lengths > 0
            at = np.minimum(steps, lengths - 1)
        return _UnpackFunction.apply(packed, self._position(at, live))

    def final_states(self, packed: Tensor, reverse: bool) -> Tensor:
        """Each row's final state ``(batch, units)``: after its last live
        step going forward, after step 0 in reverse."""
        last = np.zeros_like(self._lengths) if reverse else self._lengths - 1
        return _UnpackFunction.apply(
            packed, self._position(last, self._lengths > 0))


def _check_packed(x: np.ndarray, plan: SequencePlan) -> None:
    if x.ndim != 2 or x.shape[0] != plan.n_packed:
        raise ShapeError(
            f"level kernels expect a packed ({plan.n_packed}, dim) sequence, "
            f"got {x.shape}")


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
            min_rows: int) -> np.ndarray:
    """``a @ b`` into ``out``, on the GEMM path for fewer than ``min_rows``.

    A one-row product takes BLAS's GEMV path, whose rounding differs from
    the GEMM every wider batch uses; multiplying a duplicate row (and
    discarding it) keeps a row's bits independent of its company.
    """
    if 0 < a.shape[0] < min_rows:
        out[...] = (np.concatenate([a, a]) @ b)[:a.shape[0]]
        return out
    return np.matmul(a, b, out=out)


def _previous(seq: np.ndarray, lo: int, hi: int, n: int,
              buf: np.ndarray) -> np.ndarray:
    """A block's ``n`` previous states: ``seq[lo:hi]`` for its first rows,
    the zero initial state for the rest."""
    if hi - lo == n:
        return seq[lo:hi]
    prev = buf[:n]
    prev[:hi - lo] = seq[lo:hi]
    prev[hi - lo:] = 0.0
    return prev


def _projection(x: np.ndarray, w_x: np.ndarray, b_h: np.ndarray,
                plan: SequencePlan, key: str) -> np.ndarray:
    """``x @ w_x + b`` for every packed position, staged in scratch."""
    proj = _scratch.get(key, (x.shape[0], w_x.shape[-1]))
    _matmul(x, w_x, proj, plan.min_rows)
    proj += b_h
    return proj


def _states_with_initial(n_packed: int, units: int) -> np.ndarray:
    """State table with one extra zero row: position ``n_packed`` is the
    initial state that :meth:`SequencePlan.prev_index` points at."""
    states = np.empty((n_packed + 1, units))
    states[n_packed] = 0.0
    return states


def _previous_states(seq: np.ndarray, plan: SequencePlan, reverse: bool,
                     key: str) -> np.ndarray:
    """Every position's previous state (zeros where it is the initial
    state), gathered from a table made by :func:`_states_with_initial`."""
    return np.take(seq, plan.prev_index(reverse), axis=0,
                   out=_scratch.get(key, (plan.n_packed, seq.shape[1])))


def _recurrent_weight_grad(prev: np.ndarray, dproj: np.ndarray) -> np.ndarray:
    """``sum_t prev_t^T dproj_t`` as one GEMM instead of a matmul per step.

    The result lives in scratch: ``accumulate_grad`` copies (or adds) it
    into the parameter's grad buffer before the pool is touched again.
    """
    return np.matmul(prev.T, dproj,
                     out=_scratch.get("level.dw_h",
                                      (prev.shape[1], dproj.shape[1])))


def _input_grads(dproj: np.ndarray, x: np.ndarray, w_x: np.ndarray,
                 ctx: FunctionCtx) -> tuple[np.ndarray | None, ...]:
    """Shared tail of every level backward: grads through ``x @ w_x + b``.

    Like :func:`_recurrent_weight_grad`, the returned arrays are scratch:
    they are consumed synchronously by gradient accumulation.
    """
    if ctx.needs_input_grad[0]:
        dx = np.matmul(dproj, w_x.T,
                       out=_scratch.get("level.dx", x.shape))
    else:
        dx = None
    if ctx.needs_input_grad[1]:
        dw_x = np.matmul(x.T, dproj,
                         out=_scratch.get("level.dw_x",
                                          (x.shape[1], dproj.shape[1])))
    else:
        dw_x = None
    db = dproj.sum(axis=0) if ctx.needs_input_grad[3] else None
    return dx, dw_x, db


def _carried_grads(grad: np.ndarray, key: str) -> np.ndarray:
    """Per-position state gradients: the output's, with the recurrent
    carries added in as the BPTT sweep reaches each block."""
    dstates = _scratch.get(key, grad.shape)
    np.copyto(dstates, grad)
    return dstates


@_instrumented
class RNNLevelFunction(Function):
    """One stacked-RNN level: ``h_t = tanh(x_t W_x + h_{t-1} W_h + b)``.

    Forward input ``x`` is the packed ``(plan.n_packed, input_dim)``
    sequence; the output is every live position's state
    ``(plan.n_packed, units)`` in the same layout, whatever ``reverse``.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray, plan: SequencePlan,
                reverse: bool = False) -> np.ndarray:
        _check_packed(x, plan)
        n_packed, units = x.shape[0], w_h.shape[0]
        proj = _projection(x, w_x, b_h, plan, "rnn.proj")
        states = _states_with_initial(n_packed, units)
        prev_buf = _scratch.get("rnn.prev_rows", (plan.batch, units))
        for lo, hi, prev_lo, prev_hi in plan.schedule(reverse):
            block = states[lo:hi]
            h_prev = _previous(states, prev_lo, prev_hi, hi - lo, prev_buf)
            _matmul(h_prev, w_h, block, plan.min_rows)
            block += proj[lo:hi]
            np.tanh(block, out=block)

        ctx.x, ctx.w_x, ctx.w_h = x, w_x, w_h
        ctx.states, ctx.plan, ctx.reverse = states, plan, reverse
        return states[:n_packed]

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        states, plan, reverse = ctx.states, ctx.plan, ctx.reverse
        h = states[:-1]
        # tanh' over every position at once, staged in scratch.
        deriv = np.multiply(h, h, out=_scratch.get("rnn.deriv", h.shape))
        np.subtract(1.0, deriv, out=deriv)
        w_h_t = np.ascontiguousarray(ctx.w_h.T)
        dstates = _carried_grads(grad, "rnn.dstates")
        dproj = _scratch.get("rnn.dproj", h.shape)
        carry = _scratch.get("rnn.carry", (plan.batch, h.shape[1]))
        for lo, hi, prev_lo, prev_hi in reversed(plan.schedule(reverse)):
            dpre = np.multiply(dstates[lo:hi], deriv[lo:hi], out=dproj[lo:hi])
            k = prev_hi - prev_lo
            if k:  # rows that started from zeros pass no gradient back
                np.matmul(dpre[:k], w_h_t, out=carry[:k])
                dstates[prev_lo:prev_hi] += carry[:k]

        if ctx.needs_input_grad[2]:
            dw_h = _recurrent_weight_grad(
                _previous_states(states, plan, reverse, "rnn.hprev"), dproj)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx)
        return dx, dw_x, dw_h, db


@_instrumented
class LSTMLevelFunction(Function):
    """One LSTM level on a packed sequence; outputs the hidden states only.

    The cell state ``c`` stays internal to the kernel (mirroring
    ``LSTMCell.output``, which exposes just ``h``); its chain rule is
    handled inside the fused backward.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray, plan: SequencePlan,
                reverse: bool = False) -> np.ndarray:
        _check_packed(x, plan)
        n_packed, units = x.shape[0], w_h.shape[0]
        proj = _projection(x, w_x, b_h, plan, "lstm.proj")

        h_seq = _states_with_initial(n_packed, units)
        c_seq = _states_with_initial(n_packed, units)
        acts = np.empty((n_packed, 4 * units))   # i, f, g, o
        tanh_c = np.empty((n_packed, units))
        h_buf = _scratch.get("lstm.hprev_rows", (plan.batch, units))
        c_buf = _scratch.get("lstm.cprev_rows", (plan.batch, units))
        rec = _scratch.get("lstm.rec", (plan.batch, 4 * units))
        for lo, hi, prev_lo, prev_hi in plan.schedule(reverse):
            n = hi - lo
            h = _previous(h_seq, prev_lo, prev_hi, n, h_buf)
            c = _previous(c_seq, prev_lo, prev_hi, n, c_buf)
            gates = proj[lo:hi] + _matmul(h, w_h, rec[:n], plan.min_rows)
            i = _sigmoid(gates[:, :units])
            f = _sigmoid(gates[:, units:2 * units])
            g = np.tanh(gates[:, 2 * units:3 * units])
            o = _sigmoid(gates[:, 3 * units:])
            c_seq[lo:hi] = f * c + i * g
            tc = np.tanh(c_seq[lo:hi], out=tanh_c[lo:hi])
            np.multiply(o, tc, out=h_seq[lo:hi])
            acts[lo:hi, :units] = i
            acts[lo:hi, units:2 * units] = f
            acts[lo:hi, 2 * units:3 * units] = g
            acts[lo:hi, 3 * units:] = o

        ctx.x, ctx.w_x, ctx.w_h = x, w_x, w_h
        ctx.h_seq, ctx.c_seq, ctx.acts, ctx.tanh_c = h_seq, c_seq, acts, tanh_c
        ctx.plan, ctx.reverse = plan, reverse
        return h_seq[:n_packed]

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        h_seq, c_seq, acts, tanh_c = ctx.h_seq, ctx.c_seq, ctx.acts, ctx.tanh_c
        plan, reverse = ctx.plan, ctx.reverse
        units = tanh_c.shape[1]

        # Whole-sequence precomputation: sigmoid'/tanh' factors and the
        # previous cell states (big vectorized ops beat per-step ones),
        # all staged in warm scratch buffers.
        sig_deriv = _scratch.get("lstm.sigd", acts.shape)
        np.subtract(1.0, acts, out=sig_deriv)
        np.multiply(acts, sig_deriv, out=sig_deriv)  # i, f, o slices valid
        g_all = acts[:, 2 * units:3 * units]
        g_deriv = _scratch.get("lstm.gd", g_all.shape)
        np.multiply(g_all, g_all, out=g_deriv)
        np.subtract(1.0, g_deriv, out=g_deriv)
        tc_deriv = _scratch.get("lstm.tcd", tanh_c.shape)
        np.multiply(tanh_c, tanh_c, out=tc_deriv)
        np.subtract(1.0, tc_deriv, out=tc_deriv)
        c_prev_seq = _previous_states(c_seq, plan, reverse, "lstm.cprev")
        w_h_t = np.ascontiguousarray(ctx.w_h.T)

        dproj = _scratch.get("lstm.dproj", acts.shape)
        dstates = _carried_grads(grad, "lstm.dstates")
        dcells = _scratch.get("lstm.dcells", tanh_c.shape)
        dcells.fill(0.0)
        for lo, hi, prev_lo, prev_hi in reversed(plan.schedule(reverse)):
            dh, dc = dstates[lo:hi], dcells[lo:hi]
            i = acts[lo:hi, :units]
            f = acts[lo:hi, units:2 * units]
            o = acts[lo:hi, 3 * units:]
            do = dh * tanh_c[lo:hi]
            dc_raw = dc + dh * o * tc_deriv[lo:hi]
            dgates = dproj[lo:hi]
            dgates[:, :units] = dc_raw * g_all[lo:hi] * sig_deriv[lo:hi, :units]
            dgates[:, units:2 * units] = (dc_raw * c_prev_seq[lo:hi]
                                          * sig_deriv[lo:hi, units:2 * units])
            dgates[:, 2 * units:3 * units] = dc_raw * i * g_deriv[lo:hi]
            dgates[:, 3 * units:] = do * sig_deriv[lo:hi, 3 * units:]
            k = prev_hi - prev_lo
            if k:
                dstates[prev_lo:prev_hi] += dgates[:k] @ w_h_t
                dcells[prev_lo:prev_hi] = dc_raw[:k] * f[:k]

        if ctx.needs_input_grad[2]:
            dw_h = _recurrent_weight_grad(
                _previous_states(h_seq, plan, reverse, "lstm.hprev"), dproj)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx)
        return dx, dw_x, dw_h, db


@_instrumented
class GRULevelFunction(Function):
    """One GRU level on a packed sequence: update gate z, reset gate r,
    candidate n."""

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray, plan: SequencePlan,
                reverse: bool = False) -> np.ndarray:
        _check_packed(x, plan)
        n_packed, units = x.shape[0], w_h.shape[0]
        proj = _projection(x, w_x, b_h, plan, "gru.proj")

        states = _states_with_initial(n_packed, units)
        gates = np.empty((n_packed, 3 * units))  # z, r, n
        rec_n = np.empty((n_packed, units))      # h_prev W_h candidate slice
        h_buf = _scratch.get("gru.hprev_rows", (plan.batch, units))
        rec_buf = _scratch.get("gru.rec", (plan.batch, 3 * units))
        for lo, hi, prev_lo, prev_hi in plan.schedule(reverse):
            n_rows = hi - lo
            h = _previous(states, prev_lo, prev_hi, n_rows, h_buf)
            rec = _matmul(h, w_h, rec_buf[:n_rows], plan.min_rows)
            p = proj[lo:hi]
            z = _sigmoid(p[:, :units] + rec[:, :units])
            r = _sigmoid(p[:, units:2 * units] + rec[:, units:2 * units])
            n = np.tanh(p[:, 2 * units:] + r * rec[:, 2 * units:])
            states[lo:hi] = z * h + (1.0 - z) * n
            gates[lo:hi, :units] = z
            gates[lo:hi, units:2 * units] = r
            gates[lo:hi, 2 * units:] = n
            rec_n[lo:hi] = rec[:, 2 * units:]

        ctx.x, ctx.w_x, ctx.w_h = x, w_x, w_h
        ctx.states, ctx.gates, ctx.rec_n = states, gates, rec_n
        ctx.plan, ctx.reverse = plan, reverse
        return states[:n_packed]

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        states, gates, rec_n = ctx.states, ctx.gates, ctx.rec_n
        plan, reverse = ctx.plan, ctx.reverse
        units = rec_n.shape[1]

        # Whole-sequence precomputation, as in the other level backwards.
        z_all = gates[:, :units]
        r_all = gates[:, units:2 * units]
        n_all = gates[:, 2 * units:]
        zr_all = gates[:, :2 * units]
        zr_deriv = _scratch.get("gru.zrd", zr_all.shape)
        np.subtract(1.0, zr_all, out=zr_deriv)
        np.multiply(zr_all, zr_deriv, out=zr_deriv)
        z_deriv = zr_deriv[:, :units]
        r_deriv = zr_deriv[:, units:]
        n_deriv = _scratch.get("gru.nd", n_all.shape)
        np.multiply(n_all, n_all, out=n_deriv)
        np.subtract(1.0, n_deriv, out=n_deriv)
        h_prev_seq = _previous_states(states, plan, reverse, "gru.hprev")
        w_h_t = np.ascontiguousarray(ctx.w_h.T)

        dproj = _scratch.get("gru.dproj", gates.shape)
        dstates = _carried_grads(grad, "gru.dstates")
        drec = _scratch.get("gru.drec", (plan.batch, 3 * units))
        for lo, hi, prev_lo, prev_hi in reversed(plan.schedule(reverse)):
            dh = dstates[lo:hi]
            z = z_all[lo:hi]
            r = r_all[lo:hi]
            n = n_all[lo:hi]
            dz = dh * (h_prev_seq[lo:hi] - n)
            dn_pre = dh * (1.0 - z) * n_deriv[lo:hi]
            dr = dn_pre * rec_n[lo:hi]
            d = drec[:hi - lo]
            d[:, :units] = dz * z_deriv[lo:hi]
            d[:, units:2 * units] = dr * r_deriv[lo:hi]
            d[:, 2 * units:] = dn_pre * r
            dproj[lo:hi, :2 * units] = d[:, :2 * units]
            dproj[lo:hi, 2 * units:] = dn_pre
            k = prev_hi - prev_lo
            if k:
                dstates[prev_lo:prev_hi] += dh[:k] * z[:k] + d[:k] @ w_h_t

        if ctx.needs_input_grad[2]:
            # The candidate slice of ``drec`` differs from ``dproj`` (the
            # reset gate multiplies only the recurrent term), so rebuild it.
            drec_seq = _scratch.get("gru.drecseq", dproj.shape)
            np.copyto(drec_seq, dproj)
            np.multiply(dproj[:, 2 * units:], r_all,
                        out=drec_seq[:, 2 * units:])
            dw_h = _recurrent_weight_grad(h_prev_seq, drec_seq)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx)
        return dx, dw_x, dw_h, db


@_instrumented
class DenseSoftmaxBCEFunction(Function):
    """Classifier head fused with its loss: dense -> softmax -> BCE.

    Computes exactly ``categorical_cross_entropy(softmax(x @ w + b),
    targets)`` (the paper's two-way-softmax binary cross-entropy,
    Section 5.2) as one node, including the clamp-to-``epsilon`` and its
    zero-gradient-outside-the-clip-range semantics.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w: np.ndarray,
                b: np.ndarray, targets_onehot: np.ndarray,
                epsilon: float = 1e-12) -> np.ndarray:
        targets_onehot = np.asarray(targets_onehot, dtype=np.float64)
        logits = x @ w + b
        if targets_onehot.shape != logits.shape:
            raise ShapeError(
                f"targets shape {targets_onehot.shape} does not match "
                f"logits shape {logits.shape}"
            )
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        clipped = np.clip(probs, epsilon, 1.0)
        per_sample = -(targets_onehot * np.log(clipped)).sum(axis=-1)
        loss = per_sample.sum() / float(per_sample.shape[0])

        ctx.x, ctx.w = x, w
        ctx.probs, ctx.clipped = probs, clipped
        ctx.targets, ctx.epsilon = targets_onehot, epsilon
        return np.asarray(loss)

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        probs, clipped, targets = ctx.probs, ctx.clipped, ctx.targets
        batch = probs.shape[0]
        dper_sample = float(grad) / batch
        dclipped = -dper_sample * targets / clipped
        inside = (probs >= ctx.epsilon) & (probs <= 1.0)
        dprobs = dclipped * inside
        dot = (dprobs * probs).sum(axis=-1, keepdims=True)
        dlogits = probs * (dprobs - dot)
        dx = dlogits @ ctx.w.T if ctx.needs_input_grad[0] else None
        dw = ctx.x.T @ dlogits if ctx.needs_input_grad[1] else None
        db = dlogits.sum(axis=0) if ctx.needs_input_grad[2] else None
        return dx, dw, db


def dense_softmax_bce(x, w, b, targets_onehot, epsilon=1e-12):
    """Fused classifier-head loss; returns a scalar loss tensor."""
    return DenseSoftmaxBCEFunction.apply(x, w, b, targets_onehot, epsilon)
