"""Fused forward+backward sequence kernels.

Each kernel runs a whole recurrence level -- the full time loop of
Eq. 1-4 -- in numpy inside a *single* autograd node (a
:class:`~repro.autograd.function.Function`), replacing the thousands of
per-step graph nodes the reference ``"graph"`` backend records.  The
backward passes are hand-derived backpropagation-through-time sweeps,
validated against finite differences and against the reference backend by
the test suite.

Numerical contract: every kernel evaluates exactly the same numpy
expressions, in the same order, as the per-step graph implementation in
:mod:`repro.nn.layers.rnn` / :mod:`repro.nn.layers.gated`, so forward
values are bit-for-bit identical across backends.

Masking follows the repository-wide convention: ``mask`` is a boolean
``(batch, time)`` array where ``False`` marks padding; on a padded step a
row's state is carried over unchanged (and gradients flow straight
through to the previous step).

Effective lengths: the data-preparation pipeline right-pads, so a batch
whose longest value is far shorter than the array width ends in a block
of steps that are padding for *every* row.  Each kernel detects that
block (:func:`_effective_width`), stops its time loop at the last step
any row is live, and fills the tail analytically -- the carried state for
the forward direction, the untouched zero initial state for the reverse
direction.  The backward pass mirrors the trim: tail gradients are folded
into the carried-state gradient in the same accumulation order the
full-width loop would have used, so forward values stay bit-for-bit
identical and gradients agree to float-accumulation order.

Kernels
-------
:func:`rnn_level`
    Whole-sequence tanh recurrence (the paper's Eq. 1-2).
:func:`lstm_level` / :func:`gru_level`
    Gated counterparts for the cell-type ablation.
:func:`dense_softmax_bce`
    The classifier head fused with its loss: dense + softmax + binary
    (two-way categorical) cross-entropy in one node.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import telemetry
from repro.autograd.function import Function, FunctionCtx
from repro.errors import ShapeError

__all__ = [
    "RNNLevelFunction",
    "LSTMLevelFunction",
    "GRULevelFunction",
    "DenseSoftmaxBCEFunction",
    "rnn_level",
    "lstm_level",
    "gru_level",
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


def _classify_steps(mask: np.ndarray | None, n_steps: int
                    ) -> tuple[list[bool], list[bool]]:
    """Per-step liveness: (any row live, all rows live)."""
    if mask is None:
        live = [True] * n_steps
        return live, live
    return mask.any(axis=0).tolist(), mask.all(axis=0).tolist()


def _check_sequence(x: np.ndarray, mask: np.ndarray | None) -> None:
    if x.ndim != 3:
        raise ShapeError(f"sequence kernels expect (batch, time, dim), got {x.shape}")
    if mask is not None and mask.shape != x.shape[:2]:
        raise ShapeError(
            f"mask shape {mask.shape} does not match sequence {x.shape[:2]}"
        )


def _time_order(n_steps: int, reverse: bool) -> list[int]:
    return list(range(n_steps - 1, -1, -1)) if reverse else list(range(n_steps))


def _effective_width(any_live: list[bool], n_steps: int) -> int:
    """Steps up to (and including) the last one where any row is live.

    Steps beyond the width are padding for every row: the forward pass
    carries state straight through them and the backward pass passes
    gradients through unchanged, so the kernels handle the whole tail in
    closed form instead of looping over it.  A fully padded batch keeps a
    width of 1 so the (dead) loop still establishes the initial state.
    """
    for t in range(n_steps - 1, -1, -1):
        if any_live[t]:
            return t + 1
    return 1


def _fill_tail(states: np.ndarray, width: int, reverse: bool,
               h: np.ndarray) -> None:
    """Write the analytic tail states for steps beyond ``width``.

    Forward order carries the final live state through the dead tail;
    reverse order visits the tail first and never leaves the zero initial
    state.  Matches the full-width loop bit for bit.
    """
    if width >= states.shape[1]:
        return
    if reverse:
        states[:, width:] = 0.0
    else:
        states[:, width:] = h[:, None, :]


def _tail_grad(dh: np.ndarray, grad: np.ndarray, width: int,
               reverse: bool) -> None:
    """Fold the dead tail's incoming gradients into the carried ``dh``.

    For the forward direction the full-width backward loop would visit
    the tail first (descending t) and accumulate ``grad[:, t]`` into the
    pass-through state gradient; replicate that order exactly.  For the
    reverse direction the tail states are the constant initial state, so
    their gradients are discarded -- as the full loop does.
    """
    if reverse:
        return
    for t in range(grad.shape[1] - 1, width - 1, -1):
        dh += grad[:, t]


class _ScratchPool(threading.local):
    """Per-thread, per-key scratch arrays reused across kernel calls.

    Fresh large allocations are page-fault bound on this workload, so the
    kernels stage their *call-local* intermediates (input projection, BPTT
    derivative tables, pre-activation gradients) in warm buffers instead.
    An array from the pool is only valid until the next ``get`` with the
    same key *on the same thread*; nothing handed to the autograd graph
    (outputs, returned gradients, ``ctx`` state) may ever live here.
    Kernel calls never nest on a thread, so sequential reuse is safe, and
    each thread gets its own buffers -- the serving daemon's handler
    threads run forwards concurrently without aliasing.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        slot = (key, shape)
        array = self._arrays.get(slot)
        if array is None:
            array = np.empty(shape)
            self._arrays[slot] = array
        return array


_scratch = _ScratchPool()


def _shift_prev(sequence: np.ndarray, order: list[int], key: str) -> np.ndarray:
    """``prev[:, t]`` = the state one *iteration* before step ``t``.

    The earliest step in iteration order gets the all-zeros initial state.
    Dead (fully padded) steps may hold stale values; their ``dproj`` rows
    are zero, so they never contribute to the weight gradient.
    """
    prev = _scratch.get(key, sequence.shape)
    if order[0] == 0:  # forward iteration order
        prev[:, 0] = 0.0
        prev[:, 1:] = sequence[:, :-1]
    else:  # reverse iteration order
        prev[:, -1] = 0.0
        prev[:, :-1] = sequence[:, 1:]
    return prev


def _dproj_scratch(key: str, shape: tuple[int, ...],
                   any_live: list[bool]) -> np.ndarray:
    """Pre-activation grad buffer: live steps are fully overwritten by the
    backward loops, so only dead (fully padded) steps need explicit zeros."""
    dproj = _scratch.get(key, shape)
    for t, live in enumerate(any_live):
        if not live:
            dproj[:, t] = 0.0
    return dproj


def _projection(x: np.ndarray, w_x: np.ndarray, b_h: np.ndarray,
                key: str) -> np.ndarray:
    """``x @ w_x + b`` for the whole sequence, staged in scratch."""
    batch, n_steps, _ = x.shape
    proj = _scratch.get(key, (batch, n_steps, w_x.shape[-1]))
    if n_steps == 1:
        # The batched (batch, 1, in) @ (in, out) matmul runs one GEMV per
        # row, whose accumulation can differ from the m >= 2 GEMM path by
        # an ulp.  One flat (batch, in) GEMM keeps a row's projection
        # bits identical to its value inside any wider chunk, so results
        # cannot depend on how rows were grouped into batches.
        np.matmul(x[:, 0], w_x, out=proj[:, 0])
    else:
        np.matmul(x, w_x, out=proj)
    proj += b_h
    return proj


def _recurrent_weight_grad(prev: np.ndarray, dproj: np.ndarray) -> np.ndarray:
    """``sum_t prev_t^T dproj_t`` as one GEMM instead of a matmul per step.

    The result lives in scratch: ``accumulate_grad`` copies (or adds) it
    into the parameter's grad buffer before the pool is touched again.
    """
    units, width = prev.shape[-1], dproj.shape[-1]
    return np.matmul(prev.reshape(-1, units).T, dproj.reshape(-1, width),
                     out=_scratch.get("level.dw_h", (units, width)))


def _input_grads(dproj: np.ndarray, x: np.ndarray, w_x: np.ndarray,
                 ctx: FunctionCtx, full_shape: tuple[int, ...]
                 ) -> tuple[np.ndarray | None, ...]:
    """Shared tail of every level backward: grads through ``x @ w_x + b``.

    ``x`` is the (possibly width-trimmed) live window of the input;
    ``dx`` is expanded back to ``full_shape`` with a zero tail -- trimmed
    steps are padding for every row, so their input gradient is exactly
    zero.  Like :func:`_recurrent_weight_grad`, the returned arrays are
    scratch: they are consumed synchronously by gradient accumulation.
    """
    in_dim, proj_width = x.shape[-1], dproj.shape[-1]
    if ctx.needs_input_grad[0]:
        dx = _scratch.get("level.dx", full_shape)
        np.matmul(dproj, w_x.T, out=dx[:, :x.shape[1]])
        if x.shape[1] < full_shape[1]:
            dx[:, x.shape[1]:] = 0.0
    else:
        dx = None
    if ctx.needs_input_grad[1]:
        dw_x = np.matmul(x.reshape(-1, in_dim).T, dproj.reshape(-1, proj_width),
                         out=_scratch.get("level.dw_x", (in_dim, proj_width)))
    else:
        dw_x = None
    db = dproj.sum(axis=(0, 1)) if ctx.needs_input_grad[3] else None
    return dx, dw_x, db


@_instrumented
class RNNLevelFunction(Function):
    """One stacked-RNN level: ``h_t = tanh(x_t W_x + h_{t-1} W_h + b)``.

    Forward input ``x`` is ``(batch, time, input_dim)``; output is the
    full state sequence ``(batch, time, units)`` ordered by the original
    time axis regardless of ``reverse``.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        any_live, all_live = _classify_steps(mask, n_steps)
        width = _effective_width(any_live, n_steps)
        x_w = x[:, :width] if width < n_steps else x
        proj = _projection(x_w, w_x, b_h, "rnn.proj")
        order = _time_order(width, reverse)

        # ``rec`` is preallocated scratch for the recurrent projection; the
        # activation writes straight into the ``states[:, t]`` slice and the
        # carried ``h`` is a view into it, so the fully-live fast path
        # allocates nothing per step.
        states = np.empty((batch, n_steps, units))
        rec = _scratch.get("rnn.rec", (batch, units))
        h = np.zeros((batch, units))
        for t in order:
            if not any_live[t]:
                states[:, t] = h
                continue
            np.matmul(h, w_h, out=rec)
            rec += proj[:, t]
            if all_live[t]:
                h = np.tanh(rec, out=states[:, t])
            else:
                h = np.where(mask[:, t:t + 1], np.tanh(rec), h)
                states[:, t] = h
        _fill_tail(states, width, reverse, h)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_w, x.shape, w_x, w_h
        ctx.states, ctx.mask, ctx.order = states, mask, order
        ctx.any_live, ctx.all_live = any_live[:width], all_live[:width]
        ctx.width, ctx.reverse = width, reverse
        return states

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        states, mask, order = ctx.states, ctx.mask, ctx.order
        w_h, width = ctx.w_h, ctx.width
        batch, _, units = states.shape
        states_w = states[:, :width]

        # tanh' over the live window at once, staged in scratch.
        deriv = np.multiply(states_w, states_w,
                            out=_scratch.get("rnn.deriv", states_w.shape))
        np.subtract(1.0, deriv, out=deriv)
        w_h_t = np.ascontiguousarray(w_h.T)
        # ``dpre`` lands directly in its ``dproj[:, t]`` slice; the carried
        # ``dh`` lives in a single scratch buffer (never an input of the
        # GEMM that overwrites it, so no ping-pong is needed).
        dproj = _dproj_scratch("rnn.dproj", states_w.shape, ctx.any_live)
        buf = _scratch.get("rnn.dh", (batch, units))
        dh = np.zeros((batch, units))
        _tail_grad(dh, grad, width, ctx.reverse)
        for idx in range(len(order) - 1, -1, -1):
            t = order[idx]
            dh += grad[:, t]
            if not ctx.any_live[t]:
                continue  # state carried over: gradient passes through
            dpre = np.multiply(dh, deriv[:, t], out=dproj[:, t])
            if ctx.all_live[t]:
                dh = np.matmul(dpre, w_h_t, out=buf)
            else:
                live = mask[:, t:t + 1]
                dpre *= live
                dh = dpre @ w_h_t + dh * ~live

        if ctx.needs_input_grad[2]:
            dw_h = _recurrent_weight_grad(
                _shift_prev(states_w, order, "rnn.prev"), dproj)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx, ctx.x_shape)
        return dx, dw_x, dw_h, db


@_instrumented
class LSTMLevelFunction(Function):
    """One LSTM level; outputs the hidden-state sequence ``h`` only.

    The cell state ``c`` stays internal to the kernel (mirroring
    ``LSTMCell.output``, which exposes just ``h``); its chain rule is
    handled inside the fused backward.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        any_live, all_live = _classify_steps(mask, n_steps)
        width = _effective_width(any_live, n_steps)
        x_w = x[:, :width] if width < n_steps else x
        proj = _projection(x_w, w_x, b_h, "lstm.proj")
        order = _time_order(width, reverse)

        # Only ``h_seq`` is externally visible; the backward-pass tables
        # cover just the live window.
        h_seq = np.empty((batch, n_steps, units))
        c_seq = np.empty((batch, width, units))
        acts = np.zeros((batch, width, 4 * units))   # i, f, g, o
        tanh_c = np.zeros((batch, width, units))
        h = np.zeros((batch, units))
        c = np.zeros((batch, units))
        for t in order:
            if not any_live[t]:
                h_seq[:, t], c_seq[:, t] = h, c
                continue
            gates = proj[:, t] + h @ w_h
            i = _sigmoid(gates[:, :units])
            f = _sigmoid(gates[:, units:2 * units])
            g = np.tanh(gates[:, 2 * units:3 * units])
            o = _sigmoid(gates[:, 3 * units:])
            c_raw = f * c + i * g
            tc = np.tanh(c_raw)
            h_raw = o * tc
            if all_live[t]:
                h, c = h_raw, c_raw
            else:
                live = mask[:, t:t + 1]
                h = np.where(live, h_raw, h)
                c = np.where(live, c_raw, c)
            h_seq[:, t], c_seq[:, t] = h, c
            acts[:, t, :units] = i
            acts[:, t, units:2 * units] = f
            acts[:, t, 2 * units:3 * units] = g
            acts[:, t, 3 * units:] = o
            tanh_c[:, t] = tc
        _fill_tail(h_seq, width, reverse, h)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_w, x.shape, w_x, w_h
        ctx.h_seq, ctx.c_seq, ctx.acts, ctx.tanh_c = h_seq, c_seq, acts, tanh_c
        ctx.mask, ctx.order = mask, order
        ctx.any_live, ctx.all_live = any_live[:width], all_live[:width]
        ctx.width, ctx.reverse = width, reverse
        return h_seq

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        h_seq, c_seq, acts, tanh_c = ctx.h_seq, ctx.c_seq, ctx.acts, ctx.tanh_c
        mask, order, w_h, width = ctx.mask, ctx.order, ctx.w_h, ctx.width
        batch, _, units = h_seq.shape

        # Whole-sequence precomputation: sigmoid'/tanh' factors and the
        # previous-state sequences (big vectorized ops beat per-step ones),
        # all staged in warm scratch buffers.
        sig_deriv = _scratch.get("lstm.sigd", acts.shape)
        np.subtract(1.0, acts, out=sig_deriv)
        np.multiply(acts, sig_deriv, out=sig_deriv)  # i, f, o slices valid
        g_all = acts[:, :, 2 * units:3 * units]
        g_deriv = _scratch.get("lstm.gd", g_all.shape)
        np.multiply(g_all, g_all, out=g_deriv)
        np.subtract(1.0, g_deriv, out=g_deriv)
        tc_deriv = _scratch.get("lstm.tcd", tanh_c.shape)
        np.multiply(tanh_c, tanh_c, out=tc_deriv)
        np.subtract(1.0, tc_deriv, out=tc_deriv)
        c_prev_seq = _shift_prev(c_seq, order, "lstm.cprev")
        w_h_t = np.ascontiguousarray(w_h.T)

        dproj = _dproj_scratch("lstm.dproj", (batch, width, 4 * units),
                               ctx.any_live)
        dh = np.zeros((batch, units))
        dc = np.zeros((batch, units))
        _tail_grad(dh, grad, width, ctx.reverse)
        for idx in range(len(order) - 1, -1, -1):
            t = order[idx]
            dh += grad[:, t]
            if not ctx.any_live[t]:
                continue
            i = acts[:, t, :units]
            f = acts[:, t, units:2 * units]
            o = acts[:, t, 3 * units:]
            if ctx.all_live[t]:
                dh_live, dc_live = dh, dc
                dh_dead = dc_dead = 0.0
            else:
                live = mask[:, t:t + 1]
                dh_live, dc_live = dh * live, dc * live
                dh_dead, dc_dead = dh * ~live, dc * ~live
            do = dh_live * tanh_c[:, t]
            dc_raw = dc_live + dh_live * o * tc_deriv[:, t]
            dgates = dproj[:, t]
            dgates[:, :units] = dc_raw * g_all[:, t] * sig_deriv[:, t, :units]
            dgates[:, units:2 * units] = (dc_raw * c_prev_seq[:, t]
                                          * sig_deriv[:, t, units:2 * units])
            dgates[:, 2 * units:3 * units] = dc_raw * i * g_deriv[:, t]
            dgates[:, 3 * units:] = do * sig_deriv[:, t, 3 * units:]
            dh = dgates @ w_h_t + dh_dead
            dc = dc_raw * f + dc_dead

        if ctx.needs_input_grad[2]:
            dw_h = _recurrent_weight_grad(
                _shift_prev(h_seq[:, :width], order, "lstm.hprev"), dproj)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx, ctx.x_shape)
        return dx, dw_x, dw_h, db


@_instrumented
class GRULevelFunction(Function):
    """One GRU level: update gate z, reset gate r, candidate n."""

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        any_live, all_live = _classify_steps(mask, n_steps)
        width = _effective_width(any_live, n_steps)
        x_w = x[:, :width] if width < n_steps else x
        proj = _projection(x_w, w_x, b_h, "gru.proj")
        order = _time_order(width, reverse)

        states = np.empty((batch, n_steps, units))
        gates = np.zeros((batch, width, 3 * units))  # z, r, n
        rec_n = np.zeros((batch, width, units))      # h_prev W_h candidate slice
        h = np.zeros((batch, units))
        for t in order:
            if not any_live[t]:
                states[:, t] = h
                continue
            rec = h @ w_h
            z = _sigmoid(proj[:, t, :units] + rec[:, :units])
            r = _sigmoid(proj[:, t, units:2 * units] + rec[:, units:2 * units])
            n = np.tanh(proj[:, t, 2 * units:] + r * rec[:, 2 * units:])
            h_raw = z * h + (1.0 - z) * n
            h = h_raw if all_live[t] else np.where(mask[:, t:t + 1], h_raw, h)
            states[:, t] = h
            gates[:, t, :units] = z
            gates[:, t, units:2 * units] = r
            gates[:, t, 2 * units:] = n
            rec_n[:, t] = rec[:, 2 * units:]
        _fill_tail(states, width, reverse, h)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_w, x.shape, w_x, w_h
        ctx.states, ctx.gates, ctx.rec_n = states, gates, rec_n
        ctx.mask, ctx.order = mask, order
        ctx.any_live, ctx.all_live = any_live[:width], all_live[:width]
        ctx.width, ctx.reverse = width, reverse
        return states

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        states, gates, rec_n = ctx.states, ctx.gates, ctx.rec_n
        mask, order, w_h, width = ctx.mask, ctx.order, ctx.w_h, ctx.width
        batch, _, units = states.shape
        states_w = states[:, :width]

        # Live-window precomputation, as in the other level backwards.
        z_all = gates[:, :, :units]
        r_all = gates[:, :, units:2 * units]
        n_all = gates[:, :, 2 * units:]
        zr_all = gates[:, :, :2 * units]
        zr_deriv = _scratch.get("gru.zrd", zr_all.shape)
        np.subtract(1.0, zr_all, out=zr_deriv)
        np.multiply(zr_all, zr_deriv, out=zr_deriv)
        z_deriv = zr_deriv[:, :, :units]
        r_deriv = zr_deriv[:, :, units:]
        n_deriv = _scratch.get("gru.nd", n_all.shape)
        np.multiply(n_all, n_all, out=n_deriv)
        np.subtract(1.0, n_deriv, out=n_deriv)
        h_prev_seq = _shift_prev(states_w, order, "gru.prev")
        w_h_t = np.ascontiguousarray(w_h.T)

        dproj = _dproj_scratch("gru.dproj", (batch, width, 3 * units),
                               ctx.any_live)
        drec = _scratch.get("gru.drec", (batch, 3 * units))
        dh = np.zeros((batch, units))
        _tail_grad(dh, grad, width, ctx.reverse)
        for idx in range(len(order) - 1, -1, -1):
            t = order[idx]
            dh += grad[:, t]
            if not ctx.any_live[t]:
                continue
            h_prev = h_prev_seq[:, t]
            z = z_all[:, t]
            r = r_all[:, t]
            n = n_all[:, t]
            if ctx.all_live[t]:
                dlive = dh
                ddead = 0.0
            else:
                live = mask[:, t:t + 1]
                dlive = dh * live
                ddead = dh * ~live
            dz = dlive * (h_prev - n)
            dn_pre = dlive * (1.0 - z) * n_deriv[:, t]
            dr = dn_pre * rec_n[:, t]
            drec[:, :units] = dz * z_deriv[:, t]
            drec[:, units:2 * units] = dr * r_deriv[:, t]
            drec[:, 2 * units:] = dn_pre * r
            dproj[:, t, :2 * units] = drec[:, :2 * units]
            dproj[:, t, 2 * units:] = dn_pre
            dh = dlive * z + drec @ w_h_t + ddead

        if ctx.needs_input_grad[2]:
            # The candidate slice of ``drec`` differs from ``dproj`` (the
            # reset gate multiplies only the recurrent term), so rebuild it.
            drec_seq = _scratch.get("gru.drecseq", dproj.shape)
            np.copyto(drec_seq, dproj)
            np.multiply(dproj[:, :, 2 * units:], gates[:, :, units:2 * units],
                        out=drec_seq[:, :, 2 * units:])
            dw_h = _recurrent_weight_grad(h_prev_seq, drec_seq)
        else:
            dw_h = None
        dx, dw_x, db = _input_grads(dproj, ctx.x, ctx.w_x, ctx, ctx.x_shape)
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


# -- functional wrappers --------------------------------------------------------

def rnn_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused tanh-RNN level; returns the state sequence ``(B, T, units)``."""
    return RNNLevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def lstm_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused LSTM level; returns the hidden sequence ``(B, T, units)``."""
    return LSTMLevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def gru_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused GRU level; returns the state sequence ``(B, T, units)``."""
    return GRULevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def dense_softmax_bce(x, w, b, targets_onehot, epsilon=1e-12):
    """Fused classifier-head loss; returns a scalar loss tensor."""
    return DenseSoftmaxBCEFunction.apply(x, w, b, targets_onehot, epsilon)
