"""Pattern-perceptive self-attention kernels (the ``"attn"`` family).

The PAT line of work scores a cell by letting every character position
attend to every other, with the raw character embedding *enriched* by a
character-pattern class (digit / lower / upper / space / punctuation)
and a learned position embedding -- format errors are pattern-visible
even when the exact characters are plausible.

Two autograd :class:`~repro.autograd.Function` kernels implement the
encoder on the fused backend, and :func:`pattern_embed` /
:func:`attention_pool` dispatch between them and a per-group graph
composition built from the existing primitive ops.  Both paths perform
the *same* numpy expressions in the same order, so forwards are
bit-for-bit identical -- the repo-wide backend contract.

Bit-stability of the attention reduction deserves a note: softmax and
the context average reduce over the *time* axis, whose padded width
varies with chunk trimming.  The kernels therefore group rows by their
true (non-padding) length and slice each group to exactly that length
before any reduction -- a row's output depends only on its own
characters, never on how it was batched or padded, which is the
invariant the dedup inference engine's bit-for-bit guarantee rests on.
Single-row groups are duplicate-padded (and the copy discarded): a
one-row product takes BLAS's vector kernel, the same reason inference
chunks are padded to whole row blocks
(:func:`repro.inference.engine.row_block_index`).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat, embedding_lookup, softmax
from repro.autograd.function import Function
from repro.errors import ShapeError
from repro.nn.backend import get_backend
from repro.nn.kernels import _instrumented

__all__ = [
    "N_PATTERN_CLASSES",
    "pattern_table",
    "effective_lengths",
    "PatternEmbedFunction",
    "AttentionPoolFunction",
    "pattern_embed",
    "attention_pool",
]

#: Character-pattern classes: 0 is reserved for the padding index.
N_PATTERN_CLASSES = 7

_PATTERN_DIGIT = 1
_PATTERN_LOWER = 2
_PATTERN_UPPER = 3
_PATTERN_SPACE = 4
_PATTERN_PUNCT = 5
_PATTERN_OTHER = 6

_PUNCTUATION = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


def _pattern_class(char: str) -> int:
    if char.isdigit():
        return _PATTERN_DIGIT
    if char.isalpha():
        return _PATTERN_LOWER if char.islower() else _PATTERN_UPPER
    if char.isspace():
        return _PATTERN_SPACE
    if char in _PUNCTUATION:
        return _PATTERN_PUNCT
    return _PATTERN_OTHER


def pattern_table(char_index) -> np.ndarray:
    """Per-character-index pattern class (index 0, padding, maps to 0).

    ``char_index`` is a :class:`~repro.dataprep.dictionaries.CharDictionary`;
    the table is rebuilt identically from a restored archive's character
    string, so the pattern branch round-trips with the dictionaries.
    """
    table = np.zeros(char_index.vocab_size, dtype=np.int64)
    for i in range(1, char_index.n_chars + 1):
        table[i] = _pattern_class(char_index.char_of(i))
    return table


def effective_lengths(values: np.ndarray) -> np.ndarray:
    """True per-row sequence lengths (non-padding count, at least 1).

    All-padding rows keep length 1 so they still attend over one
    (padding-embedded) position, mirroring the RNN models' all-pad mask
    fix.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeError(f"values must be (batch, time), got {values.shape}")
    return np.maximum(np.count_nonzero(values, axis=1), 1).astype(np.int64)


def _length_groups(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Deterministic (ascending length, ascending row index) grouping."""
    groups = []
    for length in np.unique(lengths):
        groups.append((int(length), np.flatnonzero(lengths == length)))
    return groups


@_instrumented
class PatternEmbedFunction(Function):
    """Fused character + pattern + position embedding sum.

    ``forward(char_w, pat_w, pos_w, values, pattern_ids)`` returns
    ``char_w[values] + pat_w[pattern_ids] + pos_w[positions]`` in one
    node; backward scatters into the three tables with the same sorted
    segment-sum used by :func:`repro.autograd.embedding_lookup`.
    """

    @staticmethod
    def forward(ctx, char_w, pat_w, pos_w, values, pattern_ids):
        values = np.asarray(values, dtype=np.int64)
        pattern_ids = np.asarray(pattern_ids, dtype=np.int64)
        n_steps = values.shape[1]
        if n_steps > pos_w.shape[0]:
            raise ShapeError(
                f"sequence width {n_steps} exceeds the position table "
                f"({pos_w.shape[0]} rows)")
        positions = np.broadcast_to(np.arange(n_steps, dtype=np.int64),
                                    values.shape)
        # Same association order as the graph path's two additions.
        out = (char_w[values] + pat_w[pattern_ids]) + pos_w[positions]
        ctx.values = values
        ctx.pattern_ids = pattern_ids
        ctx.shapes = (char_w.shape, pat_w.shape, pos_w.shape)
        return out

    @staticmethod
    def backward(ctx, grad):
        char_shape, pat_shape, pos_shape = ctx.shapes
        n_rows, n_steps = ctx.values.shape
        flat = grad.reshape(-1, grad.shape[-1])
        dchar = _scatter_rows(flat, ctx.values.reshape(-1), char_shape)
        dpat = _scatter_rows(flat, ctx.pattern_ids.reshape(-1), pat_shape)
        dpos = np.zeros(pos_shape)
        dpos[:n_steps] = grad.sum(axis=0)
        return dchar, dpat, dpos


def _scatter_rows(flat_grad: np.ndarray, flat_idx: np.ndarray,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Segment-sum scatter of per-row gradients into an embedding table."""
    out = np.zeros(shape)
    if not flat_idx.size:
        return out
    order = np.argsort(flat_idx, kind="stable")
    sorted_idx = flat_idx[order]
    sorted_grad = flat_grad[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    out[sorted_idx[starts]] += np.add.reduceat(sorted_grad, starts, axis=0)
    return out


@_instrumented
class AttentionPoolFunction(Function):
    """Fused length-grouped softmax self-attention with mean pooling.

    ``forward(x, wq, wk, wv, lengths, scale)`` takes the embedded
    sequence ``x (batch, time, dim)``, three projection matrices
    ``(dim, attn_dim)`` and the true per-row ``lengths``; every row
    attends over exactly its own positions (see the module docstring)
    and the attended context is averaged into one ``(batch, attn_dim)``
    vector per row.
    """

    @staticmethod
    def forward(ctx, x, wq, wk, wv, lengths, scale):
        if x.ndim != 3:
            raise ShapeError(f"attention expects (batch, time, dim), got {x.shape}")
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if lengths.shape[0] != x.shape[0]:
            raise ShapeError(
                f"lengths cover {lengths.shape[0]} rows, batch has {x.shape[0]}")
        if lengths.min() < 1 or lengths.max() > x.shape[1]:
            raise ShapeError(
                f"lengths must lie in [1, {x.shape[1]}], got "
                f"[{lengths.min()}, {lengths.max()}]")
        out = np.zeros((x.shape[0], wv.shape[1]))
        saved = []
        for length, idx in _length_groups(lengths):
            e = x[idx][:, :length]
            duplicated = e.shape[0] == 1
            if duplicated:
                e = np.concatenate([e, e], axis=0)
            q = (e @ wq) * scale
            k = e @ wk
            v = e @ wv
            scores = q @ np.swapaxes(k, 1, 2)
            shifted = scores - scores.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            attn = exp / exp.sum(axis=-1, keepdims=True)
            context = attn @ v
            pooled = context.sum(axis=1) / float(length)
            out[idx] = pooled[:1] if duplicated else pooled
            saved.append((length, idx, duplicated, e, q, k, v, attn))
        ctx.saved = saved
        ctx.x_shape = x.shape
        ctx.w_shapes = (wq.shape, wk.shape, wv.shape)
        ctx.wq, ctx.wk, ctx.wv = wq, wk, wv
        ctx.scale = scale
        return out

    @staticmethod
    def backward(ctx, grad):
        wq, wk, wv = ctx.wq, ctx.wk, ctx.wv
        dx = np.zeros(ctx.x_shape)
        dwq = np.zeros(ctx.w_shapes[0])
        dwk = np.zeros(ctx.w_shapes[1])
        dwv = np.zeros(ctx.w_shapes[2])
        for length, idx, duplicated, e, q, k, v, attn in ctx.saved:
            g = grad[idx]
            if duplicated:
                g = np.concatenate([g, np.zeros_like(g)], axis=0)
            # Mean pool: every position shares the pooled gradient / length.
            dcontext = np.broadcast_to(
                g[:, None, :] / float(length),
                (g.shape[0], length, g.shape[1])).copy()
            dattn = dcontext @ np.swapaxes(v, 1, 2)
            dv = np.swapaxes(attn, 1, 2) @ dcontext
            dot = (dattn * attn).sum(axis=-1, keepdims=True)
            dscores = attn * (dattn - dot)
            dq_scaled = dscores @ k
            dk = np.swapaxes(dscores, 1, 2) @ q
            dq = dq_scaled * ctx.scale
            de = dq @ wq.T + dk @ wk.T + dv @ wv.T
            dwq += np.einsum("gld,gla->da", e, dq)
            dwk += np.einsum("gld,gla->da", e, dk)
            dwv += np.einsum("gld,gla->da", e, dv)
            if duplicated:
                de = de[:1]
            dx[idx, :length] += de
        return dx, dwq, dwk, dwv


def pattern_embed(char_weights: Tensor, pattern_weights: Tensor,
                  position_weights: Tensor, values: np.ndarray,
                  pattern_ids: np.ndarray) -> Tensor:
    """Char + pattern + position embedding, dispatching on the backend."""
    if get_backend() == "fused":
        return PatternEmbedFunction.apply(char_weights, pattern_weights,
                                          position_weights, values,
                                          pattern_ids)
    values = np.asarray(values, dtype=np.int64)
    positions = np.broadcast_to(
        np.arange(values.shape[1], dtype=np.int64), values.shape)
    return (embedding_lookup(char_weights, values)
            + embedding_lookup(pattern_weights,
                               np.asarray(pattern_ids, dtype=np.int64))
            + embedding_lookup(position_weights, positions))


def attention_pool(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                   lengths: np.ndarray, scale: float) -> Tensor:
    """Length-grouped attention pooling, dispatching on the backend.

    The graph path composes the identical computation from primitive
    ops, one small subgraph per length group, and reassembles rows with
    a concat + inverse-permutation gather; forwards match the fused
    kernel bit for bit.
    """
    if get_backend() == "fused":
        return AttentionPoolFunction.apply(x, wq, wk, wv, lengths, scale)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    pooled_groups = []
    group_rows = []
    for length, idx in _length_groups(lengths):
        e = x[idx][:, :length]
        duplicated = e.shape[0] == 1
        if duplicated:
            e = concat([e, e], axis=0)
        q = (e @ wq) * scale
        k = e @ wk
        v = e @ wv
        scores = q @ k.transpose(0, 2, 1)
        attn = softmax(scores, axis=-1)
        context = attn @ v
        pooled = context.mean(axis=1)
        if duplicated:
            pooled = pooled[0:1]
        pooled_groups.append(pooled)
        group_rows.append(idx)
    stacked = (pooled_groups[0] if len(pooled_groups) == 1
               else concat(pooled_groups, axis=0))
    order = np.concatenate(group_rows)
    inverse = np.argsort(order, kind="stable")
    return stacked[inverse]
