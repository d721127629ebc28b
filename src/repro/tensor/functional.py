"""Composite and fused differentiable operations.

These are the numerically careful building blocks the transformer stack
needs: stable softmax / log-softmax, a fused cross-entropy (the dominant op
in LM training), GELU/SiLU activations, the fused SwiGLU gate and RMSNorm
(the kernels ``SwiGLUMLP`` and ``RMSNorm`` call), embedding gather, the
forward-only in-place key/value cache write a decode step runs, and
dropout.

Every kernel here is an explicit :class:`~repro.tensor.tensor.Op` so the
graph capture layer (:mod:`repro.tensor.graph`) can record and replay it.
Integer/bool side inputs (cross-entropy targets, embedding ids, fill
masks) are modeled as *non-differentiable parents* rather than baked into
the node, which is what lets a captured decode graph replay with fresh
token ids and masks each step.  Dropout is the one exception: its forward
draws from an external RNG, so it stays a legacy closure node and marks
any capture in progress uncacheable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Op, Tensor, _ensure_tensor, _unbroadcast, apply_op

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


class SoftmaxOp(Op):
    name = "softmax"

    def forward(self, inputs, attrs, out=None):
        axis = attrs
        x = inputs[0]
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)
        return out_data, (out_data, axis)

    def vjp(self, ctx, grad, needs):
        out_data, axis = ctx
        if needs[0]:
            # dL/dx = s * (g - sum(g * s))
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            yield 0, out_data * (grad - dot)


class LogSoftmaxOp(Op):
    name = "log_softmax"

    def forward(self, inputs, attrs, out=None):
        axis = attrs
        x = inputs[0]
        shifted = x - x.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        return out_data, (np.exp(out_data), axis)

    def vjp(self, ctx, grad, needs):
        soft, axis = ctx
        if needs[0]:
            yield 0, grad - soft * grad.sum(axis=axis, keepdims=True)


class CrossEntropyOp(Op):
    """Mean token cross-entropy; parent 1 carries the integer targets so a
    captured graph replays with fresh targets instead of baked ones."""

    name = "cross_entropy"

    def forward(self, inputs, attrs, out=None):
        logits, targets = inputs
        ignore_index = attrs
        flat_logits = logits.reshape(-1, logits.shape[-1])
        flat_targets = targets.reshape(-1)
        if flat_targets.dtype != np.int64:
            flat_targets = flat_targets.astype(np.int64)

        if ignore_index is not None:
            valid = flat_targets != ignore_index
        else:
            valid = np.ones_like(flat_targets, dtype=bool)
        n_valid = max(int(valid.sum()), 1)

        shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - logsumexp

        safe_targets = np.where(valid, flat_targets, 0)
        picked = log_probs[np.arange(flat_targets.shape[0]), safe_targets]
        loss_val = -(picked * valid).sum() / n_valid
        out_data = np.asarray(loss_val, dtype=logits.dtype)
        return out_data, (log_probs, safe_targets, valid, n_valid, logits.shape)

    def vjp(self, ctx, grad, needs):
        log_probs, safe_targets, valid, n_valid, shape = ctx
        if needs[0]:
            probs = np.exp(log_probs)
            probs[np.arange(safe_targets.shape[0]), safe_targets] -= 1.0
            probs *= valid[:, None]
            probs *= float(grad) / n_valid
            yield 0, probs.reshape(shape)


class GeluOp(Op):
    name = "gelu"

    def forward(self, inputs, attrs, out=None):
        d = inputs[0]
        inner = _SQRT_2_OVER_PI * (d + 0.044715 * d**3)
        t = np.tanh(inner)
        out_data = 0.5 * d * (1.0 + t)
        return out_data, (d, t)

    def vjp(self, ctx, grad, needs):
        d, t = ctx
        if needs[0]:
            dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * d**2)
            dt = (1.0 - t**2) * dinner
            yield 0, grad * (0.5 * (1.0 + t) + 0.5 * d * dt)


class SiluOp(Op):
    name = "silu"

    def forward(self, inputs, attrs, out=None):
        d = inputs[0]
        sig = 0.5 * (1.0 + np.tanh(0.5 * d))
        return d * sig, (d, sig)

    def vjp(self, ctx, grad, needs):
        d, sig = ctx
        if needs[0]:
            yield 0, grad * (sig * (1.0 + d * (1.0 - sig)))


class SiluMulOp(Op):
    """Fused ``silu(a) * b`` — the SwiGLU gate — as one tape node.

    Bit-equivalent to the composed ``silu(a) * b``: the forward replays the
    identical numpy op sequence, and the VJP yields grads in the composed
    accumulation order (b before a).
    """

    name = "silu_mul"

    def forward(self, inputs, attrs, out=None):
        ad, bd = inputs
        sig = 0.5 * (1.0 + np.tanh(0.5 * ad))
        sa = ad * sig
        out_data = sa * bd
        return out_data, (ad, bd, sig, sa)

    def vjp(self, ctx, grad, needs):
        ad, bd, sig, sa = ctx
        if needs[1]:
            yield 1, _unbroadcast(grad * sa, bd.shape)
        if needs[0]:
            ga = (grad * bd) * (sig * (1.0 + ad * (1.0 - sig)))
            yield 0, _unbroadcast(ga, ad.shape)


class RmsNormOp(Op):
    """Fused RMSNorm ``x * (mean(x²) + eps)^-½ * weight`` as one tape node.

    Bit-equivalent to the composed tensor chain
    ``x * ((x * x).mean(-1, keepdims=True) + eps) ** -0.5 * weight``:
    forward mirrors its exact numpy op order (including the float32
    conversion of scalar constants done by ``Tensor.__init__``), backward
    mirrors its per-tensor gradient accumulation order (weight before x).
    """

    name = "rms_norm"

    def forward(self, inputs, attrs, out=None):
        xd, wd = inputs
        inv_n = np.float32(1.0 / xd.shape[-1])
        epsf = np.float32(attrs)
        sq = xd * xd
        s = sq.sum(axis=-1, keepdims=True)
        t = s * inv_n + epsf
        r = t**-0.5
        xr = xd * r
        out_data = xr * wd
        return out_data, (xd, wd, inv_n, t, r, xr)

    def vjp(self, ctx, grad, needs):
        xd, wd, inv_n, t, r, xr = ctx
        if needs[1]:
            yield 1, _unbroadcast(grad * xr, wd.shape)
        if needs[0]:
            gxr = grad * wd
            g1 = gxr * r
            gr = (gxr * xd).sum(axis=-1, keepdims=True)
            gs = (gr * -0.5 * t**-1.5) * inv_n
            gsq = np.broadcast_to(gs, xd.shape).astype(xd.dtype)
            g2 = gsq * xd
            yield 0, (g1 + g2) + g2


class RopeOp(Op):
    """Fused rotary position embedding as one tape node.

    Rotates each channel pair ``(x[..., 2i], x[..., 2i+1])`` of ``x`` by
    the angle whose cos/sin sit in ``cos[..., i]``/``sin[..., i]`` (the
    tables broadcast against ``x``'s halves).  Bit-equivalent to the
    composed chain it replaces — two strided slices, four products, a
    difference, a sum and an interleaving concat: the forward rounds each
    product once, as the chain does, and the backward adds every input
    gradient into a zeroed buffer, as the chain's two zero-filled slice
    VJPs do (so its zeros are all +0.0).  The tables are constants
    (parents 1 and 2 never receive a gradient).
    """

    name = "rope"
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        xd, cos, sin = inputs
        x1 = xd[..., 0::2]
        x2 = xd[..., 1::2]
        if out is None:
            out = np.empty(xd.shape, np.result_type(xd.dtype, cos.dtype, sin.dtype))
        np.subtract(x1 * cos, x2 * sin, out=out[..., 0::2])
        np.add(x1 * sin, x2 * cos, out=out[..., 1::2])
        return out, (cos, sin, xd.shape, xd.dtype)

    def vjp(self, ctx, grad, needs):
        cos, sin, shape, dtype = ctx
        if needs[0]:
            g1 = grad[..., 0::2]
            g2 = grad[..., 1::2]
            gx = np.zeros(shape, dtype)
            # The chain casts each product to x's dtype before summing.
            gx[..., 0::2] += np.asarray(g1 * cos, dtype) + np.asarray(g2 * sin, dtype)
            gx[..., 1::2] += np.asarray(g2 * cos, dtype) - np.asarray(g1 * sin, dtype)
            yield 0, gx


class EmbeddingOp(Op):
    """Row gather; parent 1 carries the integer ids as a constant input."""

    name = "embedding"

    def forward(self, inputs, attrs, out=None):
        weight, ids = inputs
        if ids.dtype != np.int64:
            ids = ids.astype(np.int64)
        return weight[ids], (weight.shape, weight.dtype, ids)

    def vjp(self, ctx, grad, needs):
        shape, dtype, ids = ctx
        if needs[0]:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, ids.reshape(-1), grad.reshape(-1, shape[-1]))
            yield 0, full


class MaskedFillOp(Op):
    """Fill where mask; parent 1 carries the bool mask as a constant input."""

    name = "masked_fill"

    def forward(self, inputs, attrs, out=None):
        x, mask = inputs
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        out_data = np.where(mask, np.asarray(attrs, dtype=x.dtype), x)
        return out_data, mask

    def vjp(self, ctx, grad, needs):
        mask = ctx
        if needs[0]:
            yield 0, grad * (~mask)


class KvWriteOp(Op):
    """Write new cache positions into a key/value store view in place.

    Parents: the store view ``(batch, kv_heads, width, head_dim)``, the
    new entries ``(batch, kv_heads, seq, head_dim)`` and each row's first
    position ``(batch,)`` (an integer constant).  Row ``b`` of the new
    entries lands at ``pos[b] .. pos[b] + seq - 1``.  The output *is* the
    store view, so whatever reads it sees the written positions, and a
    replayed graph writes wherever its input view points.  Forward-only:
    serving decodes under ``no_grad``, and asking for a gradient raises.
    """

    name = "kv_write"

    def forward(self, inputs, attrs, out=None):
        store, new, pos = inputs
        seq = new.shape[2]
        if seq == 1 and len(pos) > 1:
            # One scatter beats a python loop of row writes from batch 2.
            store[np.arange(len(pos)), :, pos] = new[:, :, 0]
        else:
            for b, p in enumerate(pos.tolist()):
                store[b, :, p : p + seq] = new[b]
        return store, None

    def vjp(self, ctx, grad, needs):
        raise RuntimeError("kv_write is forward-only: it has no gradient")


_SOFTMAX = SoftmaxOp()
_LOG_SOFTMAX = LogSoftmaxOp()
_CROSS_ENTROPY = CrossEntropyOp()
_GELU = GeluOp()
_SILU = SiluOp()
_SILU_MUL = SiluMulOp()
_RMS_NORM = RmsNormOp()
_ROPE = RopeOp()
_EMBEDDING = EmbeddingOp()
_MASKED_FILL = MaskedFillOp()
_KV_WRITE = KvWriteOp()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused forward/backward)."""
    return apply_op(_SOFTMAX, (_ensure_tensor(x),), axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return apply_op(_LOG_SOFTMAX, (_ensure_tensor(x),), axis)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross-entropy, fused for speed and stability.

    Parameters
    ----------
    logits:
        ``(..., vocab)`` unnormalized scores.
    targets:
        Integer class ids broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute neither loss nor gradient
        (used for padding).
    """
    logits = _ensure_tensor(logits)
    targets_t = _ensure_tensor(targets)
    return apply_op(_CROSS_ENTROPY, (logits, targets_t), ignore_index)


def nll_from_logits(logits: Tensor, targets: np.ndarray) -> np.ndarray:
    """Per-position negative log-likelihood (no autograd; eval helper)."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets)
    flat = data.reshape(-1, data.shape[-1])
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    picked = log_probs[np.arange(flat.shape[0]), targets.reshape(-1)]
    return (-picked).reshape(targets.shape)


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation), fused."""
    return apply_op(_GELU, (_ensure_tensor(x),))


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation ``x * sigmoid(x)``, fused."""
    return apply_op(_SILU, (_ensure_tensor(x),))


def silu_mul(a: Tensor, b: Tensor) -> Tensor:
    """Fused ``silu(a) * b`` — the SwiGLU gate — as one tape node."""
    return apply_op(_SILU_MUL, (_ensure_tensor(a), _ensure_tensor(b)))


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused RMSNorm ``x * (mean(x²) + eps)^-½ * weight`` as one tape node."""
    return apply_op(_RMS_NORM, (_ensure_tensor(x), _ensure_tensor(weight)), eps)


def rope(x: Tensor, cos, sin) -> Tensor:
    """Fused rotary position embedding of ``x`` ``(..., seq, head_dim)``
    as one tape node.

    ``cos``/``sin`` hold the rotation of every channel pair, broadcast
    against ``x``'s halves ``(..., seq, head_dim // 2)``: a ``(seq,
    head_dim // 2)`` slice of the tables, or per-row ``(batch, 1, seq,
    head_dim // 2)`` tables.  They are constants (module buffers or graph
    inputs); a table that requires grad raises rather than have its
    gradient dropped.
    """
    x, cos, sin = _ensure_tensor(x), _ensure_tensor(cos), _ensure_tensor(sin)
    if x.shape[-1] % 2:
        raise ValueError(f"RoPE needs an even head dim, got {x.shape[-1]}")
    if cos.requires_grad or sin.requires_grad:
        raise ValueError("rope tables are constants; got a table that requires grad")
    return apply_op(_ROPE, (x, cos, sin))


def kv_write(store, new: Tensor, pos) -> Tensor:
    """Write ``new`` ``(batch, kv_heads, seq, head_dim)`` into the cache
    store view ``store`` in place, row ``b`` at positions ``pos[b] ..
    pos[b] + seq - 1``, and return the store view as one tape node.

    The store view and positions are constants (graph inputs in a
    captured decode step); callers keep every ``pos[b] + seq`` within the
    view's width.  There is no gradient: the op's VJP raises.
    """
    return apply_op(_KV_WRITE, (_ensure_tensor(store), _ensure_tensor(new),
                                _ensure_tensor(pos)))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``ids`` (the embedding lookup)."""
    weight = _ensure_tensor(weight)
    ids_arr = np.asarray(ids.data if isinstance(ids, Tensor) else ids)
    if ids_arr.dtype != np.int64:
        ids_arr = ids_arr.astype(np.int64)
    return apply_op(_EMBEDDING, (weight, Tensor(ids_arr)))


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with an explicit generator (reproducible).

    RNG-dependent, so this stays a closure tape node: a graph recorder
    seeing it marks the capture uncacheable rather than baking one mask.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _ensure_tensor(x)
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out_data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * keep)

    return Tensor._make(out_data, (x,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (grad blocked there)."""
    x = _ensure_tensor(x)
    mask_arr = np.asarray(mask.data if isinstance(mask, Tensor) else mask)
    if mask_arr.dtype != np.bool_:
        mask_arr = mask_arr.astype(bool)
    return apply_op(_MASKED_FILL, (x, Tensor(mask_arr)), value)
