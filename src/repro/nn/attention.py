"""Multi-head causal self-attention with rotary position embeddings."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, concat, masked_fill, rope, softmax
from .layers import Dropout, Linear
from .module import Module


def rope_tables(head_dim: int, max_len: int, base: float = 10000.0):
    """Precompute RoPE cos/sin tables of shape ``(max_len, head_dim // 2)``."""
    if head_dim % 2 != 0:
        raise ValueError(f"RoPE needs an even head dim, got {head_dim}")
    inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2) / head_dim))
    positions = np.arange(max_len)
    angles = np.outer(positions, inv_freq)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray, offset: int = 0) -> Tensor:
    """Rotate pairs of channels of ``x`` (..., T, head_dim) by position.

    ``offset`` shifts the position index, used during cached decoding.
    """
    seq_len = x.shape[-2]
    return rope(x, cos[offset : offset + seq_len], sin[offset : offset + seq_len])


class KVCache:
    """Per-layer key/value cache for incremental decoding.

    Entries are ``(batch, kv_heads, seq, head_dim)`` arrays.  Besides
    ``append`` (used by attention itself), the cache exposes ``truncate``
    and ``reset`` so a serving-side pool can recycle cache blocks between
    requests without reallocating them (see :mod:`repro.serve.cache_pool`).
    """

    def __init__(self):
        self.k: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k: np.ndarray, v: np.ndarray):
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or v.ndim != 4:
            raise ValueError(
                f"cache entries must be 4-D (batch, heads, seq, head_dim); "
                f"got k{k.shape}, v{v.shape}"
            )
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        if self.k is None:
            self.k, self.v = k, v
        else:
            expected = (self.k.shape[0], self.k.shape[1], self.k.shape[3])
            got = (k.shape[0], k.shape[1], k.shape[3])
            if expected != got:
                raise ValueError(
                    f"appended entry (batch, heads, head_dim)={got} does not "
                    f"match cached {expected}"
                )
            self.k = np.concatenate([self.k, k], axis=2)
            self.v = np.concatenate([self.v, v], axis=2)
        return self.k, self.v

    def truncate(self, n: int) -> None:
        """Drop cached entries beyond the first ``n`` positions."""
        n = int(n)
        if n < 0 or n > self.length:
            raise ValueError(f"truncate({n}) out of range for length {self.length}")
        if n == 0:
            self.k = self.v = None
        elif n < self.length:
            self.k = self.k[:, :, :n, :]
            self.v = self.v[:, :, :n, :]

    def reset(self) -> None:
        """Empty the cache (equivalent to ``truncate(0)``)."""
        self.k = self.v = None

    def clone(self) -> "KVCache":
        """Independent copy (used to fork decoding hypotheses)."""
        other = KVCache()
        if self.k is not None:
            other.k = self.k.copy()
            other.v = self.v.copy()
        return other


class SharedKVCacheView(KVCache):
    """A cache whose leading positions alias an immutable shared prefix.

    Used by ``repro.serve`` prefix sharing: the shared arrays belong to a
    prefix-trie node owned by the :class:`~repro.serve.cache_pool.CachePool`
    and may be aliased by many concurrent requests, so they must never be
    written through a view.  Appends land in a private tail; truncating
    into the shared region (or resetting) **copies-on-write** — the kept
    prefix is copied into private storage and the view detaches from the
    shared arrays, leaving them untouched for the other lessees.

    ``on_detach`` (optional) fires exactly once, the first time the view
    stops referencing the shared arrays (COW truncate or reset).  The
    full ``k``/``v`` arrays are materialized lazily and memoized, so
    attention and the serving engine read the view exactly like a plain
    :class:`KVCache`.
    """

    def __init__(self, shared_k=None, shared_v=None, on_detach=None):
        # No super().__init__(): k/v are derived properties here.
        if shared_k is not None:
            shared_k = np.asarray(shared_k)
            shared_v = np.asarray(shared_v)
            if shared_k.ndim != 4 or shared_k.shape != shared_v.shape:
                raise ValueError(
                    f"shared entries must be matching 4-D arrays; "
                    f"got k{shared_k.shape}, v{shared_v.shape}"
                )
        else:
            shared_v = None  # empty shared prefix: view starts fully private
        self._shared_k: Optional[np.ndarray] = shared_k
        self._shared_v: Optional[np.ndarray] = shared_v
        self._was_attached = shared_k is not None
        self._tail_k: Optional[np.ndarray] = None
        self._tail_v: Optional[np.ndarray] = None
        self._full: Optional[tuple] = None
        self._on_detach = on_detach

    # -- shape bookkeeping ---------------------------------------------
    @property
    def shared_length(self) -> int:
        """Positions still backed by the shared arrays (0 once detached)."""
        return 0 if self._shared_k is None else self._shared_k.shape[2]

    @property
    def tail_length(self) -> int:
        return 0 if self._tail_k is None else self._tail_k.shape[2]

    @property
    def length(self) -> int:
        return self.shared_length + self.tail_length

    @property
    def detached(self) -> bool:
        """True once a formerly attached view released its shared arrays."""
        return self._was_attached and self._shared_k is None

    # -- plain-KVCache surface -----------------------------------------
    @property
    def k(self) -> Optional[np.ndarray]:
        return self._materialize()[0]

    @property
    def v(self) -> Optional[np.ndarray]:
        return self._materialize()[1]

    def _materialize(self):
        if self._full is None:
            ks = [a for a in (self._shared_k, self._tail_k) if a is not None]
            vs = [a for a in (self._shared_v, self._tail_v) if a is not None]
            if not ks:
                self._full = (None, None)
            elif len(ks) == 1:
                self._full = (ks[0], vs[0])
            else:
                self._full = (
                    np.concatenate(ks, axis=2), np.concatenate(vs, axis=2)
                )
        return self._full

    def append(self, k: np.ndarray, v: np.ndarray):
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or v.ndim != 4:
            raise ValueError(
                f"cache entries must be 4-D (batch, heads, seq, head_dim); "
                f"got k{k.shape}, v{v.shape}"
            )
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        base = self._shared_k if self._tail_k is None else self._tail_k
        if base is not None:
            expected = (base.shape[0], base.shape[1], base.shape[3])
            got = (k.shape[0], k.shape[1], k.shape[3])
            if expected != got:
                raise ValueError(
                    f"appended entry (batch, heads, head_dim)={got} does not "
                    f"match cached {expected}"
                )
        if self._tail_k is None:
            self._tail_k, self._tail_v = k, v
        else:
            self._tail_k = np.concatenate([self._tail_k, k], axis=2)
            self._tail_v = np.concatenate([self._tail_v, v], axis=2)
        self._full = None
        return self._materialize()

    def truncate(self, n: int) -> None:
        """Keep the first ``n`` positions; COW if ``n`` cuts into the
        shared prefix (the shared arrays themselves are never touched)."""
        n = int(n)
        if n < 0 or n > self.length:
            raise ValueError(f"truncate({n}) out of range for length {self.length}")
        shared = self.shared_length
        if n >= shared:
            keep = n - shared
            if keep == 0:
                self._tail_k = self._tail_v = None
            elif keep < self.tail_length:
                self._tail_k = self._tail_k[:, :, :keep, :]
                self._tail_v = self._tail_v[:, :, :keep, :]
        else:
            # Copy-on-write: own the kept slice, release the shared arrays.
            kept_k = self._shared_k[:, :, :n, :].copy() if n else None
            kept_v = self._shared_v[:, :, :n, :].copy() if n else None
            self._tail_k, self._tail_v = kept_k, kept_v
            self._detach()
        self._full = None

    def reset(self) -> None:
        self._tail_k = self._tail_v = None
        self._full = None
        if self._shared_k is not None:
            self._detach()

    def clone(self) -> "KVCache":
        """Independent private copy (a plain :class:`KVCache`)."""
        other = KVCache()
        if self.length:
            k, v = self._materialize()
            other.k = k.copy()
            other.v = v.copy()
        return other

    # -- shared-prefix lifecycle ---------------------------------------
    def rebase(self, shared_k: np.ndarray, shared_v: np.ndarray) -> None:
        """Swap in longer shared arrays that subsume the current content.

        Used when a request's freshly prefilled prompt suffix is promoted
        into the prefix trie: the new shared arrays must equal the view's
        current full content (same length), and the private tail empties.
        """
        shared_k = np.asarray(shared_k)
        shared_v = np.asarray(shared_v)
        if self.detached:
            raise ValueError("cannot rebase a detached view")
        if shared_k.shape[2] != self.length:
            raise ValueError(
                f"rebase length {shared_k.shape[2]} != cached length {self.length}"
            )
        self._shared_k, self._shared_v = shared_k, shared_v
        self._was_attached = True
        self._tail_k = self._tail_v = None
        self._full = None

    def _detach(self) -> None:
        self._shared_k = self._shared_v = None
        if self._on_detach is not None:
            callback, self._on_detach = self._on_detach, None
            callback()


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (LLaMA-style, RoPE, no qkv bias).

    ``num_kv_heads`` < ``num_heads`` enables grouped-query attention
    (GQA): key/value projections are shared across groups of query heads,
    shrinking both the projection GEMMs and the KV cache.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        max_len: int = 512,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        rope_base: float = 10000.0,
        num_kv_heads: Optional[int] = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        num_kv_heads = num_kv_heads or num_heads
        if num_heads % num_kv_heads != 0:
            raise ValueError(
                f"num_heads {num_heads} not divisible by num_kv_heads {num_kv_heads}"
            )
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.num_kv_heads = num_kv_heads
        self.head_dim = dim // num_heads
        self.kv_dim = self.head_dim * num_kv_heads
        self.max_len = max_len
        self.q_proj = Linear(dim, dim, bias=False, rng=rng)
        self.k_proj = Linear(dim, self.kv_dim, bias=False, rng=rng)
        self.v_proj = Linear(dim, self.kv_dim, bias=False, rng=rng)
        self.o_proj = Linear(dim, dim, bias=False, rng=rng)
        self.attn_dropout = Dropout(dropout)
        cos, sin = rope_tables(self.head_dim, max_len, base=rope_base)
        self.register_buffer("rope_cos", cos)
        self.register_buffer("rope_sin", sin)

    def _split_heads(self, x: Tensor, num_heads: Optional[int] = None) -> Tensor:
        batch, seq, _ = x.shape
        heads = num_heads or self.num_heads
        return x.reshape(batch, seq, heads, self.head_dim).transpose(0, 2, 1, 3)

    def _expand_kv(self, x: Tensor) -> Tensor:
        """Repeat kv heads across their query groups (differentiable)."""
        if self.num_kv_heads == self.num_heads:
            return x
        group = self.num_heads // self.num_kv_heads
        batch, kv_heads, seq, hd = x.shape
        expanded = x.reshape(batch, kv_heads, 1, seq, hd) * np.ones(
            (1, 1, group, 1, 1), dtype=np.float32
        )
        return expanded.reshape(batch, kv_heads * group, seq, hd)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, seq, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * hd)

    def forward(
        self,
        x: Tensor,
        cache: Optional[KVCache] = None,
        key_padding_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Attend over ``x`` (batch, seq, dim); causal within the sequence.

        With ``cache`` given, ``x`` is treated as a suffix continuing the
        cached prefix (incremental decoding); gradients are not tracked
        through cached state.

        ``key_padding_mask`` is a boolean array, True at PAD positions;
        those keys are excluded from every query's attention.  Without a
        cache it is ``(batch, seq)``; with a cache it covers the whole key
        axis, ``(batch, cache.length + seq)``.
        """
        batch, seq, _ = x.shape
        offset = cache.length if cache is not None else 0
        total = offset + seq
        if key_padding_mask is not None and key_padding_mask.shape != (batch, total):
            raise ValueError(
                f"key_padding_mask shape {key_padding_mask.shape} != {(batch, total)}"
            )
        if total > self.max_len:
            raise ValueError(f"sequence length {total} exceeds max_len {self.max_len}")

        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x), self.num_kv_heads)
        v = self._split_heads(self.v_proj(x), self.num_kv_heads)
        q = apply_rope(q, self.rope_cos, self.rope_sin, offset=offset)
        k = apply_rope(k, self.rope_cos, self.rope_sin, offset=offset)

        if cache is not None:
            # Cached in kv-head layout: GQA shrinks the cache itself.
            k_full, v_full = cache.append(k.data, v.data)
            k = Tensor(k_full)
            v = Tensor(v_full)
        k = self._expand_kv(k)
        v = self._expand_kv(v)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        # Causal mask over key-array order: the query at array position
        # offset+i may attend to keys at array positions <= offset+i.
        q_pos = np.arange(offset, offset + seq)[:, None]
        k_pos = np.arange(total)[None, :]
        mask = k_pos > q_pos
        if key_padding_mask is not None:
            # (B, 1, 1, total) broadcast over heads and query positions.
            pad = key_padding_mask.astype(bool)[:, None, None, :]
            mask = mask | pad
        if mask.any():
            scores = masked_fill(scores, mask, -1e9)
        weights = softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        out = self._merge_heads(weights @ v)
        return self.o_proj(out)

    def forward_decode(
        self,
        x: Tensor,
        k_prefix: Tensor,
        v_prefix: Tensor,
        mask: Tensor,
        cos_t: Tensor,
        sin_t: Tensor,
    ):
        """Capture-friendly decode: every dynamic value is an operand.

        Unlike :meth:`forward`, nothing here depends on python-level state
        that changes between steps — the cache prefix, the combined
        causal+pad mask and the per-row RoPE tables all flow in as
        (graph-input) Tensors, so a captured graph replays correctly for
        any batch of requests with the same (batch, prefix, seq) shape.

        * ``x``: ``(batch, seq, dim)`` suffix hidden states.
        * ``k_prefix``/``v_prefix``: ``(batch, kv_heads, P, head_dim)``
          cached keys/values, zero-padded rows masked via ``mask``.
        * ``mask``: bool ``(batch, 1, seq, P + seq)`` — True where a key
          must not be attended (padding tails and intra-suffix causality).
        * ``cos_t``/``sin_t``: ``(batch, 1, seq, head_dim // 2)`` RoPE
          tables gathered at each row's true positions.

        Returns ``(out, k_new, v_new)`` where ``k_new``/``v_new`` are the
        suffix's cache entries ``(batch, kv_heads, seq, head_dim)``.
        Keys sit in ``[valid prefix | pad | suffix]`` array order: masked
        positions score ``-1e9`` and underflow to exactly 0 in softmax,
        so bucket padding carries no attention weight.
        """
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x), self.num_kv_heads)
        v = self._split_heads(self.v_proj(x), self.num_kv_heads)
        q = rope(q, cos_t, sin_t)
        k_new = rope(k, cos_t, sin_t)
        k_all = concat([k_prefix, k_new], axis=2)
        v_all = concat([v_prefix, v], axis=2)
        k_exp = self._expand_kv(k_all)
        v_exp = self._expand_kv(v_all)
        scores = (q @ k_exp.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        scores = masked_fill(scores, mask, -1e9)
        weights = softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        out = self._merge_heads(weights @ v_exp)
        return self.o_proj(out), k_new, v

    def extra_repr(self) -> str:
        return f"dim={self.dim}, heads={self.num_heads}"
