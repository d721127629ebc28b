"""Multi-head causal self-attention with rotary position embeddings."""

from __future__ import annotations

import mmap
import weakref
from typing import List, Optional, Sequence

import numpy as np

from ..obs import get_registry
from ..tensor import Tensor, kv_write, masked_fill, rope, softmax
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
    """One layer's key/value cache, written in place.

    The cache holds ``length`` positions of a ``(batch, kv_heads,
    capacity, head_dim)`` buffer; ``k``/``v`` are views of its first
    ``length`` positions (None while empty).  ``append`` writes new
    positions after them; ``truncate`` and ``reset`` only change the
    length, so a rolled-back position is simply overwritten by the next
    append.

    A fresh cache owns a private buffer that doubles as it grows.  A
    serving engine *binds* a request's batch-1 caches to one slot of its
    :class:`KVStore`; from then on the buffer is that slot's row of the
    store, the capacity is the model's ``max_len``, and ``reset`` hands
    the slot back (the caches return to private buffers).
    """

    def __init__(self):
        self._k: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self.length = 0
        # Set while bound: the store, this request's slot, and this layer.
        self.store: Optional["KVStore"] = None
        self.slot = -1
        self.layer = -1

    def _buffers(self):
        """The whole ``(k, v)`` buffers this cache writes into (None, None
        before a private cache's first append)."""
        if self.store is None:
            return self._k, self._v
        s = self.slot
        return (self.store.k[self.layer, s : s + 1],
                self.store.v[self.layer, s : s + 1])

    @property
    def k(self) -> Optional[np.ndarray]:
        return self._buffers()[0][:, :, : self.length] if self.length else None

    @property
    def v(self) -> Optional[np.ndarray]:
        return self._buffers()[1][:, :, : self.length] if self.length else None

    def append(self, k: np.ndarray, v: np.ndarray):
        """Write ``k``/``v`` ``(batch, kv_heads, seq, head_dim)`` after the
        cached positions; returns views of the whole cached ``(k, v)``."""
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or v.ndim != 4:
            raise ValueError(
                f"cache entries must be 4-D (batch, heads, seq, head_dim); "
                f"got k{k.shape}, v{v.shape}"
            )
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        buf_k, buf_v = self._buffers()
        n = self.length
        end = n + k.shape[2]
        got = k.shape[:2] + k.shape[3:]
        cached = None if buf_k is None else buf_k.shape[:2] + buf_k.shape[3:]
        if cached != got and (n or self.store is not None):
            raise ValueError(
                f"appended entry (batch, heads, head_dim)={got} does not "
                f"match cached {cached}"
            )
        if cached != got or end > buf_k.shape[2]:
            if self.store is not None:
                raise ValueError(
                    f"sequence length {end} exceeds max_len "
                    f"{self.store.max_len} (the cache holds {n} tokens)"
                )
            buf_k, buf_v = self._grow(k, end)
        buf_k[:, :, n:end] = k
        buf_v[:, :, n:end] = v
        self.length = end
        return buf_k[:, :, :end], buf_v[:, :, :end]

    def _grow(self, like: np.ndarray, end: int):
        """A private buffer for ``end`` positions shaped like ``like``,
        at least double the old one, keeping the cached positions."""
        n = self.length
        capacity = end if self._k is None else max(end, 2 * self._k.shape[2])
        shape = like.shape[:2] + (capacity, like.shape[3])
        dtype = like.dtype if not n else np.result_type(self._k, like)
        k = np.empty(shape, dtype)
        v = np.empty(shape, dtype)
        if n:
            k[:, :, :n] = self._k[:, :, :n]
            v[:, :, :n] = self._v[:, :, :n]
        self._k, self._v = k, v
        return k, v

    def truncate(self, n: int) -> None:
        """Drop cached entries beyond the first ``n`` positions."""
        n = int(n)
        if n < 0 or n > self.length:
            raise ValueError(f"truncate({n}) out of range for length {self.length}")
        self.length = n

    def reset(self) -> None:
        """Empty the cache (equivalent to ``truncate(0)``); a bound cache
        also lets go of its store slot."""
        self.length = 0
        if self.store is not None:
            self.store.release(self)

    def clone(self) -> "KVCache":
        """Independent private copy (used to fork decoding hypotheses)."""
        other = KVCache()
        if self.length:
            other.append(self.k, self.v)
        return other


class KVStore:
    """Preallocated key/value storage for many requests' caches.

    Per layer, ``k[layer]`` and ``v[layer]`` are ``(slots, kv_heads,
    max_len, head_dim)`` arrays.  A request owns one slot in every layer:
    :meth:`bind` gives its per-layer :class:`KVCache` list the next slot
    and copies what they hold into it, after which they read and append
    through the store.  The used slots stay dense, ``[0, rows)``: when a
    request lets go of its slot (every cache reset, or collected), the
    highest slot moves into the hole, so a batch of requests is one
    contiguous run of slots unless they were bound in another order
    (:meth:`group` swaps them into one).  Slots are added on demand,
    doubling.  The arrays live in an anonymous memory mapping, so a slot
    position becomes resident only once something writes it (``np.zeros``
    may hand out heap memory that earlier arrays already made resident).
    """

    def __init__(self, num_layers: int, kv_heads: int, max_len: int,
                 head_dim: int, dtype=np.float32):
        self.num_layers = num_layers
        self.max_len = max_len
        self.rows = 0
        # Per used slot, weak references to its caches (one per layer):
        # a request that drops its caches without resetting them frees
        # its slot at the next bind.
        self._owners: List[List[weakref.ref]] = []
        self._data = _mapped_zeros((2, num_layers, 0, kv_heads, max_len, head_dim), dtype)
        self.k, self.v = self._data

    @property
    def slots(self) -> int:
        return self._data.shape[2]

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def bind(self, caches: Sequence[KVCache]) -> int:
        """Give ``caches`` (one batch-1 cache per layer) a slot, copying
        what they hold into it; returns the slot."""
        if len(caches) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} per-layer caches, got {len(caches)}"
            )
        row = self._data.shape[3:4] + self._data.shape[5:]
        for cache in caches:
            if cache.store is self:
                raise ValueError("cache is already bound to this store")
            if cache.length and (cache.k.shape[0] != 1 or
                                 cache.k.shape[1:2] + cache.k.shape[3:] != row):
                raise ValueError(
                    f"cache {cache.k.shape} does not fit a store slot {row}"
                )
            if cache.length > self.max_len:
                raise ValueError(
                    f"cache holds {cache.length} tokens > max_len {self.max_len}"
                )
        self._sweep()
        if self.rows == self.slots:
            self._resize(max(1, 2 * self.slots))
        slot = self.rows
        for layer, cache in enumerate(caches):
            n = cache.length
            if n:
                self.k[layer, slot, :, :n] = cache.k[0]
                self.v[layer, slot, :, :n] = cache.v[0]
            if cache.store is not None:
                cache.store.release(cache)
            cache._k = cache._v = None
            cache.length = n
            cache.store, cache.slot, cache.layer = self, slot, layer
        self._owners.append([weakref.ref(c) for c in caches])
        self.rows += 1
        return slot

    def release(self, cache: KVCache) -> None:
        """Unbind ``cache``; its slot is freed once none of its caches
        holds it any more."""
        slot = cache.slot
        cache.store, cache.slot, cache.layer = None, -1, -1
        if not self._held(slot):
            self._free(slot)

    def group(self, slots: Sequence[int]) -> int:
        """Swap slots so that ``slots`` become one contiguous run at an end
        of ``[0, rows)``, whichever end already holds more of them;
        returns the run's first slot.  Counted on ``serve/kv/slot_swaps``."""
        n = len(slots)
        wanted = set(slots)
        head, tail = range(n), range(self.rows - n, self.rows)
        run = max((head, tail), key=lambda r: len(wanted.intersection(r)))
        outside = [s for s in slots if s not in run]
        free = [s for s in run if s not in wanted]
        for a, b in zip(outside, free):
            self._swap(a, b)
        get_registry().counter("serve/kv/slot_swaps").inc(len(outside))
        return run.start

    # -- internals -----------------------------------------------------
    def _live(self, slot: int, layer: int) -> Optional[KVCache]:
        cache = self._owners[slot][layer]()
        return cache if cache is not None and cache.store is self else None

    def _held(self, slot: int) -> bool:
        return any(self._live(slot, layer) for layer in range(self.num_layers))

    def _sweep(self) -> None:
        """Free every slot whose caches were all collected unreset."""
        for slot in reversed(range(self.rows)):
            if not self._held(slot):
                self._free(slot)

    def _copy_row(self, src: int, dst: int, layer: int, n: int) -> None:
        self.k[layer, dst, :, :n] = self.k[layer, src, :, :n]
        self.v[layer, dst, :, :n] = self.v[layer, src, :, :n]

    def _free(self, slot: int) -> None:
        """Move the highest slot into ``slot`` and drop the highest."""
        last = self.rows - 1
        if slot != last:
            for layer in range(self.num_layers):
                cache = self._live(last, layer)
                if cache is not None:
                    self._copy_row(last, slot, layer, cache.length)
                    cache.slot = slot
            self._owners[slot] = self._owners[last]
        self._owners.pop()
        self.rows -= 1

    def _swap(self, a: int, b: int) -> None:
        for layer in range(self.num_layers):
            ca, cb = self._live(a, layer), self._live(b, layer)
            na = ca.length if ca is not None else 0
            k = self.k[layer, a, :, :na].copy()
            v = self.v[layer, a, :, :na].copy()
            if cb is not None:
                self._copy_row(b, a, layer, cb.length)
                cb.slot = a
            self.k[layer, b, :, :na] = k
            self.v[layer, b, :, :na] = v
            if ca is not None:
                ca.slot = b
        self._owners[a], self._owners[b] = self._owners[b], self._owners[a]

    def _resize(self, slots: int) -> None:
        old_k, old_v = self.k, self.v
        shape = self._data.shape
        self._data = _mapped_zeros(shape[:2] + (slots,) + shape[3:], self._data.dtype)
        self.k, self.v = self._data
        for slot in range(self.rows):
            for layer in range(self.num_layers):
                cache = self._live(slot, layer)
                if cache is not None:
                    n = cache.length
                    self.k[layer, slot, :, :n] = old_k[layer, slot, :, :n]
                    self.v[layer, slot, :, :n] = old_v[layer, slot, :, :n]


def _mapped_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array in a fresh anonymous mapping: its pages become
    resident when first written, and return to the OS with the array."""
    count = int(np.prod(shape))
    nbytes = max(count * np.dtype(dtype).itemsize, 1)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype, count=count).reshape(shape)


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
        k_store: Tensor,
        v_store: Tensor,
        mask: Tensor,
        cos_t: Tensor,
        sin_t: Tensor,
        pos: Tensor,
    ) -> Tensor:
        """Capture-friendly decode: every dynamic value is an operand.

        Unlike :meth:`forward`, nothing here depends on python-level state
        that changes between steps — the cache store views, the mask, the
        per-row RoPE tables and positions all flow in as (graph-input)
        Tensors, so a captured graph replays correctly for any batch of
        requests with the same (batch, width, seq) shape.

        * ``x``: ``(batch, seq, dim)`` hidden states of the new positions.
        * ``k_store``/``v_store``: ``(batch, kv_heads, W, head_dim)`` views
          of the rows' cache slots, keys in true-position order.
        * ``mask``: bool ``(batch, 1, seq, W)`` — True where a key lies
          past the query's own position.
        * ``cos_t``/``sin_t``: ``(batch, 1, seq, head_dim // 2)`` RoPE
          tables gathered at each row's true positions.
        * ``pos``: ``(batch,)`` each row's cached length, where its first
          new position goes.

        The new keys/values are written into the store views in place
        (:func:`~repro.tensor.kv_write`) before attention reads them, so
        a decode step copies no cached position.  Masked keys — padding,
        stale entries past a row's length, later suffix positions — score
        ``-1e9`` and underflow to exactly 0 in softmax.
        """
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x), self.num_kv_heads)
        v = self._split_heads(self.v_proj(x), self.num_kv_heads)
        q = rope(q, cos_t, sin_t)
        k_all = kv_write(k_store, rope(k, cos_t, sin_t), pos)
        v_all = kv_write(v_store, v, pos)
        k_exp = self._expand_kv(k_all)
        v_exp = self._expand_kv(v_all)
        scores = (q @ k_exp.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        scores = masked_fill(scores, mask, -1e9)
        weights = softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        out = self._merge_heads(weights @ v_exp)
        return self.o_proj(out)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, heads={self.num_heads}"
