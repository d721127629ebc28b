"""Generation engine: prefill + batched incremental decode over KV caches.

The engine turns the repo's scoring-only model stack into a
request-level generation runtime:

* **Prefill** runs a request's prompt through the model once (batch 1),
  filling that request's per-layer cache block and returning last-position
  logits for the first sampled token.
* **Batched decode** advances many resident requests one token in a
  single model forward.  Each request keeps its own per-layer
  :class:`~repro.nn.attention.KVCache` block (leased from the cache
  pool).  Every step runs on one padded-slab layout: per layer, the
  blocks are stacked into a ``(batch, kv_heads, bucket, head_dim)`` slab
  whose width is the longest row rounded up to ``DECODE_BUCKET``, each
  row's padding tail is masked, and each row's RoPE tables are gathered
  at its true position (``TransformerBlock.forward_decode``).  One commit
  step then appends the new key/value entries to the per-request blocks.
  Batch 1 is a batch of one.
* **Voting decode** replaces the final head with the calibrated mixture
  of exit heads (:class:`~repro.adaptive.VotingCombiner`), computed
  through the combiner's logits-only fast path on last-position logits.
  It runs the same blocks on the same slabs one at a time.  With a
  ``confidence_threshold``, decoding exits early per row: the shallowest
  exit whose own max-probability clears the threshold decides that row's
  token, and the mixture is renormalized over the exits actually
  computed.  Skipped layers still receive a cache entry for the token —
  key/value projections of the exit hidden state (CALM-style state
  propagation) — so any later token may run the full depth.

Graph capture is a cache over that one path, switched by the process-wide
toggle (:func:`repro.tensor.graph_capture`).  With capture on, plain and
speculative steps replay a graph captured once per (batch, bucket)
shape, and the decode slabs persist across steps: the new token's k/v is
written in place and the slabs are revalidated against the per-request
blocks before reuse.  With capture off, every step re-stacks the slabs
and traces the same build — the stateless reference the capture
on ≡ off token tests compare against.  Voting decode is traced on the
slabs in both modes.

Determinism: a request's logits depend only on its own cache rows
(masked padding scores underflow to exactly 0 in softmax), so decode
results are identical whether requests are batched or served one at a
time.

Compressed models fold automatically: serving runs frozen and under
``no_grad``, so ``TransformedLinear`` layers hit their effective-weight
fold cache — the mask/quant composition is folded once, then every
prefill and decode step reuses it (see ``docs/architecture.md``).

* **Self-speculative decoding** (``draft_k > 0``) drafts ``k`` greedy
  tokens per request through a shallow exit head (blocks ``0..d-1`` plus
  the head at depth ``d``), then verifies them with a *single* full-depth
  batched pass over the ``k+1``-token suffix.  The verify pass reuses the
  draft's tap hidden states — the shallow blocks never run twice — and
  emits ``accepted + 1`` tokens per cycle (the accepted draft run plus
  the full model's own next token, a correction on mismatch or a bonus
  when every draft survived).  Only the accepted entries are committed
  to the per-request blocks.  Because every emitted token is the argmax
  of full-depth logits conditioned on previously emitted tokens, greedy
  speculative decode is token-identical to vanilla greedy decode;
  ``draft_k=0`` *is* the vanilla engine.

Counters (active ``repro.obs`` registry): ``serve/prefills``,
``serve/prefill_tokens``, ``serve/decode_steps``, ``serve/decode_tokens``,
``serve/early_exit_tokens``, and for speculative decoding
``serve/spec/{cycles,rows,draft_tokens,accepted_tokens,emitted_tokens}``
(``emitted == accepted + rows`` — each row of each cycle emits its
accepted run plus exactly one full-model token).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.attention import KVCache, apply_rope
from ..obs import get_registry
from ..tensor import (
    GraphCache,
    GraphRecorder,
    Tensor,
    fused_kernels_enabled,
    graph_capture_enabled,
    no_grad,
)

# Slab widths round up to a multiple of this, so one captured graph
# serves a range of cache lengths; the padding is masked and
# bitwise-neutral.
DECODE_BUCKET = 32


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class GenerationEngine:
    """Prefill/decode runtime over per-request KV-cache blocks.

    Decode entries are any objects exposing ``caches`` (the request's
    per-layer ``KVCache`` list) and ``last_token`` (the most recent token
    id, prompt tail or last generated) — the scheduler's active-request
    records satisfy this.  The engine puts the model in eval mode at
    construction and runs everything under ``no_grad``.
    """

    def __init__(
        self,
        model,
        voting=None,
        confidence_threshold: Optional[float] = None,
        draft_heads=None,
        draft_exit: Optional[int] = None,
        draft_k: int = 0,
    ):
        if confidence_threshold is not None:
            if voting is None:
                raise ValueError("confidence_threshold requires a voting combiner")
            if not 0.0 < confidence_threshold <= 1.0:
                raise ValueError("confidence_threshold must be in (0, 1]")
        if voting is not None:
            if voting.model is not model:
                raise ValueError("voting combiner was built for a different model")
            if voting.weights is None and voting.strategy != "confidence":
                raise ValueError("calibrate the voting combiner before serving")
        if draft_k < 0:
            raise ValueError("draft_k must be >= 0")
        if draft_k > 0:
            if draft_heads is None:
                raise ValueError("speculative decoding needs draft_heads")
            if voting is not None:
                raise ValueError(
                    "speculative decoding verifies against the plain final "
                    "head; it does not compose with voting decode"
                )
            if draft_exit is None:
                draft_exit = draft_heads.draft_exit_point()
            if draft_exit not in draft_heads.exit_points:
                raise ValueError(
                    f"no draft head at depth {draft_exit} "
                    f"(exits: {draft_heads.exit_points})"
                )
            if not 1 <= draft_exit < model.num_layers:
                raise ValueError(
                    f"draft_exit must lie in [1, {model.num_layers - 1}], "
                    f"got {draft_exit}"
                )
        self.model = model
        self.voting = voting
        self.confidence_threshold = confidence_threshold
        self.draft_heads = draft_heads
        self.draft_exit = draft_exit if draft_k > 0 else None
        self.draft_k = draft_k
        # Decode-step graphs, keyed per (kind, batch, bucket[, ...]).
        self._graphs = GraphCache()
        # Persistent decode slabs, kept only while capture is on:
        # ``(key, ks, vs)``, where ``key`` pins what the slabs mirror
        # (see :meth:`_slab_key`).
        self._slabs = None
        model.eval()

    @property
    def num_layers(self) -> int:
        return self.model.num_layers

    @property
    def speculative(self) -> bool:
        return self.draft_k > 0

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------
    def prefill(
        self,
        prompt: Sequence[int],
        caches: List[KVCache],
        cached_len: int = 0,
    ) -> np.ndarray:
        """Run the prompt into ``caches``; return last-position logits.

        Every layer runs (the prompt's cache entries must be exact), so
        early exit here affects only which exits vote on the returned
        logits, not the cached state.

        ``cached_len > 0`` marks a prefix-shared request: ``caches``
        already hold exact entries for ``prompt[:cached_len]`` (leased
        from the pool's prefix trie) and only the suffix is computed —
        incremental multi-token prefill over the cached prefix.
        """
        prompt = list(prompt)
        if not 0 <= cached_len < len(prompt):
            raise ValueError(
                f"cached_len {cached_len} out of range for a "
                f"{len(prompt)}-token prompt"
            )
        if cached_len and caches[0].length != cached_len:
            raise ValueError(
                f"caches hold {caches[0].length} tokens, expected {cached_len}"
            )
        ids = np.asarray(prompt[cached_len:], dtype=np.int64)[None, :]
        reg = get_registry()
        reg.counter("serve/prefills").inc()
        reg.counter("serve/prefill_tokens").inc(ids.shape[1])
        with no_grad():
            if self.voting is None:
                logits = self.model(ids, caches=caches)
                return logits.data[0, -1]
            per_exit: Dict[int, np.ndarray] = {}
            hidden = self.model.embed_tokens(ids)
            for i, block in enumerate(self.model.blocks):
                hidden = block(hidden, cache=caches[i])
                point = i + 1
                if point in self.voting.exit_points:
                    per_exit[point] = self._exit_logits(point, hidden)
            exit_depth = self._exit_depths(per_exit, batch=1)
            return self._combine_rows(per_exit, exit_depth)[0]

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def decode_step(self, entries: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Advance every entry one token in a single batched forward.

        Returns ``(logits, early_exited)``: last-position logits
        ``(batch, vocab)`` and a boolean flag per row marking tokens
        decided by a confident shallow exit.  Raises ``ValueError``,
        touching no cache, when an entry already holds ``max_len``
        tokens.
        """
        if not entries:
            raise ValueError("decode_step needs at least one entry")
        lengths = self._lengths(entries, 1)
        reg = get_registry()
        reg.counter("serve/decode_steps").inc()
        reg.counter("serve/decode_tokens").inc(len(entries))
        bucket = self._bucket_len(int(lengths.max()), 1)
        ks, vs = self._decode_slabs(entries, lengths, bucket)
        # seq == 1 at the last array position: causality is vacuous, only
        # the bucket-padding tails need masking.
        mask = self._pad_mask(lengths, bucket, bucket + 1)[:, None, None, :]
        cos_t, sin_t = self._rope_slices(lengths, 1)
        ids = np.array([[e.last_token] for e in entries], dtype=np.int64)
        inputs = [ids, mask, cos_t, sin_t]
        with no_grad():
            if self.voting is None:
                logits, new_ks, new_vs = self._decode_plain(inputs, ks, vs)
                early = np.zeros(len(entries), dtype=bool)
            else:
                logits, early, new_ks, new_vs = self._decode_voting(
                    inputs, ks, vs, lengths
                )
        self._commit(entries, new_ks, new_vs, np.ones(len(entries), dtype=np.int64))
        self._advance_slabs(entries, lengths, ks, vs, new_ks, new_vs)
        return logits, early

    def _decode_plain(self, inputs, ks, vs):
        """Final-head decode through :meth:`_graph_apply`."""
        model = self.model
        n = self.num_layers

        def build(tensors):
            ids_t, mask_t, cos_t, sin_t = tensors[:4]
            hidden, new_ks, new_vs = model.run_blocks_decode(
                model.embed_tokens(ids_t), tensors[4 : 4 + n], tensors[4 + n :],
                mask_t, cos_t, sin_t,
            )
            return [model.head(hidden)] + new_ks + new_vs

        key = ("decode", len(inputs[0]), ks[0].shape[2], fused_kernels_enabled())
        outs = self._graph_apply(key, inputs + ks + vs, build)
        return outs[0][:, -1, :], outs[1 : 1 + n], outs[1 + n :]

    def _decode_voting(self, inputs, ks, vs, lengths):
        """Voted decode, traced block by block on the slabs.

        A row leaves at its first confident exit; it keeps riding along
        (outputs discarded) until every row has left, and each of its
        skipped layers gets the cache entry :meth:`_propagate_kv`
        projects from the frozen exit hidden state."""
        model = self.model
        n = self.num_layers
        batch = len(lengths)
        ids, mask, cos_t, sin_t = inputs
        mask, cos_t, sin_t = Tensor(mask), Tensor(cos_t), Tensor(sin_t)
        per_exit: Dict[int, np.ndarray] = {}
        exit_depth = np.full(batch, n, dtype=np.int64)
        frozen: List[Optional[np.ndarray]] = [None] * batch
        new_ks: List[np.ndarray] = []
        new_vs: List[np.ndarray] = []
        hidden = model.embed_tokens(ids)
        for i, block in enumerate(model.blocks):
            if (exit_depth < n).all():
                break
            hidden, k_new, v_new = block.forward_decode(
                hidden, Tensor(ks[i]), Tensor(vs[i]), mask, cos_t, sin_t
            )
            new_ks.append(k_new.data)
            new_vs.append(v_new.data)
            point = i + 1
            if point in self.voting.exit_points:
                per_exit[point] = self._exit_logits(point, hidden)
                if point < n:
                    newly = (exit_depth == n) & self._confident(per_exit[point])
                    exit_depth[newly] = point
                    for b in np.flatnonzero(newly):
                        frozen[b] = hidden.data[b, -1].copy()
        for layer in range(n):
            rows = np.flatnonzero(exit_depth <= layer)
            if not rows.size:
                continue
            if layer == len(new_ks):  # no row ran this block
                new_ks.append(np.empty_like(new_ks[0]))
                new_vs.append(np.empty_like(new_vs[0]))
            for b in rows:
                k, v = self._propagate_kv(layer, frozen[b], int(lengths[b]))
                new_ks[layer][b], new_vs[layer][b] = k[0], v[0]
                frozen[b] = self._identity_advance(layer, frozen[b])
        early = exit_depth < n
        if early.any():
            get_registry().counter("serve/early_exit_tokens").inc(int(early.sum()))
        return self._combine_rows(per_exit, exit_depth), early, new_ks, new_vs

    # ------------------------------------------------------------------
    # speculative decode (draft k tokens shallow, verify full-depth once)
    # ------------------------------------------------------------------
    def speculative_decode_step(
        self, entries: Sequence, max_new: Optional[int] = None
    ) -> List[List[int]]:
        """Advance every entry by one draft/verify cycle (greedy only).

        Returns the emitted token ids per row: each row's accepted draft
        run plus one full-model token — between 1 and ``k + 1`` tokens.
        ``max_new`` optionally caps the emitted count per row (the draft
        length is clamped to ``max_new - 1``).  When the clamped draft
        length falls below 1 (row near ``max_len``, or ``max_new == 1``)
        the cycle degenerates to a vanilla :meth:`decode_step`.
        """
        if not self.speculative:
            raise ValueError("engine was not built with draft_k > 0")
        if not entries:
            raise ValueError("speculative_decode_step needs at least one entry")
        attn = self.model.blocks[0].attn
        longest = max(e.caches[0].length for e in entries)
        k = min(self.draft_k, attn.max_len - longest - 1)
        if max_new is not None:
            if max_new < 1:
                raise ValueError("max_new must be >= 1")
            k = min(k, max_new - 1)
        if k < 1:
            logits, _ = self.decode_step(entries)
            return [[int(row.argmax())] for row in logits]

        reg = get_registry()
        reg.counter("serve/decode_steps").inc()
        with no_grad():
            outs, accepted = self._speculative(entries, k)
        batch = len(entries)
        emitted = sum(len(o) for o in outs)
        reg.counter("serve/decode_tokens").inc(emitted)
        reg.counter("serve/spec/cycles").inc()
        reg.counter("serve/spec/rows").inc(batch)
        reg.counter("serve/spec/draft_tokens").inc(k * batch)
        reg.counter("serve/spec/accepted_tokens").inc(int(accepted.sum()))
        reg.counter("serve/spec/emitted_tokens").inc(emitted)
        return outs

    def _speculative(self, entries: Sequence, k: int):
        """Draft/verify cycle through :meth:`_graph_apply`: one build per
        draft offset ``j`` (shallow blocks + draft head) and one for the
        full-depth verify suffix.  Key arrays stay in ``[valid prefix |
        pad | suffix]`` order, so causality over array order holds."""
        model = self.model
        d = self.draft_exit
        batch = len(entries)
        num_layers = self.num_layers
        lengths0 = self._lengths(entries, k + 1)
        bucket = self._bucket_len(int(lengths0.max()), k + 1)
        ks, vs = self._stack_caches(entries, bucket)
        shallow_k, shallow_v = ks[:d], vs[:d]
        fused = fused_kernels_enabled()
        tokens = np.array([e.last_token for e in entries], dtype=np.int64)
        drafts = np.empty((batch, k), dtype=np.int64)
        taps: List[np.ndarray] = []
        for j in range(k + 1):
            total = bucket + j + 1
            mask = self._pad_mask(lengths0, bucket, total)[:, None, None, :]
            cos_t, sin_t = self._rope_slices(lengths0 + j, 1)
            arrays = [tokens[:, None], mask, cos_t, sin_t] + shallow_k + shallow_v
            want_logits = j < k
            key = ("draft", batch, bucket, j, d, want_logits, fused)

            def build(tensors, want_logits=want_logits):
                ids_t, mask_t, cos_tt, sin_tt = tensors[:4]
                hidden = model.embed_tokens(ids_t)
                hidden, new_ks, new_vs = model.run_blocks_decode(
                    hidden, tensors[4 : 4 + d], tensors[4 + d :],
                    mask_t, cos_tt, sin_tt, 0, d,
                )
                outputs = [hidden] + new_ks + new_vs
                if want_logits:
                    outputs.append(self.draft_heads.logits_at(d, hidden))
                return outputs

            outs = self._graph_apply(key, arrays, build)
            taps.append(outs[0])
            for i in range(d):
                shallow_k[i] = np.concatenate([shallow_k[i], outs[1 + i]], axis=2)
                shallow_v[i] = np.concatenate([shallow_v[i], outs[1 + d + i]], axis=2)
            if want_logits:
                tokens = outs[1 + 2 * d][:, -1, :].argmax(axis=-1)
                drafts[:, j] = tokens
        total = bucket + k + 1
        pad = self._pad_mask(lengths0, bucket, total)
        q_pos = np.arange(bucket, total)[:, None]
        k_pos = np.arange(total)[None, :]
        mask = (k_pos > q_pos)[None, None, :, :] | pad[:, None, None, :]
        cos_t, sin_t = self._rope_slices(lengths0, k + 1)
        suffix = np.concatenate(taps, axis=1)
        key = ("verify", batch, bucket, k, d, fused)

        def build_verify(tensors):
            hid_t, mask_t, cos_tt, sin_tt = tensors[:4]
            hidden, new_ks, new_vs = model.run_blocks_decode(
                hid_t, tensors[4 : 4 + num_layers - d], tensors[4 + num_layers - d :],
                mask_t, cos_tt, sin_tt, d, num_layers,
            )
            return [model.head(hidden)] + new_ks + new_vs

        outs = self._graph_apply(
            key, [suffix, mask, cos_t, sin_t] + ks[d:] + vs[d:], build_verify
        )
        verify = outs[0].argmax(axis=-1)  # (batch, k+1)
        accepted = np.zeros(batch, dtype=np.int64)
        result: List[List[int]] = []
        for b in range(batch):
            a = 0
            while a < k and drafts[b, a] == verify[b, a]:
                a += 1
            accepted[b] = a
            result.append([int(t) for t in drafts[b, :a]] + [int(verify[b, a])])
        new_ks = [s[:, :, bucket:, :] for s in shallow_k] + outs[1 : 1 + num_layers - d]
        new_vs = [s[:, :, bucket:, :] for s in shallow_v] + outs[1 + num_layers - d :]
        self._commit(entries, new_ks, new_vs, accepted + 1)
        return result, accepted

    # ------------------------------------------------------------------
    # the padded-slab path shared by every decode mode
    # ------------------------------------------------------------------
    def _graph_apply(self, key, arrays, build) -> List[np.ndarray]:
        """Run ``build`` (declared-input Tensors to output Tensors) on
        ``arrays``.  With capture on, replay the graph for ``key``,
        capturing it on first use; with capture off, or when the
        configuration turned out uncacheable, trace ``build``."""
        cache = self._graphs
        if not graph_capture_enabled() or cache.known_uncacheable(key):
            outs = build([Tensor(a) for a in arrays])
            return [np.asarray(o.data) for o in outs]
        graph = cache.lookup(key)
        if graph is not None:
            return graph.replay(arrays)
        recorder = GraphRecorder()
        with recorder:
            tensors = []
            for a in arrays:
                t = Tensor(a)
                recorder.add_input(t)
                tensors.append(t)
            outputs = build(tensors)
        # Structural rewrites (slicing, requantization) swap whole
        # parameter objects, which per-leaf version checks cannot see;
        # pin the parameter identity set so such rewrites force a
        # re-capture instead of a stale replay.
        snapshot = self._param_ids()
        recorder.add_guard(lambda: self._param_ids() == snapshot)
        cache.store(key, recorder.finalize(outputs=outputs))
        return [np.asarray(o.data) for o in outputs]

    def _param_ids(self) -> Tuple[int, ...]:
        ids = [id(p) for p in self.model.parameters()]
        if self.draft_heads is not None:
            ids.extend(id(p) for p in self.draft_heads.parameters())
        return tuple(ids)

    def _lengths(self, entries, seq: int) -> np.ndarray:
        """Per-row cache lengths, after checking that ``seq`` new
        positions fit under the model's max_len."""
        lengths = np.array([e.caches[0].length for e in entries], dtype=np.int64)
        limit = self.model.blocks[0].attn.max_len
        total = int(lengths.max()) + seq
        if total > limit:
            raise ValueError(f"sequence length {total} exceeds max_len {limit}")
        return lengths

    def _bucket_len(self, longest: int, seq: int) -> int:
        """Slab width: ``longest`` rounded up to the ``DECODE_BUCKET``
        grid, or ``longest`` itself when the rounded width would leave no
        room for ``seq`` new positions under the model's max_len."""
        rounded = -(-longest // DECODE_BUCKET) * DECODE_BUCKET
        limit = self.model.blocks[0].attn.max_len - seq
        return longest if rounded > limit else rounded

    def _rope_slices(self, positions: np.ndarray, seq: int):
        """Per-row cos/sin tables ``(batch, 1, seq, head_dim // 2)``."""
        attn = self.model.blocks[0].attn
        pos = positions[:, None] + np.arange(seq)
        return (
            attn.rope_cos[pos][:, None, :, :],
            attn.rope_sin[pos][:, None, :, :],
        )

    @staticmethod
    def _pad_mask(lengths: np.ndarray, bucket: int, total: int) -> np.ndarray:
        """True at the bucket-padding tail of each row ``(batch, total)``;
        positions at/after ``bucket`` (the appended suffix) stay valid."""
        idx = np.arange(total)[None, :]
        return (idx >= lengths[:, None]) & (idx < bucket)

    def _stack_caches(self, entries, width: int):
        """Per-layer k/v slabs ``(batch, kv_heads, width, head_dim)`` of
        every entry's cache, zero-padded past each row's length."""
        attn0 = self.model.blocks[0].attn
        shape = (len(entries), attn0.num_kv_heads, width, attn0.head_dim)
        ks, vs = [], []
        for layer in range(self.num_layers):
            k = np.zeros(shape, dtype=np.float32)
            v = np.zeros_like(k)
            for b, entry in enumerate(entries):
                src = entry.caches[layer]
                if src.length:
                    k[b, :, : src.length] = src.k[0]
                    v[b, :, : src.length] = src.v[0]
            ks.append(k)
            vs.append(v)
        return ks, vs

    def _slab_key(self, entries, lengths: np.ndarray, bucket: int):
        """What persistent slabs mirror: the batch composition, the
        per-row lengths and the identity of every authoritative cache
        array.  Any mutation the slab path did not make itself (eviction,
        preemption, a speculative cycle) changes the key."""
        return (
            bucket,
            tuple(id(e) for e in entries),
            tuple(lengths.tolist()),
            tuple(id(e.caches[layer].k) for layer in range(self.num_layers)
                  for e in entries),
        )

    def _decode_slabs(self, entries, lengths: np.ndarray, bucket: int):
        """The step's slabs: freshly stacked with capture off; with
        capture on, the persistent ones while their key still matches."""
        key = self._slab_key(entries, lengths, bucket) if graph_capture_enabled() else None
        if self._slabs is not None and self._slabs[0] == key:
            return self._slabs[1], self._slabs[2]
        self._slabs = None  # free the stale slabs before stacking new ones
        ks, vs = self._stack_caches(entries, bucket)
        if key is not None:
            self._slabs = (key, ks, vs)
        return ks, vs

    def _advance_slabs(self, entries, lengths, ks, vs, new_ks, new_vs) -> None:
        """Write the step's new k/v into the persistent slabs in place and
        re-arm their key for the next step."""
        if self._slabs is None:
            return
        bucket = ks[0].shape[2]
        if int(lengths.max()) >= bucket:
            # A row just filled its slab (clamped bucket); the next step
            # needs a wider stack anyway.
            self._slabs = None
            return
        rows = np.arange(len(entries))
        for layer in range(self.num_layers):
            ks[layer][rows, :, lengths, :] = new_ks[layer][:, :, 0, :]
            vs[layer][rows, :, lengths, :] = new_vs[layer][:, :, 0, :]
        self._slabs = (self._slab_key(entries, lengths + 1, bucket), ks, vs)

    @staticmethod
    def _commit(entries, new_ks, new_vs, keep: np.ndarray) -> None:
        """Append row ``b``'s first ``keep[b]`` new k/v positions of every
        layer to that row's own cache blocks."""
        for layer, (k_new, v_new) in enumerate(zip(new_ks, new_vs)):
            for b, entry in enumerate(entries):
                n = int(keep[b])
                entry.caches[layer].append(
                    k_new[b : b + 1, :, :n, :], v_new[b : b + 1, :, :n, :]
                )

    # -- voting helpers ------------------------------------------------
    def _exit_logits(self, point: int, hidden: Tensor) -> np.ndarray:
        """Last-position logits ``(batch, vocab)`` for one exit point."""
        last = hidden[:, -1:, :]
        if point == self.num_layers:
            logits = self.model.head(last)
        else:
            logits = self.voting.exit_heads.logits_at(point, last)
        return logits.data[:, -1, :]

    def _confident(self, logits: np.ndarray) -> np.ndarray:
        """Rows whose max softmax probability clears the threshold."""
        if self.confidence_threshold is None:
            return np.zeros(logits.shape[0], dtype=bool)
        probs = _softmax_np(logits)
        return probs.max(axis=-1) >= self.confidence_threshold

    def _exit_depths(self, per_exit: Dict[int, np.ndarray], batch: int) -> np.ndarray:
        """First confident exit per row (prefill: all exits available)."""
        depth = np.full(batch, self.num_layers, dtype=np.int64)
        if self.confidence_threshold is None:
            return depth
        undecided = np.ones(batch, dtype=bool)
        for point in self.voting.exit_points:
            if point >= self.num_layers:
                break
            newly = undecided & self._confident(per_exit[point])
            depth[newly] = point
            undecided &= ~newly
        return depth

    def _combine_rows(
        self, per_exit: Dict[int, np.ndarray], exit_depth: np.ndarray
    ) -> np.ndarray:
        """Voted log-prob mixture per row, renormalized to each row's depth."""
        all_points = self.voting.exit_points
        vocab = next(iter(per_exit.values())).shape[-1]
        out = np.empty((exit_depth.shape[0], vocab), dtype=np.float64)
        for depth in np.unique(exit_depth):
            rows = np.flatnonzero(exit_depth == depth)
            subset = [p for p in all_points if p <= depth]
            sub_logits = {p: per_exit[p][rows] for p in subset}
            points = None if len(subset) == len(all_points) else subset
            out[rows] = self.voting.combine_logits(sub_logits, points=points)
        return out

    def _propagate_kv(
        self, layer: int, hidden_last: np.ndarray, position: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cache entry for a skipped layer: k/v projected from the exit
        hidden state, exactly as the layer's attention would project its
        input (norm → projection → RoPE for k)."""
        block = self.model.blocks[layer]
        attn = block.attn
        h = block.attn_norm(Tensor(hidden_last.reshape(1, 1, -1)))
        k = attn._split_heads(attn.k_proj(h), attn.num_kv_heads)
        v = attn._split_heads(attn.v_proj(h), attn.num_kv_heads)
        k = apply_rope(k, attn.rope_cos, attn.rope_sin, offset=position)
        return k.data, v.data

    def _identity_advance(self, layer: int, hidden_last: np.ndarray) -> np.ndarray:
        """Carry a frozen exit hidden state past one skipped block along
        its identity residual path.  On unsliced models this is a no-op;
        a structurally sliced block (``repro.nn.slicing``) maps between
        junction bases via its shortcut rotations, so the frozen vector
        must follow ``attn_shortcut_Q @ mlp_shortcut_Q`` to stay in the
        next layer's input basis."""
        block = self.model.blocks[layer]
        for name in ("attn_shortcut_Q", "mlp_shortcut_Q"):
            q = getattr(block, name, None)
            if q is not None:
                hidden_last = hidden_last @ np.asarray(q)
        return hidden_last
