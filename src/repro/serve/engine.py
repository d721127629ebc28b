"""Generation engine: prefill + batched incremental decode over KV caches.

The engine turns the repo's scoring-only model stack into a
request-level generation runtime:

* **One KV store.**  The engine owns a
  :class:`~repro.nn.attention.KVStore`: per layer, a k and a v array of
  shape ``(slots, kv_heads, max_len, head_dim)``.  A request's cache is a
  (slot, length) handle into it — its per-layer
  :class:`~repro.nn.attention.KVCache` list (leased from the cache
  pool), which the engine binds to a slot the first time it sees it.
* **Prefill** runs a request's prompt through the model once (batch 1),
  appending its entries into the request's slot in place and returning
  last-position logits for the first sampled token.
* **Batched decode** advances many resident requests one token in a
  single model forward.  The rows run as one contiguous slice of slots:
  per layer, the graph takes ``(batch, kv_heads, W, head_dim)`` views of
  the store, where ``W`` is the longest row plus the new positions
  rounded up to ``DECODE_BUCKET`` (capped at ``max_len``), writes each
  row's new key/value at its own position in place (``kv_write``), and
  attends with keys past each query's position masked
  (``TransformerBlock.forward_decode``).  Keys sit in true-position
  order and each row's RoPE tables are gathered at its true position.
  No step copies a cached position, and no graph concatenates anything.
  Batch 1 is a batch of one.
* **Voting decode** replaces the final head with the calibrated mixture
  of exit heads (:class:`~repro.adaptive.VotingCombiner`), computed
  through the combiner's logits-only fast path on last-position logits.
  It runs the same blocks on the same store views, one segment between
  consecutive exit points at a time.  With a
  ``confidence_threshold``, decoding exits early per row: the shallowest
  exit whose own max-probability clears the threshold decides that row's
  token, and the mixture is renormalized over the exits actually
  computed.  Skipped layers still receive a cache entry for the token —
  key/value projections of the exit hidden state (CALM-style state
  propagation), written into the row's slot — so any later token may run
  the full depth.

Graph capture is a cache over that one path, switched by the process-wide
toggle (:func:`repro.tensor.graph_capture`).  With capture on, plain,
speculative and voted steps replay a graph captured once per (kind,
batch, width) key — voted decode one per exit segment — with the store
views, mask, positions and RoPE tables as inputs.  With capture off,
every step traces the same builds into the same store — the reference
the capture on ≡ off tests compare against, byte for byte.  Every graph
pins the module structure counter
(:func:`repro.nn.module.structure_version`), so a structural rewrite
anywhere (slicing, surgery, a new buffer) re-captures instead of
replaying stale structure.

Determinism: a request's logits depend only on its own slot (masked
keys score ``-1e9`` and underflow to exactly 0 in softmax), so decode
tokens are identical whether requests are batched or served one at a
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
  when every draft survived).  Drafts write the shallow layers and the
  verify pass the deep layers of each row's slot in place; accepting
  ``a`` drafts advances the row's length by ``a + 1``, so rollback is a
  length change.  Because every emitted token is the argmax
  of full-depth logits conditioned on previously emitted tokens, greedy
  speculative decode is token-identical to vanilla greedy decode;
  ``draft_k=0`` *is* the vanilla engine.

Counters (active ``repro.obs`` registry): ``serve/prefills``,
``serve/prefill_tokens``, ``serve/decode_steps``, ``serve/decode_tokens``,
``serve/early_exit_tokens``, ``serve/kv/slot_swaps`` (store slots swapped
so that a decode call's rows form one run; zero while the batch is
stable), and for speculative decoding
``serve/spec/{cycles,rows,draft_tokens,accepted_tokens,emitted_tokens}``
(``emitted == accepted + rows`` — each row of each cycle emits its
accepted run plus exactly one full-model token).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.attention import KVCache, KVStore, apply_rope
from ..nn.module import structure_version
from ..obs import get_registry
from ..tensor import (
    GraphCache,
    GraphRecorder,
    Tensor,
    graph_capture_enabled,
    no_grad,
)

# Attention widths round up to a multiple of this, so one captured
# graph serves a range of cache lengths; keys past each row's own
# positions are masked and bitwise-neutral.
DECODE_BUCKET = 32


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class GenerationEngine:
    """Prefill/decode runtime over per-request KV caches in one store.

    Decode entries are any objects exposing ``caches`` (the request's
    per-layer ``KVCache`` list) and ``last_token`` (the most recent token
    id, prompt tail or last generated) — the scheduler's active-request
    records satisfy this.  The engine binds each entry's caches to a slot
    of its :class:`~repro.nn.attention.KVStore` the first time it sees
    them (normally at :meth:`prefill`).  It puts the model in eval mode
    at construction and runs everything under ``no_grad``.
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
        # Decode-step graphs, keyed per (kind, batch, width[, ...]).
        self._graphs = GraphCache()
        attn = model.blocks[0].attn
        self.store = KVStore(
            model.num_layers, attn.num_kv_heads, attn.max_len, attn.head_dim
        )
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

        The caches are bound to a store slot first, and the prompt's
        entries are appended into it in place.  Every layer runs (the
        prompt's cache entries must be exact), so early exit here affects
        only which exits vote on the returned logits, not the cached
        state.

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
        if caches[0].store is not self.store:
            self.store.bind(caches)
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
                    per_exit[point] = self._exit_logits(point, hidden).data[:, -1, :]
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
        rows = _Rows(self, entries, 1)
        reg = get_registry()
        reg.counter("serve/decode_steps").inc()
        reg.counter("serve/decode_tokens").inc(len(entries))
        ids = np.array([[e.last_token] for e in rows.entries], dtype=np.int64)
        cos_t, sin_t = self._rope_slices(rows.pos, 1)
        inputs = [ids, rows.mask(0, 1), cos_t, sin_t, rows.pos]
        with no_grad():
            if self.voting is None:
                logits = self._decode_plain(inputs, rows)
                early = np.zeros(len(entries), dtype=bool)
            else:
                logits, early = self._decode_voting(inputs, rows)
        rows.advance(np.ones(len(entries), dtype=np.int64))
        return rows.restore(logits), rows.restore(early)

    def _decode_plain(self, inputs, rows):
        """Final-head decode through :meth:`_graph_apply`."""
        model = self.model
        n = self.num_layers

        def build(tensors):
            ids_t, mask_t, cos_t, sin_t, pos_t = tensors[:5]
            hidden = model.run_blocks_decode(
                model.embed_tokens(ids_t), tensors[5 : 5 + n], tensors[5 + n :],
                mask_t, cos_t, sin_t, pos_t,
            )
            return [model.head(hidden)]

        key = ("decode", rows.batch, rows.width)
        (logits,) = self._graph_apply(key, inputs + rows.ks + rows.vs, build)
        return logits[:, -1, :]

    def _decode_voting(self, inputs, rows):
        """Voted decode through :meth:`_graph_apply`: one build per
        segment between consecutive exit points, returning the segment's
        hidden state and the exit logits at its end; its blocks write
        their new k/v into the store.  The first segment takes the token
        ids, later ones the previous segment's hidden state.

        Between segments, a row leaves at its first confident exit; it
        keeps riding along (outputs discarded) until every row has left.
        Then each of its skipped layers gets, in its slot, the cache
        entry :meth:`_propagate_kv` projects from the frozen exit hidden
        state — over whatever the ride-along wrote there."""
        model = self.model
        n = self.num_layers
        batch = rows.batch
        per_exit: Dict[int, np.ndarray] = {}
        exit_depth = np.full(batch, n, dtype=np.int64)
        frozen: List[Optional[np.ndarray]] = [None] * batch
        hidden = inputs[0]
        start = 0
        for stop in self.voting.exit_points:
            if (exit_depth < n).all():
                break
            width = stop - start

            def build(tensors, start=start, stop=stop, width=width):
                hid_t, mask_t, cos_tt, sin_tt, pos_t = tensors[:5]
                if start == 0:
                    hid_t = model.embed_tokens(hid_t)
                hid_t = model.run_blocks_decode(
                    hid_t, tensors[5 : 5 + width], tensors[5 + width :],
                    mask_t, cos_tt, sin_tt, pos_t, start, stop,
                )
                return [hid_t, self._exit_logits(stop, hid_t)]

            key = ("vote", batch, rows.width, start, stop)
            hidden, logits = self._graph_apply(
                key,
                [hidden] + inputs[1:] + rows.ks[start:stop] + rows.vs[start:stop],
                build,
            )
            per_exit[stop] = logits[:, -1, :]
            if stop < n:
                newly = (exit_depth == n) & self._confident(per_exit[stop])
                exit_depth[newly] = stop
                for b in np.flatnonzero(newly):
                    frozen[b] = hidden[b, -1].copy()
            start = stop
        for layer in range(n):
            for b in np.flatnonzero(exit_depth <= layer):
                p = int(rows.pos[b])
                k, v = self._propagate_kv(layer, frozen[b], p)
                rows.ks[layer][b, :, p] = k[0, :, 0]
                rows.vs[layer][b, :, p] = v[0, :, 0]
                frozen[b] = self._identity_advance(layer, frozen[b])
        early = exit_depth < n
        if early.any():
            get_registry().counter("serve/early_exit_tokens").inc(int(early.sum()))
        return self._combine_rows(per_exit, exit_depth), early

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
        longest = max(e.caches[0].length for e in entries)
        k = min(self.draft_k, self.store.max_len - longest - 1)
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
        """Draft/verify cycle through :meth:`_graph_apply`: ``k + 1``
        replays of one draft build (shallow blocks + draft head, one
        position each) and one full-depth verify build over the ``k + 1``
        suffix.  Drafts write the shallow layers at ``pos + j``, verify
        writes the deep layers at ``pos .. pos + k``; accepting ``a``
        drafts advances a row by ``a + 1``, and the rejected positions
        past it are masked until a later step overwrites them."""
        model = self.model
        d = self.draft_exit
        num_layers = self.num_layers
        rows = _Rows(self, entries, k + 1)
        batch = rows.batch
        tokens = np.array([e.last_token for e in rows.entries], dtype=np.int64)
        drafts = np.empty((batch, k), dtype=np.int64)
        taps: List[np.ndarray] = []
        key = ("draft", batch, rows.width, d)

        def build(tensors):
            ids_t, mask_t, cos_tt, sin_tt, pos_t = tensors[:5]
            hidden = model.run_blocks_decode(
                model.embed_tokens(ids_t), tensors[5 : 5 + d], tensors[5 + d :],
                mask_t, cos_tt, sin_tt, pos_t, 0, d,
            )
            return [hidden, self.draft_heads.logits_at(d, hidden)]

        for j in range(k + 1):
            pos = rows.pos + j
            cos_t, sin_t = self._rope_slices(pos, 1)
            arrays = [tokens[:, None], rows.mask(j, 1), cos_t, sin_t, pos]
            hidden, logits = self._graph_apply(
                key, arrays + rows.ks[:d] + rows.vs[:d], build
            )
            taps.append(hidden)
            if j < k:
                tokens = logits[:, -1, :].argmax(axis=-1)
                drafts[:, j] = tokens
        cos_t, sin_t = self._rope_slices(rows.pos, k + 1)
        suffix = np.concatenate(taps, axis=1)
        key = ("verify", batch, rows.width, k, d)

        def build_verify(tensors):
            hid_t, mask_t, cos_tt, sin_tt, pos_t = tensors[:5]
            hidden = model.run_blocks_decode(
                hid_t, tensors[5 : 5 + num_layers - d], tensors[5 + num_layers - d :],
                mask_t, cos_tt, sin_tt, pos_t, d, num_layers,
            )
            return [model.head(hidden)]

        (logits,) = self._graph_apply(
            key,
            [suffix, rows.mask(0, k + 1), cos_t, sin_t, rows.pos]
            + rows.ks[d:] + rows.vs[d:],
            build_verify,
        )
        verify = logits.argmax(axis=-1)  # (batch, k+1)
        accepted = np.zeros(batch, dtype=np.int64)
        result: List[List[int]] = []
        for b in range(batch):
            a = 0
            while a < k and drafts[b, a] == verify[b, a]:
                a += 1
            accepted[b] = a
            result.append([int(t) for t in drafts[b, :a]] + [int(verify[b, a])])
        rows.advance(accepted + 1)
        return [result[i] for i in rows.inverse], rows.restore(accepted)

    # ------------------------------------------------------------------
    # the store path shared by every decode mode
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
        snapshot = structure_version()
        recorder = GraphRecorder()
        with recorder:
            tensors = []
            for a in arrays:
                t = Tensor(a)
                recorder.add_input(t)
                tensors.append(t)
            outputs = build(tensors)
        # Structural rewrites (slicing, surgery, a new buffer) swap
        # whole objects, which per-leaf version checks cannot see; pin
        # the module structure counter so any rewrite forces a
        # re-capture instead of a stale replay.
        recorder.add_guard(lambda: structure_version() == snapshot)
        cache.store(key, recorder.finalize(outputs=outputs))
        return [np.asarray(o.data) for o in outputs]

    def _rope_slices(self, positions: np.ndarray, seq: int):
        """Per-row cos/sin tables ``(batch, 1, seq, head_dim // 2)``."""
        attn = self.model.blocks[0].attn
        pos = positions[:, None] + np.arange(seq)
        return (
            attn.rope_cos[pos][:, None, :, :],
            attn.rope_sin[pos][:, None, :, :],
        )

    # -- voting helpers ------------------------------------------------
    def _exit_logits(self, point: int, hidden: Tensor) -> Tensor:
        """Last-position logits ``(batch, 1, vocab)`` for one exit point:
        the exit head's, or the model's own head at full depth."""
        last = hidden[:, -1:, :]
        if point == self.num_layers:
            return self.model.head(last)
        return self.voting.exit_heads.logits_at(point, last)

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


class _Rows:
    """One decode call's rows in the store.

    Checks that ``seq`` new positions fit every entry under ``max_len``
    (raising before anything is touched), binds entries the store has not
    seen, and makes their slots one contiguous run — the usual case costs
    nothing, a batch bound in another order is swapped into one.  The
    rows run sorted by slot: ``entries``, ``pos`` (each row's length) and
    the per-layer store views ``ks``/``vs`` ``(batch, kv_heads, width,
    head_dim)``, where ``width`` is the longest row plus ``seq``, bucketed
    and capped at ``max_len``.  :meth:`restore` puts a per-row result
    back in the caller's order.
    """

    def __init__(self, engine: GenerationEngine, entries: Sequence, seq: int):
        store = engine.store
        lengths = [e.caches[0].length for e in entries]
        longest = max(lengths)
        if longest + seq > store.max_len:
            raise ValueError(
                f"sequence length {longest + seq} exceeds max_len "
                f"{store.max_len} (a request holds {longest} tokens)"
            )
        for e in entries:
            if e.caches[0].store is not store:
                store.bind(e.caches)
        slots = [e.caches[0].slot for e in entries]
        self.batch = n = len(entries)
        if len(set(slots)) != n:
            raise ValueError("an entry appears twice in one decode call")
        lo = min(slots)
        if max(slots) - lo + 1 != n:
            lo = store.group(slots)
            slots = [e.caches[0].slot for e in entries]
        self.order = np.argsort(slots)
        self.inverse = np.argsort(self.order)
        self.entries = [entries[i] for i in self.order]
        self.pos = np.array(lengths, dtype=np.int64)[self.order]
        rounded = -(-(longest + seq) // DECODE_BUCKET) * DECODE_BUCKET
        self.width = width = min(rounded, store.max_len)
        self.ks = [store.k[layer, lo : lo + n, :, :width]
                   for layer in range(store.num_layers)]
        self.vs = [store.v[layer, lo : lo + n, :, :width]
                   for layer in range(store.num_layers)]

    def mask(self, offset: int, seq: int) -> np.ndarray:
        """True where a key lies past the query's own position, for
        ``seq`` queries from ``pos + offset``: ``(batch, 1, seq, width)``."""
        q = self.pos[:, None] + (offset + np.arange(seq))
        return (np.arange(self.width) > q[:, :, None])[:, None]

    def advance(self, counts: np.ndarray) -> None:
        """Grow row ``b``'s caches by ``counts[b]`` written positions."""
        for entry, count in zip(self.entries, counts.tolist()):
            for cache in entry.caches:
                cache.length += count

    def restore(self, values: np.ndarray) -> np.ndarray:
        """``values`` (in slot order) in the caller's entry order."""
        return values[self.inverse]
