"""Fuzz/invariant suite for the prefix trie and the prefix-sharing pool.

The trie is exercised two ways:

* **Model-based fuzz**: random interleavings of insert/pin/release/
  evict are mirrored against a brute-force oracle (a set of stored
  token sequences plus a multiset of outstanding leases).  After every
  op the trie's resident tokens, refcounts and stored prefixes must
  match the oracle exactly — catching double frees, refcount drift and
  lost segments.
* **Position-stamped KV integrity**: cache entries are synthesized as a
  deterministic function of (layer, position, token), so any pinned
  path's segments can be checked value-for-value no matter how nodes were split,
  merged or evicted along the way.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.obs import use_registry
from repro.serve.cache_pool import CachePool, PrefixTrie

LAYERS = 2
HEADS = 2
HEAD_DIM = 4


def stamped_kv(tokens, num_layers=LAYERS):
    """Per-layer arrays whose every entry encodes (layer, position, token).

    Value at ``[0, h, p, d] = layer * 10_000 + p * 100 + token`` — unique
    per position, so sliced/split/concatenated segments stay checkable.
    """
    seq = len(tokens)
    ks, vs = [], []
    for layer in range(num_layers):
        base = np.array(
            [layer * 10_000 + p * 100 + tokens[p] for p in range(seq)],
            dtype=np.float32,
        )
        k = np.broadcast_to(
            base[None, None, :, None], (1, HEADS, seq, HEAD_DIM)
        ).copy()
        ks.append(k)
        vs.append(k + 0.5)
    return ks, vs


def check_leased(tokens, length, k_list, v_list):
    """Leased arrays must cover positions [0, length) with exact stamps."""
    expect_k, expect_v = stamped_kv(list(tokens[:length]))
    for layer in range(LAYERS):
        np.testing.assert_array_equal(
            k_list[layer][:, :, :length, :], expect_k[layer]
        )
        np.testing.assert_array_equal(
            v_list[layer][:, :, :length, :], expect_v[layer]
        )


def pin_segments(trie, tokens, max_tokens=None):
    """``trie.pin``, plus the pinned path's segments concatenated per
    layer: ``(length, k_list, v_list)`` covering ``[0, length)``."""
    length, path = trie.pin(tokens, max_tokens)
    if not path:
        return 0, [], []
    k_list = [np.concatenate([node.k[layer] for node in path], axis=2)
              for layer in range(trie.num_layers)]
    v_list = [np.concatenate([node.v[layer] for node in path], axis=2)
              for layer in range(trie.num_layers)]
    return length, k_list, v_list


class Oracle:
    """Brute-force reference: stored sequences + outstanding leases."""

    def __init__(self):
        self.stored = set()  # every stored prefix, one entry per token run
        self.leases = []  # outstanding leased prefixes (tuples)

    def unique_tokens(self):
        """Deduplicated token count: the union of stored prefixes is a
        prefix-closed set, so unique tokens = number of distinct
        non-empty prefixes of stored sequences."""
        prefixes = set()
        for seq in self.stored:
            for i in range(1, len(seq) + 1):
                prefixes.add(seq[:i])
        return len(prefixes)

    def match(self, tokens):
        tokens = tuple(tokens)
        best = 0
        prefixes = set()
        for seq in self.stored:
            for i in range(1, len(seq) + 1):
                prefixes.add(seq[:i])
        for i in range(1, len(tokens) + 1):
            if tokens[:i] in prefixes:
                best = i
        return best

    def pinned_prefixes(self):
        """Set of prefixes pinned by some outstanding lease (every
        ancestor of a leased path is pinned)."""
        pinned = set()
        for lease in self.leases:
            for i in range(1, len(lease) + 1):
                pinned.add(lease[:i])
        return pinned


class TestTrieBasics:
    def test_insert_then_match(self):
        trie = PrefixTrie(LAYERS)
        tokens = (1, 2, 3, 4)
        trie.insert(tokens, *stamped_kv(list(tokens)))
        assert trie.match(tokens) == 4
        assert trie.match((1, 2, 9)) == 2
        assert trie.match((9,)) == 0
        assert trie.resident_tokens() == 4

    def test_insert_suffix_extends_not_duplicates(self):
        trie = PrefixTrie(LAYERS)
        trie.insert((1, 2), *stamped_kv([1, 2]))
        added = trie.insert((1, 2, 3, 4), *stamped_kv([1, 2, 3, 4]))
        assert added == 2
        assert trie.resident_tokens() == 4

    def test_divergent_insert_splits_node(self):
        trie = PrefixTrie(LAYERS)
        trie.insert((1, 2, 3), *stamped_kv([1, 2, 3]))
        trie.insert((1, 2, 9), *stamped_kv([1, 2, 9]))
        assert trie.resident_tokens() == 4  # 1,2 shared; 3 and 9 diverge
        assert trie.match((1, 2, 3)) == 3
        assert trie.match((1, 2, 9)) == 3

    def test_lease_returns_stamped_arrays(self):
        trie = PrefixTrie(LAYERS)
        tokens = (5, 6, 7, 8, 9)
        trie.insert(tokens, *stamped_kv(list(tokens)))
        length, ks, vs = pin_segments(trie, tokens)
        assert length == 5
        check_leased(tokens, length, ks, vs)
        trie.release(tokens, length)

    def test_lease_mid_node_splits_and_stamps(self):
        trie = PrefixTrie(LAYERS)
        tokens = (5, 6, 7, 8)
        trie.insert(tokens, *stamped_kv(list(tokens)))
        length, ks, vs = pin_segments(trie, tokens, max_tokens=2)
        assert length == 2
        check_leased(tokens, 2, ks, vs)
        # Split must not lose the tail.
        assert trie.match(tokens) == 4
        trie.release(tokens, 2)

    def test_release_unknown_path_raises(self):
        trie = PrefixTrie(LAYERS)
        trie.insert((1, 2), *stamped_kv([1, 2]))
        with pytest.raises(KeyError):
            trie.release((9, 9), 2)

    def test_double_release_raises(self):
        trie = PrefixTrie(LAYERS)
        tokens = (1, 2, 3)
        trie.insert(tokens, *stamped_kv(list(tokens)))
        length, _ = trie.pin(tokens)
        trie.release(tokens, length)
        with pytest.raises(RuntimeError, match="double release"):
            trie.release(tokens, length)

    def test_evict_spares_pinned(self):
        trie = PrefixTrie(LAYERS)
        a, b = (1, 2, 3), (7, 8)
        trie.insert(a, *stamped_kv(list(a)))
        trie.insert(b, *stamped_kv(list(b)))
        length, _ = trie.pin(a)
        with use_registry():
            freed = trie.evict(100)
        assert freed == 2  # only the unpinned (7, 8)
        assert trie.match(a) == 3
        assert trie.match(b) == 0
        trie.release(a, length)

    def test_evict_is_lru_leaf_up(self):
        trie = PrefixTrie(LAYERS)
        old, new = (1, 2), (3, 4)
        trie.insert(old, *stamped_kv(list(old)))
        trie.insert(new, *stamped_kv(list(new)))
        # Touch `old` so `new` becomes the LRU victim.
        length, _ = trie.pin(old)
        trie.release(old, length)
        with use_registry():
            trie.evict(2)
        assert trie.match(old) == 2
        assert trie.match(new) == 0


class TestTrieFuzz:
    """Random op interleavings checked against the brute-force oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        trie = PrefixTrie(LAYERS)
        oracle = Oracle()
        # Small alphabet + short sequences force heavy prefix overlap,
        # node splits and mid-span leases.
        def random_tokens():
            return tuple(
                int(t) for t in rng.integers(0, 3, size=int(rng.integers(1, 7)))
            )

        outstanding = []  # (tokens, length) mirror of oracle.leases
        with use_registry():
            for _ in range(300):
                op = rng.choice(["insert", "pin", "release", "evict"])
                if op == "insert":
                    tokens = random_tokens()
                    added = trie.insert(tokens, *stamped_kv(list(tokens)))
                    before = oracle.unique_tokens()
                    oracle.stored.add(tokens)
                    assert added == oracle.unique_tokens() - before
                elif op == "pin":
                    tokens = random_tokens()
                    cap = (
                        int(rng.integers(0, len(tokens) + 1))
                        if rng.random() < 0.5 else None
                    )
                    length, ks, vs = pin_segments(trie, tokens, max_tokens=cap)
                    expect = oracle.match(tokens)
                    if cap is not None:
                        expect = min(expect, cap)
                    assert length == expect
                    if length:
                        check_leased(tokens, length, ks, vs)
                        outstanding.append((tokens, length))
                        oracle.leases.append(tokens[:length])
                elif op == "release" and outstanding:
                    i = int(rng.integers(0, len(outstanding)))
                    tokens, length = outstanding.pop(i)
                    oracle.leases.remove(tokens[:length])
                    trie.release(tokens, length)
                elif op == "evict":
                    freed = trie.evict(int(rng.integers(1, 6)))
                    # Whatever was evicted must not include pinned paths;
                    # rebuild the oracle's stored set from survivors.
                    if freed:
                        survivors = set()
                        for seq in oracle.stored:
                            kept = trie.match(seq)
                            if kept:
                                survivors.add(seq[:kept])
                        oracle.stored = survivors

                # -- invariants, every op --------------------------------
                assert trie.resident_tokens() == oracle.unique_tokens()
                pinned = oracle.pinned_prefixes()
                assert trie.pinned_tokens() == len(pinned)
                # Every pinned path must still be stored (never evicted).
                for prefix in pinned:
                    assert trie.match(prefix) == len(prefix)
                # debug_state refcounts: each node's refcount equals the
                # number of outstanding leases whose path covers it.
                for path, span, refcount in trie.debug_state():
                    covering = sum(
                        1 for lease in oracle.leases
                        if lease[: len(path)] == path
                    )
                    assert refcount == covering, (path, span)

            # Drain every lease: refcounts must hit zero exactly then.
            for tokens, length in outstanding:
                trie.release(tokens, length)
            assert trie.pinned_tokens() == 0
            assert all(rc == 0 for _, _, rc in trie.debug_state())
            # Now everything is evictable.
            trie.evict(10_000)
            assert trie.resident_tokens() == 0


class TestPoolSharingFuzz:
    """CachePool-level invariants under random admit/commit/release."""

    @pytest.mark.parametrize("seed", range(4))
    def test_occupancy_reflects_unique_blocks(self, seed):
        rng = np.random.default_rng(100 + seed)
        with use_registry():
            pool = CachePool(LAYERS, 10_000, share_prefixes=True)
            live = {}  # request_id -> prompt
            counter = 0
            for _ in range(120):
                op = rng.choice(["admit", "commit", "promote", "release"])
                if op == "admit":
                    counter += 1
                    rid = f"r{counter}"
                    prompt = [
                        int(t)
                        for t in rng.integers(0, 3, size=int(rng.integers(2, 8)))
                    ]
                    block, cached = pool.allocate_shared(rid, prompt, 64)
                    assert block[0].length == cached <= len(prompt) - 1
                    # Simulate prefill of the uncached suffix.
                    ks, vs = stamped_kv(prompt)
                    for layer in range(LAYERS):
                        block[layer].append(
                            ks[layer][:, :, cached:, :],
                            vs[layer][:, :, cached:, :],
                        )
                    live[rid] = prompt
                elif op == "commit" and live:
                    rid = sorted(live)[int(rng.integers(0, len(live)))]
                    prompt = live[rid]
                    pool.commit_prefix(rid, prompt)
                    # Post-commit content must be byte-identical.
                    block = pool._leases[rid].block
                    check_leased(
                        prompt, len(prompt),
                        [c.k for c in block], [c.v for c in block],
                    )
                elif op == "promote" and live:
                    rid = sorted(live)[int(rng.integers(0, len(live)))]
                    pool.promote_and_release(rid, live.pop(rid))
                elif op == "release" and live:
                    rid = sorted(live)[int(rng.integers(0, len(live)))]
                    del live[rid]
                    pool.release(rid)

                # Occupancy accounting: resident tokens equal the sum of
                # live unique blocks — each request's tokens past its
                # leased prefix once per request, trie segments once each.
                private = sum(
                    lease.block[0].length - lease.shared_len
                    for lease in pool._leases.values()
                )
                assert pool.resident_tokens() == (
                    private + pool.trie.resident_tokens()
                )
                assert pool.trie.pinned_tokens() <= pool.trie.resident_tokens()
                assert 0.0 <= pool.occupancy()

            for rid in list(live):
                pool.release(rid)
            assert pool.reserved_tokens == 0
            assert pool.trie.pinned_tokens() == 0

    def test_lessee_writes_never_reach_the_trie(self):
        """A lease copies the trie path into the lessee's block, so the
        lessee's appends, truncations and rewrites leave the trie's
        segments — and the other lessees' copies — exactly as stored."""
        with use_registry():
            pool = CachePool(LAYERS, 1_000, share_prefixes=True)
            prompt = [1, 2, 3, 4, 5]
            block, cached = pool.allocate_shared("a", prompt, 32)
            assert cached == 0
            ks, vs = stamped_kv(prompt)
            for layer in range(LAYERS):
                block[layer].append(ks[layer], vs[layer])
            pool.commit_prefix("a", prompt)

            other, cached_b = pool.allocate_shared("b", prompt, 32)
            assert cached_b == len(prompt) - 1
            segments = [a.copy() for node in pool.trie._iter_nodes()
                        for a in node.k + node.v]
            check_leased(prompt, cached_b,
                         [c.k for c in other], [c.v for c in other])
            # "b" rolls back into its leased prefix (speculative-style),
            # overwrites it and grows past it.
            for cache in other:
                cache.truncate(2)
                cache.append(*[np.full((1, HEADS, 6, HEAD_DIM), -7.0,
                                       dtype=np.float32)] * 2)
                cache.k[...] = -9.0
            after = [a for node in pool.trie._iter_nodes() for a in node.k + node.v]
            assert len(after) == len(segments)
            assert all(np.array_equal(a, b) for a, b in zip(after, segments))
            check_leased(
                prompt, len(prompt),
                [c.k for c in block], [c.v for c in block],
            )
            length, trie_k, trie_v = pin_segments(pool.trie, prompt)
            check_leased(prompt, length, trie_k, trie_v)
            pool.trie.release(prompt[:length], length)
            pool.release("a")
            pool.release("b")

    def test_eviction_makes_room_for_admission(self):
        with use_registry():
            pool = CachePool(LAYERS, 20, share_prefixes=True)
            prompt = [1, 2, 3, 4, 5, 6, 7, 8]
            block, _ = pool.allocate_shared("a", prompt, 10)
            ks, vs = stamped_kv(prompt)
            for layer in range(LAYERS):
                block[layer].append(ks[layer], vs[layer])
            pool.commit_prefix("a", prompt)
            pool.release("a")
            # Trie holds 8 unpinned tokens; a 20-token reservation still
            # fits because unpinned segments are evicted on demand.
            assert pool.can_reserve(20)
            pool.allocate("b", 20)
            assert pool.trie.resident_tokens() == 0
            pool.release("b")


class TestTrieMemory:
    """Nodes hold their parents weakly: trie KV arrays are freed by
    refcount alone, never left waiting for the cyclic collector."""

    def fill_pool(self):
        pool = CachePool(LAYERS, 1_000, share_prefixes=True)
        # The second prompt leases the first's head, splitting its node.
        for rid, prompt in (("a", [1, 2, 3, 4, 5, 6]), ("b", [1, 2, 3, 9, 9])):
            block, cached = pool.allocate_shared(rid, prompt, len(prompt) + 2)
            ks, vs = stamped_kv(prompt)
            for layer, cache in enumerate(block):
                cache.append(ks[layer][:, :, cached:], vs[layer][:, :, cached:])
            pool.commit_prefix(rid, prompt)
            pool.release(rid)
        assert pool.trie.node_count() == 3
        return pool

    def kv_refs(self, nodes):
        return [weakref.ref(a) for node in nodes for a in node.k + node.v]

    def test_dropped_pool_frees_trie_kv(self):
        gc.collect()
        gc.disable()
        try:
            pool = self.fill_pool()
            refs = self.kv_refs(pool.trie._iter_nodes())
            del pool
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_evicted_nodes_free_their_kv(self):
        gc.collect()
        gc.disable()
        try:
            pool = self.fill_pool()
            refs = self.kv_refs(pool.trie._iter_nodes())
            assert pool.trie.evict(1_000) == 8
            assert pool.trie.node_count() == 0
            assert all(r() is None for r in refs)
        finally:
            gc.enable()
