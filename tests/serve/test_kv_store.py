"""The engine's KV store: one preallocated slot per request.

Decode, voted-segment, draft and verify graphs take views of the store
as inputs and write each new position in place, so no captured graph
concatenates anything and a steady decode step copies no cached
position.  Slots stay dense as requests come and go, recycled handles
bind to free slots, the store grows on demand, and a step past
``max_len`` raises before anything is written.
"""

import collections

import numpy as np
import pytest

from repro.adaptive import ExitHeadSet
from repro.obs import MetricsRegistry, use_registry
from repro.serve import CachePool, GenerationEngine
from repro.tensor import graph_capture

from .test_engine_graph import EXIT_THRESHOLD, greedy, prefill_entries, voter

PROMPTS8 = [[1 + i, 2, 3 + i, 4] + [i] * i for i in range(8)]


def op_counts(graph):
    return collections.Counter(step.op.name for step in graph.steps)


def store_views(engine, arrays):
    return [a for a in arrays
            if np.shares_memory(a, engine.store.k) or np.shares_memory(a, engine.store.v)]


class TestGraphStructure:
    def test_no_concat_and_two_writes_per_layer(self, pretrained_model, pretrain_corpus):
        """Every captured plain decode, voted segment, draft and verify
        graph writes k and v once per layer it runs and concatenates
        nothing."""
        n = pretrained_model.num_layers
        engines = {
            "decode": GenerationEngine(pretrained_model),
            "vote": GenerationEngine(
                pretrained_model, voting=voter(pretrained_model, pretrain_corpus),
                confidence_threshold=EXIT_THRESHOLD,
            ),
            "spec": GenerationEngine(
                pretrained_model, draft_heads=ExitHeadSet(pretrained_model, exit_points=[3]),
                draft_exit=3, draft_k=3,
            ),
        }
        with graph_capture(True):
            greedy(engines["decode"], prefill_entries(engines["decode"]), 2)
            greedy(engines["vote"], prefill_entries(engines["vote"]), 2)
            engines["spec"].speculative_decode_step(prefill_entries(engines["spec"]))
        kinds = collections.Counter()
        for engine in engines.values():
            for key, graph in engine._graphs._graphs.items():
                layers = {"decode": n, "draft": 3, "verify": n - 3}.get(key[0])
                if key[0] == "vote":
                    layers = key[4] - key[3]
                ops = op_counts(graph)
                assert ops["concat"] == 0, key
                assert ops["kv_write"] == 2 * layers, key
                kinds[key[0]] += 1
        assert set(kinds) == {"decode", "vote", "draft", "verify"}


class TestSteadyDecode:
    def test_stable_batch_hands_the_graph_store_views(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        entries = prefill_entries(engine, PROMPTS8)
        seen = []
        apply = engine._graph_apply

        def spy(key, arrays, build):
            seen.append(store_views(engine, arrays))
            return apply(key, arrays, build)

        engine._graph_apply = spy
        reg = MetricsRegistry()
        with graph_capture(True), use_registry(reg):
            greedy(engine, entries, 5)
        assert len(seen) == 5
        assert all(len(views) == 2 * pretrained_model.num_layers for views in seen)
        assert reg.counter("serve/kv/slot_swaps").value == 0
        assert [e.caches[0].slot for e in entries] == list(range(8))

    def test_scattered_rows_are_grouped_once(self, pretrained_model):
        """Rows that are not one run of slots are swapped into one, then
        stay there; the tokens match a fresh engine's."""
        engine = GenerationEngine(pretrained_model)
        entries = prefill_entries(engine)
        picked = [entries[2], entries[0]]
        reg = MetricsRegistry()
        with graph_capture(True), use_registry(reg):
            tokens = greedy(engine, picked, 4)
        assert reg.counter("serve/kv/slot_swaps").value == 1
        fresh = GenerationEngine(pretrained_model)
        again = prefill_entries(fresh)
        assert greedy(fresh, [again[2], again[0]], 4) == tokens


class TestSlots:
    def serve(self, model, pool, engine, rid, prompt):
        block = pool.allocate(rid, 32)
        engine.prefill(prompt, block)
        return block

    def test_retiring_a_middle_row_keeps_slots_dense(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        pool = CachePool(pretrained_model.num_layers, 1_000)
        blocks = [self.serve(pretrained_model, pool, engine, f"r{i}", p)
                  for i, p in enumerate(PROMPTS8[:4])]
        kept = [blocks[i] for i in (0, 2, 3)]
        before = [[c.k.copy() for c in block] for block in kept]
        pool.release("r1")
        assert engine.store.rows == 3
        assert sorted(block[0].slot for block in kept) == [0, 1, 2]
        for block, ks in zip(kept, before):
            assert len({c.slot for c in block}) == 1
            for cache, k in zip(block, ks):
                np.testing.assert_array_equal(cache.k, k)

    def test_recycled_handles_bind_to_a_free_slot(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        pool = CachePool(pretrained_model.num_layers, 1_000)
        first = self.serve(pretrained_model, pool, engine, "a", [1, 2, 3])
        self.serve(pretrained_model, pool, engine, "b", [4, 5])
        pool.release("a")
        assert first[0].store is None and first[0].length == 0
        again = self.serve(pretrained_model, pool, engine, "c", [6, 7, 8, 9])
        assert again is first
        assert engine.store.rows == 2
        assert {c.slot for c in again} == {1}
        assert all(c.length == 4 for c in again)

    def test_store_grows_past_its_first_slots(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        entries = prefill_entries(engine, PROMPTS8[:1])
        first = engine.store.slots
        ks = [c.k.copy() for c in entries[0].caches]
        entries += prefill_entries(engine, PROMPTS8[1:6])
        assert engine.store.slots > first
        assert engine.store.rows == 6
        for cache, k in zip(entries[0].caches, ks):
            np.testing.assert_array_equal(cache.k, k)

    @pytest.mark.parametrize("capture", [False, True])
    def test_past_max_len_raises_and_leaves_the_store(self, pretrained_model, capture):
        limit = pretrained_model.config.max_len
        engine = GenerationEngine(pretrained_model)
        entries = prefill_entries(engine, [[i % 30 for i in range(limit)], [1, 2]])
        snapshot = engine.store._data.copy()
        with graph_capture(capture), pytest.raises(
            ValueError, match=f"holds {limit} tokens"
        ):
            engine.decode_step(entries)
        assert engine.store._data.tobytes() == snapshot.tobytes()
        assert [e.caches[0].length for e in entries] == [limit, 2]
