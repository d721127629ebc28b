"""Graph capture in the generation engine.

Capture on (replayed graphs over persistent decode slabs) must be
invisible next to capture off (slabs re-stacked and traced every step):
greedy outputs are equal exactly — including across batch membership
changes, and across structural slicing, where the graphs'
parameter-identity guards must invalidate every stale capture.  Voting
decode, which runs on the persistent slabs too, must match bitwise in
its voted logits and early-exit flags.  However many shapes it has
captured, the engine's graphs hold one step slab, sized to the largest
graph, and none of the KV slabs they were captured on.
"""

import weakref

import numpy as np

from repro.adaptive import ExitHeadSet, VotingCombiner
from repro.data import lm_batches
from repro.nn import TransformerLM
from repro.nn.slicing import rotate_and_slice
from repro.obs import MetricsRegistry, use_registry
from repro.serve import GenerationEngine
from repro.tensor import graph_capture

from ..conftest import small_config

PROMPTS = [[1, 2, 3, 4], [7, 1, 9], [4, 4, 9, 2, 5], [30, 0]]
# Early-exit thresholds at which some, not all, decode tokens exit.
EXIT_THRESHOLD = 0.5
SLICED_EXIT_THRESHOLD = 0.2


class Entry:
    def __init__(self, caches, last_token):
        self.caches = caches
        self.last_token = last_token


def prefill_entries(engine, prompts=PROMPTS):
    entries = []
    for prompt in prompts:
        caches = engine.model.new_caches()
        logits = engine.prefill(prompt, caches)
        entries.append(Entry(caches, int(logits.argmax())))
    return entries


def greedy(engine, entries, n, steps=None):
    """Greedy-decode ``n`` tokens; ``steps`` (a list) collects each
    step's ``(logits, early_exited)``."""
    tokens = [[] for _ in entries]
    for _ in range(n):
        logits, early = engine.decode_step(entries)
        if steps is not None:
            steps.append((logits.copy(), early.copy()))
        nxt = logits.argmax(axis=-1)
        for b, entry in enumerate(entries):
            entry.last_token = int(nxt[b])
            tokens[b].append(entry.last_token)
    return tokens


def clone(pretrained_state):
    model = TransformerLM(small_config())
    model.load_state_dict(pretrained_state)
    return model


def calib_ids(corpus, seed=5):
    ids, _ = next(lm_batches(corpus, 4, 24, 1, np.random.default_rng(seed)))
    return ids


def voter(model, corpus):
    """A calibrated voting combiner over exits 2, 4 and the final head."""
    combiner = VotingCombiner(model, ExitHeadSet(model, exit_points=[2, 4]))
    combiner.calibrate(*next(lm_batches(corpus, 4, 24, 1, np.random.default_rng(0))))
    return combiner


def assert_steps_bitwise(a, b):
    assert len(a) == len(b)
    for (logits_a, early_a), (logits_b, early_b) in zip(a, b):
        assert logits_a.dtype == logits_b.dtype
        assert logits_a.tobytes() == logits_b.tobytes()
        assert early_a.tobytes() == early_b.tobytes()


class TestTokenIdentity:
    def test_decode_tokens_identical(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        results = {}
        for capture in (False, True):
            with graph_capture(capture):
                results[capture] = greedy(engine, prefill_entries(engine), 10)
        assert results[True] == results[False]

    def test_decode_identical_across_batch_changes(
        self, pretrained_model, pretrain_corpus
    ):
        """Entries leaving and rejoining the batch (eviction/readmission)
        invalidate the persistent decode slabs, never the tokens — nor,
        with voting, the voted logits and early-exit flags."""
        voting = voter(pretrained_model, pretrain_corpus)
        for kwargs in (
            {},
            {"voting": voting},
            {"voting": voting, "confidence_threshold": EXIT_THRESHOLD},
        ):
            engine = GenerationEngine(pretrained_model, **kwargs)
            results, steps = {}, {}
            for capture in (False, True):
                steps[capture] = []
                reg = MetricsRegistry()
                with graph_capture(capture), use_registry(reg):
                    entries = prefill_entries(engine)
                    tokens = greedy(engine, entries, 3, steps[capture])
                    sub = greedy(engine, entries[:2], 3, steps[capture])  # two rows evicted
                    back = greedy(engine, entries, 3, steps[capture])     # and readmitted
                    results[capture] = (tokens, sub, back)
                if "confidence_threshold" in kwargs:
                    assert reg.counter("serve/early_exit_tokens").value > 0
            assert results[True] == results[False]
            assert_steps_bitwise(steps[True], steps[False])

    def test_speculative_tokens_identical(self, pretrained_model):
        heads = ExitHeadSet(pretrained_model, exit_points=[3])
        results = {}
        for capture in (False, True):
            engine = GenerationEngine(
                pretrained_model, draft_heads=heads, draft_exit=3, draft_k=3
            )
            with graph_capture(capture):
                entries = prefill_entries(engine)
                tokens = [[e.last_token] for e in entries]
                while min(len(t) for t in tokens) < 12:
                    emitted = engine.speculative_decode_step(entries, max_new=12)
                    for b, entry in enumerate(entries):
                        tokens[b].extend(emitted[b])
                        entry.last_token = tokens[b][-1]
            results[capture] = [t[:12] for t in tokens]
        assert results[True] == results[False]


class TestSlicing:
    def scenario(self, pretrained_state, corpus, capture, steps=None):
        """Decode, slice the live model, decode again on the same engine;
        then decode with early-exit voting built on the sliced model, so
        frozen exit states cross the sliced blocks' shortcut rotations."""
        model = clone(pretrained_state)
        engine = GenerationEngine(model)
        with graph_capture(capture):
            before = greedy(engine, prefill_entries(engine), 6)
            rotate_and_slice(model, calib_ids(corpus), 0.5)
            after = greedy(engine, prefill_entries(engine), 6)
            voted = GenerationEngine(
                model, voting=voter(model, corpus),
                confidence_threshold=SLICED_EXIT_THRESHOLD,
            )
            exited = greedy(voted, prefill_entries(voted), 6, steps)
        return before, after, exited

    def test_sliced_tokens_identical(self, pretrained_state, adapt_corpus):
        steps = {True: [], False: []}
        reg = MetricsRegistry()
        with use_registry(reg):
            captured = self.scenario(pretrained_state, adapt_corpus, True, steps[True])
        direct = self.scenario(pretrained_state, adapt_corpus, False, steps[False])
        assert captured == direct
        assert reg.counter("serve/early_exit_tokens").value > 0
        assert_steps_bitwise(steps[True], steps[False])

    def test_slice_invalidates_cached_graphs(self, pretrained_state, adapt_corpus):
        """Slicing swaps parameter objects; every pre-slice decode graph
        must fail its identity guard and be re-captured, never replayed."""
        reg = MetricsRegistry()
        with use_registry(reg):
            self.scenario(pretrained_state, adapt_corpus, True)
        assert reg.counter("tensor/graph/invalidations").value >= 1
        assert reg.counter("tensor/graph/captures").value >= 2


class TestMemory:
    def test_graphs_hold_one_slab_and_no_capture_inputs(self):
        engine = GenerationEngine(TransformerLM(small_config(max_len=128)))
        prompts = [list(range(1, 29)), list(range(3, 27)), [5] * 20, [9] * 30]
        entries = prefill_entries(engine, prompts)
        with graph_capture(True):
            greedy(engine, entries, 1)  # batch 4, bucket 32: captured here
            capture_input = weakref.ref(engine._slabs[1][0])
            greedy(engine, entries[:2], 2)  # batch 2
            greedy(engine, entries, 4)  # batch 4 again, crossing into bucket 64
        cache = engine._graphs
        needs = [g.step_bytes for g in cache.graphs()]
        assert len(needs) >= 3
        assert cache.slab_bytes == max(needs)
        assert sum(needs) > cache.slab_bytes
        assert capture_input() is None
