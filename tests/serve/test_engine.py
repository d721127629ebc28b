"""Tests for the generation engine: prefill/decode parity and early exit.

The load-bearing property throughout is the determinism contract:
batched decode must produce exactly the tokens batch-1 decode produces,
which in turn must match ``model.generate``.
"""

import numpy as np
import pytest

from repro.adaptive import ExitHeadSet, VotingCombiner
from repro.data import lm_batches
from repro.nn import TransformerLM
from repro.nn.attention import KVCache
from repro.obs import use_registry
from repro.serve import GenerationEngine, Request, serve_batch
from repro.tensor import graph_capture

from ..conftest import small_config

PROMPTS = [[1, 2, 3], [7, 1], [4, 4, 9, 2], [30, 0, 5]]


def requests(n=4, max_new=6, **kw):
    return [
        Request(f"r{i}", prompt=PROMPTS[i % len(PROMPTS)],
                max_new_tokens=max_new, **kw)
        for i in range(n)
    ]


@pytest.fixture
def voting(pretrained_model, pretrain_corpus):
    heads = ExitHeadSet(pretrained_model, exit_points=[2, 4])
    combiner = VotingCombiner(pretrained_model, heads)
    rng = np.random.default_rng(0)
    inputs, targets = next(lm_batches(pretrain_corpus, 4, 24, 1, rng))
    combiner.calibrate(inputs, targets)
    return combiner


class TestConstruction:
    def test_threshold_requires_voting(self, pretrained_model):
        with pytest.raises(ValueError, match="requires a voting"):
            GenerationEngine(pretrained_model, confidence_threshold=0.5)

    def test_threshold_range(self, pretrained_model, voting):
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            GenerationEngine(pretrained_model, voting=voting,
                             confidence_threshold=1.5)

    def test_uncalibrated_voting_rejected(self, pretrained_model):
        heads = ExitHeadSet(pretrained_model, exit_points=[2])
        raw = VotingCombiner(pretrained_model, heads)
        with pytest.raises(ValueError, match="calibrate"):
            GenerationEngine(pretrained_model, voting=raw)

    def test_foreign_model_rejected(self, pretrained_model, voting):
        from repro.nn import TransformerLM

        other = TransformerLM(pretrained_model.config)
        with pytest.raises(ValueError, match="different model"):
            GenerationEngine(other, voting=voting)

    def test_puts_model_in_eval(self, pretrained_model):
        pretrained_model.train(True)
        GenerationEngine(pretrained_model)
        assert not pretrained_model.training


class TestPrefill:
    def test_matches_full_forward(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        caches = pretrained_model.new_caches()
        logits = engine.prefill([1, 2, 3, 4], caches)
        ids = np.array([[1, 2, 3, 4]], dtype=np.int64)
        full = pretrained_model(ids).data[0, -1]
        np.testing.assert_allclose(logits, full, atol=1e-5)

    def test_fills_every_layer(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        caches = pretrained_model.new_caches()
        engine.prefill([1, 2, 3], caches)
        assert all(c.length == 3 for c in caches)

    def test_empty_decode_raises(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        with pytest.raises(ValueError):
            engine.decode_step([])


class TestPlainDeterminism:
    def test_batched_matches_sequential_and_generate(self, pretrained_model):
        reqs = requests()
        batched = serve_batch(pretrained_model, reqs, max_batch_size=4)
        sequential = serve_batch(pretrained_model, reqs, max_batch_size=1)
        for req, b, s in zip(reqs, batched, sequential):
            reference = pretrained_model.generate(
                req.prompt, req.max_new_tokens, greedy=True
            )
            assert b.tokens == s.tokens == reference

    def test_sampled_tokens_independent_of_batching(self, pretrained_model):
        reqs = requests(greedy=False, temperature=0.8)
        for i, r in enumerate(reqs):
            r.seed = 100 + i
        batched = serve_batch(pretrained_model, reqs, max_batch_size=4)
        sequential = serve_batch(pretrained_model, reqs, max_batch_size=1)
        assert [b.tokens for b in batched] == [s.tokens for s in sequential]

    def test_ragged_cache_lengths_stay_exact(self, pretrained_model):
        # Different prompt lengths exercise the padded stacked cache.
        reqs = [
            Request("a", prompt=[1], max_new_tokens=8),
            Request("b", prompt=[2] * 10, max_new_tokens=8),
        ]
        batched = serve_batch(pretrained_model, reqs, max_batch_size=2)
        for req, res in zip(reqs, batched):
            assert res.tokens == pretrained_model.generate(
                req.prompt, req.max_new_tokens, greedy=True
            )


class TestVotingDecode:
    def test_batched_matches_sequential(self, pretrained_model, voting):
        reqs = requests()
        batched = serve_batch(pretrained_model, reqs, voting=voting,
                              max_batch_size=4)
        sequential = serve_batch(pretrained_model, reqs, voting=voting,
                                 max_batch_size=1)
        assert [b.tokens for b in batched] == [s.tokens for s in sequential]

    def test_early_exit_deterministic_across_batching(
        self, pretrained_model, voting
    ):
        reqs = requests()
        batched = serve_batch(
            pretrained_model, reqs, voting=voting,
            confidence_threshold=0.3, max_batch_size=4,
        )
        sequential = serve_batch(
            pretrained_model, reqs, voting=voting,
            confidence_threshold=0.3, max_batch_size=1,
        )
        assert [b.tokens for b in batched] == [s.tokens for s in sequential]
        assert [b.early_exit_tokens for b in batched] == [
            s.early_exit_tokens for s in sequential
        ]

    def test_early_exit_actually_triggers(self, pretrained_model, voting):
        # Threshold so low every token exits at the shallowest exit.
        with use_registry() as reg:
            results = serve_batch(
                pretrained_model, requests(), voting=voting,
                confidence_threshold=1e-6, max_batch_size=4,
            )
            assert all(
                r.early_exit_tokens == len(r.tokens) - 1 for r in results
            ), "every decode-step token should early-exit"
            assert reg.counter("serve/early_exit_tokens").value > 0

    def test_skipped_layers_still_get_cache_entries(
        self, pretrained_model, voting
    ):
        engine = GenerationEngine(
            pretrained_model, voting=voting, confidence_threshold=1e-6
        )
        caches = [KVCache() for _ in range(pretrained_model.num_layers)]
        logits = engine.prefill([1, 2, 3], caches)

        class Entry:
            pass

        e = Entry()
        e.caches = caches
        e.last_token = int(logits.argmax())
        for _ in range(3):
            logits, early = engine.decode_step([e])
            e.last_token = int(logits[0].argmax())
            assert bool(early[0])
        lengths = {c.length for c in caches}
        assert lengths == {6}, "early exit must not leave ragged caches"


class TestCounters:
    def test_prefill_and_decode_counts(self, pretrained_model):
        with use_registry() as reg:
            serve_batch(pretrained_model, requests(n=2, max_new=4),
                        max_batch_size=2)
            assert reg.counter("serve/prefills").value == 2
            assert reg.counter("serve/prefill_tokens").value == \
                len(PROMPTS[0]) + len(PROMPTS[1])
            # One token comes from prefill, three from decode steps.
            assert reg.counter("serve/decode_tokens").value == 6


class Entry:
    def __init__(self, engine, prompt):
        self.caches = engine.model.new_caches()
        self.last_token = int(engine.prefill(prompt, self.caches).argmax())


class TestContextLimit:
    """A step past ``max_len`` is the same typed error on every path,
    raised before any cache (or persistent decode slab) is touched."""

    @pytest.fixture
    def short_model(self, pretrain_corpus):
        model = TransformerLM(small_config(max_len=16))
        voting = VotingCombiner(model, ExitHeadSet(model, exit_points=[2, 4]))
        voting.calibrate(*next(
            lm_batches(pretrain_corpus, 4, 12, 1, np.random.default_rng(0))
        ))
        return model, voting

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("vote", [False, True])
    @pytest.mark.parametrize("capture", [False, True])
    def test_decode_past_max_len_raises(self, short_model, capture, vote, batch):
        model, voting = short_model
        engine = GenerationEngine(model, voting=voting if vote else None)
        entries = [Entry(engine, list(range(15))), Entry(engine, [1, 2, 3])]
        entries = entries[:batch]
        with graph_capture(capture):
            engine.decode_step(entries)  # the first row now fills max_len
            for entry in entries:
                entry.last_token = 5
            lengths = [[c.length for c in e.caches] for e in entries]
            with pytest.raises(
                ValueError, match="sequence length 17 exceeds max_len 16"
            ):
                engine.decode_step(entries)
            assert [[c.length for c in e.caches] for e in entries] == lengths
            if batch == 2:  # the shorter row still decodes
                engine.decode_step(entries[1:])
                assert entries[1].caches[0].length == 5

    @pytest.mark.parametrize("capture", [False, True])
    def test_speculative_past_max_len_raises(self, short_model, capture):
        model, _ = short_model
        engine = GenerationEngine(
            model, draft_heads=ExitHeadSet(model, exit_points=[3]),
            draft_exit=3, draft_k=3,
        )
        entry = Entry(engine, list(range(16)))
        with graph_capture(capture), pytest.raises(
            ValueError, match="sequence length 17 exceeds max_len 16"
        ):
            engine.speculative_decode_step([entry])
        assert all(c.length == 16 for c in entry.caches)
