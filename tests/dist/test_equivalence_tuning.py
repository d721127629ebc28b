"""The tentpole contract: sharded tuning is bit-for-bit the
single-process trajectory — losses AND final weights.

Chain locked here:

* plain ``AdaptiveLayerTrainer`` == ``shards=1, micro_batches=1``
* ``shards=1, micro_batches=M`` == ``shards=S, micro_batches=M`` for
  both the serial reference backend and the persistent-process backend.
"""

import numpy as np
import pytest

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.data import lm_batches
from repro.dist import DistConfig, PipelineAdaptiveTrainer
from repro.nn import TransformerLM

from ..conftest import small_config

STEPS = 6


def make_model(state=None, **overrides):
    model = TransformerLM(small_config(**overrides))
    if state is not None:
        model.load_state_dict(state)
    return model


def tuning_config(**overrides):
    defaults = dict(window=2, lr=1e-3, seed=0)
    defaults.update(overrides)
    return AdaptiveTuningConfig(**defaults)


def batches(corpus, n=STEPS, batch=4, seed=0):
    return list(lm_batches(corpus, batch, 16, n, np.random.default_rng(seed)))


def run_plain(state, data, model_kw=None, **cfg_overrides):
    model = make_model(state, **(model_kw or {}))
    trainer = AdaptiveLayerTrainer(model, tuning_config(**cfg_overrides))
    losses = [trainer.train_step(i, t).loss for i, t in data]
    return losses, model.state_dict()


def run_dist(state, data, dist, model_kw=None, expect_backend=None,
             **cfg_overrides):
    model = make_model(state, **(model_kw or {}))
    with PipelineAdaptiveTrainer(
        model, tuning_config(**cfg_overrides), dist
    ) as trainer:
        if expect_backend is not None:
            assert trainer.runner.backend == expect_backend
        losses = [trainer.train_step(i, t).loss for i, t in data]
        trainer.sync_model()
    return losses, model.state_dict()


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


class TestPlainEquivalence:
    def test_single_stage_single_micro_is_the_plain_trainer(
        self, pretrained_state, adapt_corpus
    ):
        data = batches(adapt_corpus)
        state = make_model(pretrained_state).state_dict()
        plain_losses, plain_state = run_plain(state, data)
        dist_losses, dist_state = run_dist(
            state, data, DistConfig(shards=1, micro_batches=1)
        )
        assert plain_losses == dist_losses
        assert_states_equal(plain_state, dist_state)


class TestShardEquivalence:
    @pytest.mark.parametrize("model_kw", [
        {},  # tied embeddings (grad routing across stages)
        {"tie_embeddings": False},
    ])
    def test_two_stages_bitwise_reproduce_one(
        self, pretrained_state, adapt_corpus, model_kw
    ):
        data = batches(adapt_corpus)
        # untied models can't load the (tied) pretrained state; their
        # deterministic random init is just as good for a bitwise test
        state = make_model(
            pretrained_state if not model_kw else None, **model_kw
        ).state_dict()
        ref_losses, ref_state = run_dist(
            state, data, DistConfig(shards=1, micro_batches=2),
            model_kw=model_kw,
        )
        serial_losses, serial_state = run_dist(
            state, data,
            DistConfig(shards=2, micro_batches=2, serial=True),
            model_kw=model_kw, expect_backend="serial",
        )
        proc_losses, proc_state = run_dist(
            state, data, DistConfig(shards=2, micro_batches=2),
            model_kw=model_kw, expect_backend="process",
        )
        assert ref_losses == serial_losses == proc_losses
        assert_states_equal(ref_state, serial_state)
        assert_states_equal(ref_state, proc_state)

    def test_windowed_exit_cycle_across_stage_boundary(
        self, pretrained_state, adapt_corpus
    ):
        """Round-robin exits land on different stages step to step; the
        frozen-stage / exit-stage roles rotate and must stay bitwise."""
        data = batches(adapt_corpus, n=8)
        state = make_model(pretrained_state).state_dict()
        overrides = dict(exit_points=[2, 4], schedule="round_robin")
        ref_losses, ref_state = run_dist(
            state, data, DistConfig(shards=1, micro_batches=2), **overrides
        )
        proc_losses, proc_state = run_dist(
            state, data,
            DistConfig(shards=2, micro_batches=2, stage_plan="2"),
            expect_backend="process", **overrides,
        )
        assert ref_losses == proc_losses
        assert_states_equal(ref_state, proc_state)

    def test_four_stages_on_six_blocks(self, pretrained_state, adapt_corpus):
        data = batches(adapt_corpus, n=4)
        state = make_model(pretrained_state).state_dict()
        ref_losses, ref_state = run_dist(
            state, data, DistConfig(shards=1, micro_batches=2)
        )
        wide_losses, wide_state = run_dist(
            state, data, DistConfig(shards=4, micro_batches=2),
            expect_backend="process",
        )
        assert ref_losses == wide_losses
        assert_states_equal(ref_state, wide_state)


class TestTuningLayouts:
    def test_losses_and_weights_bitwise_across_layouts(
        self, pretrained_state, adapt_corpus
    ):
        """At a fixed micro-batch count the stage count and the backend
        are layout only: losses AND the final weights' bytes equal the
        one-stage anchor at every (shards, serial) layout."""
        data = batches(adapt_corpus, n=3)
        state = make_model(pretrained_state).state_dict()

        def run(dist):
            losses, weights = run_dist(state, data, dist)
            return losses, {k: v.tobytes() for k, v in weights.items()}

        ref_losses, ref_weights = run(DistConfig(shards=1, micro_batches=2))
        layouts = [
            DistConfig(shards=2, micro_batches=2),
            DistConfig(shards=2, micro_batches=2, serial=True),
            DistConfig(shards=3, micro_batches=2, serial=True),
        ]
        for dist in layouts:
            losses, weights = run(dist)
            assert losses == ref_losses, dist
            assert weights == ref_weights, dist
