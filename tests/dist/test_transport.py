"""Backend selection, graceful fallback, config validation, telemetry."""

import numpy as np
import pytest

from repro.adaptive import AdaptiveTuningConfig
from repro.data import lm_batches
from repro.dist import (
    DistConfig,
    PipelineAdaptiveTrainer,
    PipelineRunner,
    validate_tuning_config,
)
from repro.nn import TransformerLM
from repro.obs import use_registry

from ..conftest import small_config


def make_model(state=None):
    model = TransformerLM(small_config())
    if state is not None:
        model.load_state_dict(state)
    return model


def data(corpus, n=3):
    return list(lm_batches(corpus, 4, 16, n, np.random.default_rng(0)))


class TestFallback:
    def test_bad_start_method_falls_back_to_serial(
        self, pretrained_state, adapt_corpus
    ):
        """An unavailable process backend degrades to the serial
        reference path — visibly (dist/fallbacks) and bit-identically."""
        state = make_model(pretrained_state).state_dict()
        cfg = AdaptiveTuningConfig(window=2, seed=0)
        batches = data(adapt_corpus)

        def run(dist):
            with use_registry() as reg:
                with PipelineAdaptiveTrainer(
                    make_model(state), cfg, dist
                ) as trainer:
                    losses = [
                        trainer.train_step(i, t).loss for i, t in batches
                    ]
                    backend = trainer.runner.backend
                fallbacks = reg.counter("dist/fallbacks").value
            return losses, backend, fallbacks

        ref, ref_backend, _ = run(DistConfig(shards=2, serial=True))
        got, backend, fallbacks = run(
            DistConfig(shards=2, start_method="no-such-start-method")
        )
        assert ref_backend == "serial"
        assert backend == "serial"
        assert fallbacks == 1
        assert got == ref


class TestValidation:
    def test_rejects_checkpointing(self):
        with pytest.raises(ValueError, match="checkpoint_blocks"):
            validate_tuning_config(
                AdaptiveTuningConfig(checkpoint_blocks=True)
            )

    def test_rejects_dropout(self):
        model = TransformerLM(small_config(num_layers=4, dropout=0.1))
        with pytest.raises(ValueError, match="dropout"):
            PipelineRunner(
                model, DistConfig(shards=2, serial=True),
                AdaptiveTuningConfig(),
            )

    def test_rejects_exit_points_past_the_model(self):
        model = TransformerLM(small_config(num_layers=4))
        config = AdaptiveTuningConfig(window=2, exit_points=[2, 6])
        with pytest.raises(ValueError, match=r"exit points \[6\]"):
            PipelineAdaptiveTrainer(
                model, config, DistConfig(shards=2, serial=True)
            )

    def test_rejects_more_shards_than_blocks(self):
        model = TransformerLM(small_config(num_layers=4))
        with pytest.raises(ValueError, match="shards"):
            PipelineRunner(
                model, DistConfig(shards=5, serial=True),
                AdaptiveTuningConfig(),
            )

    def test_rejects_bad_dist_config(self):
        with pytest.raises(ValueError):
            DistConfig(shards=0)
        with pytest.raises(ValueError):
            DistConfig(micro_batches=0)

    def test_rejects_micro_batches_beyond_batch(
        self, pretrained_state, adapt_corpus
    ):
        trainer = PipelineAdaptiveTrainer(
            make_model(pretrained_state),
            AdaptiveTuningConfig(window=2),
            DistConfig(shards=2, micro_batches=5, serial=True),
        )
        with trainer:
            (inputs, targets), = data(adapt_corpus, n=1)
            with pytest.raises(ValueError, match="micro_batches"):
                trainer.train_step(inputs, targets)


class TestTelemetry:
    def test_dist_counters_and_rows(self, pretrained_state, adapt_corpus):
        state = make_model(pretrained_state).state_dict()
        with use_registry() as reg:
            with PipelineAdaptiveTrainer(
                make_model(state),
                AdaptiveTuningConfig(window=2),
                DistConfig(shards=2, micro_batches=2),
            ) as trainer:
                for inputs, targets in data(adapt_corpus):
                    trainer.train_step(inputs, targets)
            snap = reg.snapshot()
        assert snap["counters"]["dist/steps"] == 3
        assert snap["counters"]["adapt/iterations"] == 3
        assert 0.0 <= snap["gauges"]["dist/bubble_fraction"] <= 1.0
        iters = snap["tables"]["dist/iter"]
        assert len(iters) == 3
        assert all(row["shards"] == 2 for row in iters)
        stages = snap["tables"]["dist/stage"]
        assert [row["stage"] for row in stages] == [0, 1]
        assert sum(row["blocks"] for row in stages) == 6
        if snap["counters"].get("dist/fallbacks", 0) == 0:
            # process backend actually moved activations over queues
            assert snap["counters"]["dist/transfer_bytes"] > 0
