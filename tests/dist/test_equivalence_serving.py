"""Sharded serving emits the exact greedy tokens of the single-process
``TransformerLM.generate`` — the serving half of the bitwise contract —
and reports its greedy-only limit and its telemetry rows."""

import numpy as np
import pytest

from repro.adaptive import AdaptiveTuningConfig
from repro.data import lm_batches
from repro.dist import (
    DistConfig,
    PipelineAdaptiveTrainer,
    PipelineGenerationEngine,
    SAMPLING_UNSUPPORTED_MSG,
)
from repro.nn import TransformerLM
from repro.obs import format_report, use_registry

from ..conftest import small_config

MAX_NEW = 8


def prompts_for(model, corpus, n=3, lens=(5, 8, 11)):
    rng = np.random.default_rng(3)
    out = []
    for i in range(n):
        inputs, _ = next(lm_batches(corpus, 1, lens[i % len(lens)], 1, rng))
        out.append([int(t) for t in inputs[0]])
    return out


def reference_tokens(model, prompts):
    return [model.generate(p, MAX_NEW, greedy=True) for p in prompts]


@pytest.mark.parametrize("dist,backend", [
    (DistConfig(shards=2, serial=True), "serial"),
    (DistConfig(shards=2), "process"),
    (DistConfig(shards=3), "process"),
])
def test_sharded_tokens_match_generate(
    pretrained_model, adapt_corpus, dist, backend
):
    prompts = prompts_for(pretrained_model, adapt_corpus)
    expected = reference_tokens(pretrained_model, prompts)
    with PipelineGenerationEngine(pretrained_model, dist) as engine:
        assert engine.runner.backend == backend
        got = engine.generate_batch(prompts, MAX_NEW)
    assert got == expected


def test_single_prompt_and_reuse(pretrained_model, adapt_corpus):
    """One engine serves several independent calls with fresh caches."""
    prompts = prompts_for(pretrained_model, adapt_corpus, n=2)
    expected = reference_tokens(pretrained_model, prompts)
    with PipelineGenerationEngine(
        pretrained_model, DistConfig(shards=2)
    ) as engine:
        assert engine.generate(prompts[0], MAX_NEW) == expected[0]
        assert engine.generate(prompts[1], MAX_NEW) == expected[1]
        # repeat: per-request KV state must not leak between calls
        assert engine.generate(prompts[0], MAX_NEW) == expected[0]


def test_sampled_decoding_rejected(pretrained_model):
    with PipelineGenerationEngine(
        pretrained_model, DistConfig(shards=2, serial=True)
    ) as engine:
        with pytest.raises(ValueError, match="greedy"):
            engine.generate_batch([[1, 2, 3]], 4, greedy=False)


def test_untied_head_serving(adapt_corpus):
    model = TransformerLM(small_config(num_layers=4, tie_embeddings=False))
    prompts = prompts_for(model, adapt_corpus, n=2)
    expected = reference_tokens(model, prompts)
    with PipelineGenerationEngine(model, DistConfig(shards=2)) as engine:
        assert engine.generate_batch(prompts, MAX_NEW) == expected


class TestSamplingCapabilityMessage:
    def test_message_names_single_process_alternative(self):
        """The sampling rejection is a capability statement that points
        at the single-process engine, not a bare error."""
        assert "--shards 1" in SAMPLING_UNSUPPORTED_MSG
        assert "greedy" in SAMPLING_UNSUPPORTED_MSG
        assert "single-process" in SAMPLING_UNSUPPORTED_MSG

    def test_engine_raises_the_message(self, pretrained_model):
        with PipelineGenerationEngine(
            pretrained_model, DistConfig(shards=2, serial=True)
        ) as engine:
            with pytest.raises(ValueError, match="--shards 1"):
                engine.generate_batch([[1, 2, 3]], 4, greedy=False)


class TestServingTelemetry:
    def test_serving_only_run_renders_dist_rows(self, pretrained_model):
        """A serving-only telemetry report (no tuning iterations at all)
        still renders the dist/iter and dist/stage sections in
        ``repro report`` output."""
        with use_registry() as reg:
            with PipelineGenerationEngine(
                pretrained_model, DistConfig(shards=2, serial=True)
            ) as engine:
                engine.generate_batch([[1, 2, 3, 4], [5, 6, 7]], 4)
            snap = reg.snapshot()
        iters = snap["tables"]["dist/iter"]
        assert len(iters) == 1
        row = iters[0]
        assert row["mode"] == "serve"
        assert row["requests"] == 2
        assert row["tokens"] == 8
        assert row["shards"] == 2
        assert 0.0 <= row["overlap_fraction"] <= 1.0
        assert [r["stage"] for r in snap["tables"]["dist/stage"]] == [0, 1]
        text = format_report(snap)
        assert "dist/iter" in text
        assert "dist/stage" in text
        assert "serve" in text

    def test_mixed_tune_and_serve_rows_share_table(
        self, pretrained_state, adapt_corpus
    ):
        """Tune rows and serve rows carry different columns; the
        formatter unions headers so one table renders both."""
        cfg = AdaptiveTuningConfig(window=2, seed=0)
        (inputs, targets), = lm_batches(
            adapt_corpus, 4, 16, 1, np.random.default_rng(0)
        )
        with use_registry() as reg:
            model = TransformerLM(small_config())
            model.load_state_dict(pretrained_state)
            with PipelineAdaptiveTrainer(
                model, cfg, DistConfig(shards=2, serial=True)
            ) as trainer:
                trainer.train_step(inputs, targets)
                engine = PipelineGenerationEngine(
                    model, runner=trainer.runner
                )
                engine.generate([1, 2, 3], 3)
            snap = reg.snapshot()
        modes = [r["mode"] for r in snap["tables"]["dist/iter"]]
        assert modes == ["tune", "serve"]
        text = format_report(snap)
        assert "wall_time_s" in text
        assert "loss" in text
