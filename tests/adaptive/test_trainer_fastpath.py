"""Tests for the train step: grad-free frozen prefix, out-of-window
freezing, eager reclamation, and the train/* telemetry.

The trainer's one step path is checked against a full-tape reference
step written here: the seed-era step, which tapes the embedding and the
frozen prefix, backpropagates through the whole depth without reclaiming
any buffer, and updates only the parameters some window can train with
a per-parameter AdamW loop.
"""

import numpy as np
import pytest

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.data import lm_batches
from repro.nn import AdamW, TransformerLM, clip_grad_norm
from repro.obs import MetricsRegistry, use_registry
from repro.tensor import cross_entropy, graph_capture, profile_tape

from ..conftest import small_config


def untied_model(state=None, **overrides):
    cfg = small_config(num_layers=4, tie_embeddings=False, **overrides)
    model = TransformerLM(cfg)
    if state is not None:
        model.load_state_dict(state)
    return model


def window_config(**overrides):
    defaults = dict(
        window=2, exit_points=[4], schedule="round_robin", lr=1e-3,
    )
    defaults.update(overrides)
    return AdaptiveTuningConfig(**defaults)


def train_batches(corpus, n, seed=0):
    return list(lm_batches(corpus, 4, 16, n, np.random.default_rng(seed)))


def window_scope(trainer):
    """The blocks some scheduled window covers plus the final norm and
    unembedding (these tests schedule only the final exit), in the
    trainer's optimizer order: the order grad clipping sums in."""
    model = trainer.model
    scope = list(model.norm.parameters()) + list(model.lm_head.parameters())
    for point in trainer.schedule.exit_points:
        window = trainer.schedule._window_for_exit(point)
        for i in range(window.start, window.stop):
            scope.extend(model.blocks[i].parameters())
    ids = {id(p) for p in scope}
    return [p for p in trainer.optimizer.params if id(p) in ids]


def full_tape_logits(trainer, inputs, window):
    """Exit logits with the embedding and the frozen prefix on the tape."""
    model = trainer.model
    hidden = model.run_blocks(model.embed_tokens(inputs), 0, window.stop)
    if window.exit_point >= model.num_layers:
        return model.head(hidden)
    return trainer.exit_heads.logits_at(window.exit_point, hidden)


class FullTapeReference:
    """The full-tape step over ``trainer``'s model, schedule and exit
    heads; the trainer's own step never runs."""

    def __init__(self, trainer):
        config = trainer.config
        self.trainer = trainer
        self.optimizer = AdamW(
            window_scope(trainer), lr=config.lr,
            weight_decay=config.weight_decay,
        )
        self.optimizer.flat = False
        self.rng = np.random.default_rng(config.seed)
        self.iteration = 0

    def step(self, inputs, targets):
        trainer = self.trainer
        window = trainer.schedule.select(self.iteration, self.rng)
        self.iteration += 1
        loss = cross_entropy(full_tape_logits(trainer, inputs, window), targets)
        trainer.model.zero_grad()
        trainer.exit_heads.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.params, trainer.config.grad_clip)
        self.optimizer.step()
        return loss.item()


class TestTrajectoryIdentity:
    def test_fast_path_is_bit_identical_to_full_tape(self, adapt_corpus):
        """The fast path is an optimization, not an approximation: the
        loss sequence matches the full-tape reference bit for bit, with
        capture on and off."""
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 8)
        reference = FullTapeReference(
            AdaptiveLayerTrainer(untied_model(state), window_config())
        )
        full = [reference.step(i, t) for i, t in batches]
        for capture in (False, True):
            with graph_capture(capture):
                trainer = AdaptiveLayerTrainer(
                    untied_model(state), window_config()
                )
                fast = [trainer.train_step(i, t).loss for i, t in batches]
            assert fast == full, capture

    def test_blocks_outside_every_window_unchanged(self, adapt_corpus):
        """Blocks below every window (and the untied input embedding)
        end training bit-for-bit as they started; the window moved."""
        state = untied_model().state_dict()
        model = untied_model(state)
        trainer = AdaptiveLayerTrainer(model, window_config())
        for inputs, targets in train_batches(adapt_corpus, 3):
            trainer.train_step(inputs, targets)
        after = model.state_dict()
        untouched = ("embed.", "blocks.0.", "blocks.1.")
        for name, value in state.items():
            if name.startswith(untouched):
                assert np.array_equal(after[name], value), name
        assert not np.array_equal(
            after["blocks.2.attn.q_proj.weight"],
            state["blocks.2.attn.q_proj.weight"],
        )


class TestFreezing:
    def test_requires_grad_restored_after_step(
        self, pretrained_model, adapt_corpus
    ):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        inputs, targets = train_batches(adapt_corpus, 1)[0]
        trainer.train_step(inputs, targets)
        assert all(
            p.requires_grad for p in pretrained_model.parameters()
        )

    def test_restored_even_when_step_raises(self, pretrained_model):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        bad_inputs = np.zeros((2, 8), dtype=np.int64)
        bad_targets = np.zeros((3, 9), dtype=np.int64)  # shape mismatch
        with pytest.raises(Exception):
            trainer.train_step(bad_inputs, bad_targets)
        assert all(
            p.requires_grad for p in pretrained_model.parameters()
        )

    def test_frozen_params_counted_in_stats(
        self, pretrained_model, adapt_corpus
    ):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        inputs, targets = train_batches(adapt_corpus, 1)[0]
        stats = trainer.train_step(inputs, targets)
        out_of_window = sum(
            p.size
            for i, block in enumerate(pretrained_model.blocks)
            if not (2 <= i < 4)
            for _, p in block.named_parameters()
        )
        assert stats.frozen_params == out_of_window


class TestReclaimAndPeak:
    def test_fast_path_peak_below_full_tape(self, adapt_corpus):
        state = untied_model().state_dict()
        inputs, targets = train_batches(adapt_corpus, 1)[0]
        trainer = AdaptiveLayerTrainer(untied_model(state), window_config())
        fast = trainer.train_step(inputs, targets).peak_tape_bytes
        reference = FullTapeReference(
            AdaptiveLayerTrainer(untied_model(state), window_config())
        )
        with profile_tape() as tape:
            reference.step(inputs, targets)
        assert fast < tape.peak_bytes / 1.5

    def test_reclaimed_bytes_reported(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        inputs, targets = train_batches(adapt_corpus, 1)[0]
        stats = trainer.train_step(inputs, targets)
        assert stats.reclaimed_bytes > 0
        assert stats.peak_tape_bytes > 0


class TestTelemetry:
    def test_train_metrics_published(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        inputs, targets = train_batches(adapt_corpus, 1)[0]
        reg = MetricsRegistry()
        with use_registry(reg):
            stats = trainer.train_step(inputs, targets)
        assert reg.counter("train/steps").value == 1
        assert reg.counter("train/reclaimed_bytes").value == (
            stats.reclaimed_bytes
        )
        assert reg.gauge("train/peak_tape_bytes").value == (
            stats.peak_tape_bytes
        )
        assert reg.gauge("train/frozen_params").value == stats.frozen_params
        rows = reg.tables()["adapt/iter"]
        assert rows[0]["peak_tape_bytes"] == stats.peak_tape_bytes
        assert rows[0]["reclaimed_bytes"] == stats.reclaimed_bytes
