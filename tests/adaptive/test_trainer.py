"""Tests for the adaptive layer tuning loop."""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveLayerTrainer,
    AdaptiveTuningConfig,
    default_exit_points,
    vanilla_trainer,
)
from repro.data import lm_batches
from repro.nn import TransformerLM

from ..conftest import small_config


def batches(corpus, n, rng_seed=0, batch=4, seq=24):
    return lm_batches(corpus, batch, seq, n, np.random.default_rng(rng_seed))


class TestDefaults:
    def test_default_exit_points_even(self):
        assert default_exit_points(6, 3) == [2, 4, 6]
        assert default_exit_points(8, 4) == [2, 4, 6, 8]

    def test_default_exit_points_clamped(self):
        assert default_exit_points(2, 5) == [1, 2]

    def test_invalid_exits(self):
        with pytest.raises(ValueError):
            default_exit_points(6, 0)


class TestConfigValidation:
    """Each value below used to run silently while climbing the loss."""

    @pytest.mark.parametrize("lr", [-1e-3, 0.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            AdaptiveTuningConfig(lr=lr)

    @pytest.mark.parametrize("grad_clip", [-1.0, float("nan")])
    def test_grad_clip_must_be_non_negative(self, grad_clip):
        with pytest.raises(ValueError, match="grad_clip"):
            AdaptiveTuningConfig(grad_clip=grad_clip)

    @pytest.mark.parametrize("weight_decay", [-0.01, float("nan")])
    def test_weight_decay_must_be_non_negative(self, weight_decay):
        with pytest.raises(ValueError, match="weight_decay"):
            AdaptiveTuningConfig(weight_decay=weight_decay)

    def test_vanilla_trainer_rejects_negative_clip(self, pretrained_model):
        with pytest.raises(ValueError, match="grad_clip"):
            vanilla_trainer(pretrained_model, grad_clip=-1.0)

    def test_boundary_values_accepted(self):
        config = AdaptiveTuningConfig(lr=1e-6, grad_clip=0.0, weight_decay=0.0)
        assert config.grad_clip == 0.0  # 0 still means "no clipping"


class TestTrainStep:
    def test_step_stats_geometry(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6]),
        )
        stats = trainer.train(batches(adapt_corpus, 3))
        assert [s.window.exit_point for s in stats] == [2, 4, 6]
        assert all(s.grad_blocks == 2 for s in stats)
        assert all(s.forward_blocks == s.window.exit_point for s in stats)

    def test_only_window_blocks_get_grads(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[4], schedule="fixed_shallow"),
        )
        inputs, targets = next(batches(adapt_corpus, 1))
        # Peek at gradients before the optimizer clears them.
        window = trainer.schedule.select(0, np.random.default_rng(0))
        logits = trainer._logits_for_window(inputs, window)
        from repro.tensor import cross_entropy

        cross_entropy(logits, targets).backward()
        for i, block in enumerate(pretrained_model.blocks):
            has_grad = any(
                p.grad is not None for _, p in block.named_parameters()
            )
            if window.start <= i < window.stop:
                assert has_grad, f"block {i} should have grads"
            else:
                assert not has_grad, f"block {i} should be frozen this step"

    def test_frozen_blocks_do_not_move(self, pretrained_model, adapt_corpus):
        before = pretrained_model.blocks[0].attn.q_proj.weight.data.copy()
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=1, exit_points=[6], schedule="fixed_shallow"),
        )
        trainer.train(batches(adapt_corpus, 3))
        after = pretrained_model.blocks[0].attn.q_proj.weight.data
        assert np.array_equal(before, after)

    def test_loss_decreases_on_adaptation(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6], lr=2e-3),
        )
        stats = trainer.train(batches(adapt_corpus, 30))
        first = np.mean([s.loss for s in stats[:6]])
        last = np.mean([s.loss for s in stats[-6:]])
        assert last < first

    def test_importance_schedule_integration(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(
            pretrained_model,
            AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6],
                                 schedule="importance"),
        )
        trainer.train(batches(adapt_corpus, 6))
        assert all(v is not None for v in trainer.schedule._losses.values())

    def test_max_steps_limit(self, pretrained_model, adapt_corpus):
        trainer = AdaptiveLayerTrainer(pretrained_model)
        stats = trainer.train(batches(adapt_corpus, 10), max_steps=4)
        assert len(stats) == 4

    def test_unknown_optimizer_raises(self, pretrained_model):
        with pytest.raises(ValueError):
            AdaptiveLayerTrainer(
                pretrained_model, AdaptiveTuningConfig(optimizer="bogus")
            )

    def test_exit_points_past_the_model_rejected_at_build(self):
        """An exit deeper than the model fails when the trainer is built,
        not when the schedule first selects it mid-run."""
        model = TransformerLM(small_config(num_layers=4))
        config = AdaptiveTuningConfig(window=2, exit_points=[2, 6])
        with pytest.raises(ValueError, match=r"exit points \[6\]"):
            AdaptiveLayerTrainer(model, config)


class TestAccounting:
    def test_memory_report_window_smaller_than_vanilla(
        self, pretrained_model, adapt_corpus
    ):
        adaptive = AdaptiveLayerTrainer(
            pretrained_model, AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6])
        )
        vanilla = vanilla_trainer(pretrained_model)
        mem_a = adaptive.memory_report(4, 24)
        mem_v = vanilla.memory_report(4, 24)
        assert mem_a.activation_bytes < mem_v.activation_bytes / 2
        assert mem_a.optimizer_bytes < mem_v.optimizer_bytes

    def test_average_cost_blocks(self, pretrained_model):
        trainer = AdaptiveLayerTrainer(
            pretrained_model, AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6])
        )
        cost = trainer.average_cost_blocks()
        assert cost["forward_blocks"] == pytest.approx(4.0)
        assert cost["grad_blocks"] == pytest.approx(2.0)

    def test_vanilla_trainer_full_geometry(self, pretrained_model, adapt_corpus):
        trainer = vanilla_trainer(pretrained_model)
        stats = trainer.train(batches(adapt_corpus, 1))
        assert stats[0].forward_blocks == pretrained_model.num_layers
        assert stats[0].grad_blocks == pretrained_model.num_layers

    def test_tied_heads_not_double_counted_in_optimizer(self, pretrained_model):
        trainer = AdaptiveLayerTrainer(pretrained_model)
        param_ids = [id(p) for p in trainer.optimizer.params]
        assert len(param_ids) == len(set(param_ids))
