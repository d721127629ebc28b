"""Tests for gradient checkpointing."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.tensor import Tensor, checkpoint, no_grad


def randt(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape),
                  requires_grad=True)


class TestCheckpointCorrectness:
    def test_forward_matches_direct(self):
        layer = Linear(8, 8, rng=np.random.default_rng(0))
        x = randt(4, 8)
        direct = layer(x)
        ckpt = checkpoint(layer, Tensor(x.data, requires_grad=True))
        assert np.allclose(direct.data, ckpt.data, atol=1e-6)

    def test_input_gradients_match_direct(self):
        layer = Linear(8, 8, rng=np.random.default_rng(0))
        x1 = randt(4, 8, seed=1)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        (layer(x1) ** 2).sum().backward()
        direct_grad = x1.grad.copy()
        layer.zero_grad()
        (checkpoint(layer, x2) ** 2).sum().backward()
        assert np.allclose(direct_grad, x2.grad, atol=1e-5)

    def test_parameter_gradients_match_direct(self):
        layer_a = Linear(8, 8, rng=np.random.default_rng(0))
        layer_b = Linear(8, 8, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)
        (layer_a(Tensor(x, requires_grad=True)) ** 2).sum().backward()
        (checkpoint(layer_b, Tensor(x, requires_grad=True)) ** 2).sum().backward()
        assert np.allclose(layer_a.weight.grad, layer_b.weight.grad, atol=1e-5)
        assert np.allclose(layer_a.bias.grad, layer_b.bias.grad, atol=1e-5)

    def test_chained_checkpoints(self):
        layers = [Linear(8, 8, rng=np.random.default_rng(i)) for i in range(3)]
        x_direct = randt(2, 8, seed=5)
        x_ckpt = Tensor(x_direct.data.copy(), requires_grad=True)
        h = x_direct
        for layer in layers:
            h = layer(h).relu()
        h.sum().backward()
        direct_grads = [l.weight.grad.copy() for l in layers]
        for l in layers:
            l.zero_grad()
        h = x_ckpt
        for layer in layers:
            h = checkpoint(lambda t, l=layer: l(t).relu(), h)
        h.sum().backward()
        for l, g in zip(layers, direct_grads):
            assert np.allclose(l.weight.grad, g, atol=1e-5)
        assert np.allclose(x_direct.grad, x_ckpt.grad, atol=1e-5)

    def test_frozen_input_still_trains_params(self):
        layer = Linear(8, 8, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 8)))  # no grad on input
        checkpoint(layer, x).sum().backward()
        assert layer.weight.grad is not None

    def test_no_grad_mode_is_plain_forward(self):
        layer = Linear(8, 8, rng=np.random.default_rng(0))
        with no_grad():
            out = checkpoint(layer, Tensor(np.ones((2, 8))))
        assert not out.requires_grad


class TestCheckpointedTransformer:
    def test_run_blocks_checkpointed_matches(self, pretrained_model):
        ids = np.random.default_rng(0).integers(0, 32, (2, 8))
        h = pretrained_model.embed_tokens(ids)
        direct = pretrained_model.run_blocks(Tensor(h.data), 0, 3)
        ckpt = pretrained_model.run_blocks(
            Tensor(h.data), 0, 3, checkpoint_blocks=True
        )
        assert np.allclose(direct.data, ckpt.data, atol=1e-5)

    def test_checkpointed_training_matches_gradients(self, pretrained_model):
        from repro.tensor import cross_entropy

        ids = np.random.default_rng(0).integers(0, 32, (2, 8))
        targets = np.random.default_rng(1).integers(0, 32, (2, 8))

        def loss_with(checkpointed):
            pretrained_model.zero_grad()
            h = pretrained_model.embed_tokens(ids)
            h = pretrained_model.run_blocks(
                h, 0, None, checkpoint_blocks=checkpointed
            )
            loss = cross_entropy(pretrained_model.head(h), targets)
            loss.backward()
            name, param = next(iter(pretrained_model.named_parameters()))
            return loss.item(), {
                n: p.grad.copy()
                for n, p in pretrained_model.named_parameters()
                if p.grad is not None
            }

        loss_d, grads_d = loss_with(False)
        loss_c, grads_c = loss_with(True)
        assert loss_d == pytest.approx(loss_c, rel=1e-5)
        assert set(grads_d) == set(grads_c)
        for name in grads_d:
            assert np.allclose(grads_d[name], grads_c[name], atol=1e-4), name

    def test_checkpoint_with_cache_raises(self, pretrained_model):
        h = pretrained_model.embed_tokens(np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            pretrained_model.run_blocks(
                h, 0, 2, caches=pretrained_model.new_caches(),
                checkpoint_blocks=True,
            )


class TestCheckpointWithFastPath:
    """Checkpointing composed with eager reclamation and the grad-free
    frozen prefix: all three tape disciplines must agree on gradients."""

    def test_checkpoint_with_eager_reclaim(self):
        layers = [Linear(8, 8, rng=np.random.default_rng(i)) for i in range(2)]

        def loss(x, reclaim):
            h = x
            for layer in layers:
                h = checkpoint(lambda t, l=layer: l(t).relu(), h)
            h.sum().backward(reclaim=reclaim)

        x1 = randt(2, 8, seed=3)
        loss(x1, reclaim=False)
        plain = [l.weight.grad.copy() for l in layers] + [x1.grad.copy()]
        for l in layers:
            l.zero_grad()
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        loss(x2, reclaim=True)
        reclaimed = [l.weight.grad for l in layers] + [x2.grad]
        for a, b in zip(plain, reclaimed):
            assert np.array_equal(a, b)

    def test_trainer_paths_agree_on_window_gradients(
        self, pretrained_model, adapt_corpus
    ):
        """Full-tape, checkpointed and fast-path (grad-free prefix +
        reclaim) train steps produce matching gradients for the 2-block
        window."""
        from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
        from repro.data import lm_batches
        from repro.tensor import cross_entropy

        from ..adaptive.test_trainer_fastpath import full_tape_logits

        inputs, targets = next(
            lm_batches(adapt_corpus, 4, 16, 1, np.random.default_rng(0))
        )

        def window_grads(full_tape, checkpoint_blocks):
            trainer = AdaptiveLayerTrainer(
                pretrained_model,
                AdaptiveTuningConfig(
                    window=2, exit_points=[4], schedule="fixed_shallow",
                    checkpoint_blocks=checkpoint_blocks,
                ),
            )
            pretrained_model.zero_grad()
            trainer.exit_heads.zero_grad()
            window = trainer.schedule.select(0, np.random.default_rng(0))
            if full_tape:
                logits = full_tape_logits(trainer, inputs, window)
            else:
                logits = trainer._logits_for_window(inputs, window)
            cross_entropy(logits, targets).backward(reclaim=not full_tape)
            return {
                f"block{i}.{n}": p.grad.copy()
                for i in range(window.start, window.stop)
                for n, p in pretrained_model.blocks[i].named_parameters()
            }

        plain = window_grads(True, False)
        fast = window_grads(False, False)
        ckpt = window_grads(False, True)
        assert set(plain) == set(fast) == set(ckpt)
        for name in plain:
            # Fast path is bit-identical; checkpoint replays the forward
            # so its grads agree numerically.
            assert np.array_equal(plain[name], fast[name]), name
            assert np.allclose(plain[name], ckpt[name], atol=1e-4), name


class TestCheckpointedTrainer:
    def test_checkpointed_trainer_learns(self, pretrained_model, adapt_corpus):
        from repro.adaptive import checkpointed_trainer
        from repro.data import lm_batches

        trainer = checkpointed_trainer(pretrained_model, lr=1e-3)
        stats = trainer.train(
            lm_batches(adapt_corpus, 4, 16, 10, np.random.default_rng(0))
        )
        assert stats[-1].loss < stats[0].loss

    def test_checkpointed_memory_much_smaller(self, pretrained_model):
        from repro.adaptive import checkpointed_trainer, vanilla_trainer

        plain = vanilla_trainer(pretrained_model).memory_report(4, 32)
        ckpt = checkpointed_trainer(pretrained_model).memory_report(4, 32)
        assert ckpt.activation_bytes < plain.activation_bytes / 4
        # but optimizer/grad state is unchanged (all params still train)
        assert ckpt.optimizer_bytes == plain.optimizer_bytes

    def test_checkpoint_recompute_workload(self):
        from repro.hw import total_macs, tuning_iteration_workload
        from repro.nn import TransformerConfig

        cfg = TransformerConfig(vocab_size=64, dim=64, num_layers=4,
                                num_heads=4, max_len=128)
        plain = total_macs(tuning_iteration_workload(cfg, 2, 16, 4, 0))
        ckpt = total_macs(
            tuning_iteration_workload(cfg, 2, 16, 4, 0, checkpoint_recompute=True)
        )
        assert ckpt > plain * 1.2  # extra forward replay
