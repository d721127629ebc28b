"""Tests for the tape profiler, including empirical validation of the
analytical activation-memory model's scaling claims."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, profile_tape


class TestProfilerBasics:
    def test_counts_recorded_nodes(self):
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        with profile_tape() as stats:
            out = (a * 2 + 1).relu()
        assert stats.recorded_nodes == 3  # mul, add, relu
        assert stats.recorded_bytes == 3 * 4 * 4 * 4

    def test_no_grad_records_nothing(self):
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        with profile_tape() as stats:
            with no_grad():
                (a * 2 + 1).relu()
        assert stats.recorded_nodes == 0
        assert stats.recorded_bytes == 0

    def test_constants_record_nothing(self):
        a = Tensor(np.ones((4, 4)))  # no grad
        with profile_tape() as stats:
            (a * 2 + 1).relu()
        assert stats.recorded_nodes == 0

    def test_restores_original_make(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with profile_tape():
            pass
        out = a * 2
        out.sum().backward()
        assert np.allclose(a.grad, 2.0)

    def test_reset(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with profile_tape() as stats:
            _ = a * 2
            stats.reset()
            _ = a * 3
        assert stats.recorded_nodes == 1


class TestEmpiricalMemoryValidation:
    """The R-F2 scaling claims, measured instead of modeled."""

    def _window_bytes(self, model, window, ids):
        from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig

        trainer = AdaptiveLayerTrainer(
            model,
            AdaptiveTuningConfig(window=window, exit_points=[4],
                                 schedule="fixed_shallow"),
        )
        tuning_window = trainer.schedule.select(0, np.random.default_rng(0))
        with profile_tape() as stats:
            trainer._logits_for_window(ids, tuning_window)
        return stats.recorded_bytes

    def test_activation_bytes_scale_with_window(self, pretrained_model):
        ids = np.random.default_rng(0).integers(0, 32, (4, 16))
        one = self._window_bytes(pretrained_model, 1, ids)
        two = self._window_bytes(pretrained_model, 2, ids)
        four = self._window_bytes(pretrained_model, 4, ids)
        # Exit-head work is constant, so ratios are slightly below 2.
        assert 1.5 < two / one < 2.2
        assert 1.5 < four / two < 2.2

    def test_checkpointing_measured_smaller(self, pretrained_model):
        ids = np.random.default_rng(0).integers(0, 32, (2, 16))
        h = pretrained_model.embed_tokens(ids)
        with profile_tape() as plain:
            pretrained_model.run_blocks(Tensor(h.data, requires_grad=True), 0, 4)
        with profile_tape() as ckpt:
            pretrained_model.run_blocks(
                Tensor(h.data, requires_grad=True), 0, 4, checkpoint_blocks=True
            )
        assert ckpt.recorded_bytes < plain.recorded_bytes / 10

    def test_analytical_model_within_factor_of_measurement(self, pretrained_model):
        """The analytic per-block activation estimate must agree with the
        measured tape bytes within a small constant factor."""
        from repro.eval import block_activation_floats

        batch, seq = 4, 16
        ids = np.random.default_rng(0).integers(0, 32, (batch, seq))
        h = pretrained_model.embed_tokens(ids)
        with profile_tape() as stats:
            pretrained_model.run_blocks(Tensor(h.data, requires_grad=True), 0, 1)
        measured = stats.recorded_bytes
        predicted = block_activation_floats(
            pretrained_model.config, batch, seq
        ) * 4
        assert predicted / 3 < measured < predicted * 3


class TestProfileOps:
    """Per-op time of replayed graphs: the same outputs, and one row per
    op name whose counts are the graph's steps."""

    def capture(self):
        from repro.nn import TransformerConfig, TransformerLM
        from repro.tensor import GraphRecorder

        model = TransformerLM(TransformerConfig(vocab_size=32, dim=32, num_layers=2,
                                                num_heads=4, max_len=16))
        ids = np.arange(8, dtype=np.int64).reshape(1, 8)
        recorder = GraphRecorder()
        with no_grad(), recorder:
            t = Tensor(ids)
            recorder.add_input(t)
            logits = model(t.data)
        return recorder.finalize(outputs=[logits]), ids

    def test_outputs_equal_and_counts_match_the_steps(self):
        import collections

        from repro.tensor import profile_ops
        from repro.tensor.profiler import REPLAY_LOOP

        graph, ids = self.capture()
        with no_grad():
            plain = graph.replay([ids])
            with profile_ops() as prof:
                profiled = graph.replay([ids])
                graph.replay([ids])
        assert [a.tobytes() for a in plain] == [a.tobytes() for a in profiled]
        steps = collections.Counter(step.op.name for step in graph.steps)
        counts = {name: row[0] for name, row in prof.rows.items()}
        assert counts.pop(REPLAY_LOOP) == 2
        assert counts == {name: 2 * n for name, n in steps.items()}
        assert prof.replays == 2
        assert prof.seconds == pytest.approx(sum(row[2] for row in prof.table()))
        assert prof.rows["matmul"][2] > 0
