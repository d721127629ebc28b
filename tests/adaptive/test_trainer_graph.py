"""Graph capture in the adaptive trainer.

Capturing the tuning-window step and replaying it must be invisible in
the numbers: the loss trajectory is bit-identical with capture on and
off, across window rotation, and the graph/arena counters prove the
replays actually happened, into one step slab per trainer.
"""

import numpy as np

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.data import lm_batches
from repro.luc import LUCPolicy, apply_luc
from repro.nn import TransformerLM
from repro.nn.transforms import PruneMask, TransformedLinear
from repro.obs import MetricsRegistry, use_registry
from repro.tensor import graph_capture

from ..conftest import small_config


def untied_model(state=None):
    model = TransformerLM(small_config(num_layers=4, tie_embeddings=False))
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


def run_losses(state, batches, capture, **overrides):
    trainer = AdaptiveLayerTrainer(untied_model(state), window_config(**overrides))
    with graph_capture(capture):
        return [trainer.train_step(i, t).loss for i, t in batches]


class TestTrajectoryIdentity:
    def test_capture_is_bit_identical(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 8)
        captured = run_losses(state, batches, True)
        traced = run_losses(state, batches, False)
        assert captured == traced

    def test_capture_identical_across_window_rotation(self, adapt_corpus):
        """Round-robin rotates the tuned window; each window captures its
        own graph and the trajectory still matches trace-every-step."""
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 6)
        captured = run_losses(state, batches, True, window=1)
        traced = run_losses(state, batches, False, window=1)
        assert captured == traced


def pruned_losses(state, batches, capture, swap_mask_at=None):
    """Losses of a 30%-pruned 4-layer model tuned one block at a time
    over every exit; ``swap_mask_at`` replaces every prune mask before
    that step."""
    model = TransformerLM(small_config(num_layers=4, dim=32, tie_embeddings=False))
    model.load_state_dict(state)
    apply_luc(model, LUCPolicy.uniform(4, 16, 0.3))
    trainer = AdaptiveLayerTrainer(
        model, window_config(window=1, exit_points=[1, 2, 3, 4])
    )
    losses = []
    for i, (inputs, targets) in enumerate(batches):
        if i == swap_mask_at:
            rng = np.random.default_rng(5)
            for module in model.modules():
                if isinstance(module, TransformedLinear):
                    prune = module.find(PruneMask)
                    prune.set_mask(rng.random(prune.mask.shape) > 0.5)
        with graph_capture(capture):
            losses.append(trainer.train_step(inputs, targets).loss)
    return losses


class TestTransformInvalidation:
    """Captured steps must see weight-transform changes a replay cannot."""

    def state(self):
        return TransformerLM(
            small_config(num_layers=4, dim=32, tie_embeddings=False)
        ).state_dict()

    def test_window_update_invalidates_folded_prefix(self, adapt_corpus):
        """Each window's step moves a block that deeper windows fold as
        frozen prefix; their captured graphs must not replay the old fold."""
        state = self.state()
        batches = train_batches(adapt_corpus, 12)
        captured = pruned_losses(state, batches, True)
        traced = pruned_losses(state, batches, False)
        assert captured == traced

    def test_set_mask_invalidates_captured_steps(self, adapt_corpus):
        state = self.state()
        batches = train_batches(adapt_corpus, 8)
        captured = pruned_losses(state, batches, True, swap_mask_at=4)
        traced = pruned_losses(state, batches, False, swap_mask_at=4)
        assert captured == traced


class TestCounters:
    def test_steps_replay_after_first_capture(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 8)
        trainer = AdaptiveLayerTrainer(
            untied_model(state), window_config(window=1, exit_points=[2, 4])
        )
        reg = MetricsRegistry()
        with use_registry(reg), graph_capture(True):
            for inputs, targets in batches:
                trainer.train_step(inputs, targets)
        captures = reg.counter("tensor/graph/captures").value
        replays = reg.counter("tensor/graph/replays").value
        # One capture per distinct window config; every other step replays.
        assert 1 < captures < len(batches)
        assert captures + replays == len(batches)
        # Every window's graph replays into the trainer's one step slab,
        # sized to the largest graph; it is reserved only as it grows.
        cache = trainer._graph_cache
        needs = [g.step_bytes for g in cache.graphs()]
        reserved = reg.counter("tensor/arena/bytes_reserved").value
        assert cache.slab_bytes == max(needs) > 0
        assert len(needs) == 2
        assert cache.slab_bytes <= reserved <= sum(needs)

    def test_disabled_capture_never_captures(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 4)
        reg = MetricsRegistry()
        with use_registry(reg):
            run_losses(state, batches, False)
        assert reg.counter("tensor/graph/captures").value == 0
        assert reg.counter("tensor/graph/replays").value == 0


class TestCompressedStepsStayTraced:
    def test_luc_compressed_trainer_stores_no_graph(self, adapt_corpus):
        """Fake-quant is not cacheable, so a compressed step is traced:
        over two round-robin cycles the trainer captures, stores and
        replays nothing, and the cache remembers one uncacheable key per
        window, so later steps skip the recorder."""
        model = TransformerLM(small_config(num_layers=4, dim=32, tie_embeddings=False))
        apply_luc(model, LUCPolicy.uniform(4, 4, 0.3))
        trainer = AdaptiveLayerTrainer(model, window_config(exit_points=[2, 3, 4]))
        batches = train_batches(adapt_corpus, 6)
        reg = MetricsRegistry()
        with use_registry(reg), graph_capture(True):
            stats = [trainer.train_step(i, t) for i, t in batches]
        cache = trainer._graph_cache
        assert len(cache) == 0
        assert reg.counter("tensor/graph/captures").value == 0
        assert reg.counter("tensor/graph/replays").value == 0
        windows = {(s.window.start, s.window.stop, s.window.exit_point) for s in stats}
        assert len(windows) == 3
        assert len(cache._uncacheable) == len(windows)
