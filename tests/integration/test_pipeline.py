"""Integration tests: the full EdgeLLM pipeline end-to-end."""

import numpy as np
import pytest

from repro import EdgeLLM, EdgeLLMConfig
from repro.adaptive import AdaptiveTuningConfig
from repro.data import MultipleChoiceTask, lm_batches
from repro.eval import model_perplexity, multiple_choice_accuracy, perplexity
from repro.nn import TransformerLM

from ..conftest import small_config


@pytest.fixture
def edge(pretrained_model):
    config = EdgeLLMConfig(
        compute_budget=0.35,
        bit_options=(4, 8),
        prune_options=(0.0, 0.3),
        tuning=AdaptiveTuningConfig(window=2, exit_points=[2, 4, 6], lr=2e-3),
    )
    return EdgeLLM(pretrained_model, config)


def calib(corpus, seed=42):
    return next(lm_batches(corpus, 4, 24, 1, np.random.default_rng(seed)))


class TestPipelineStages:
    def test_compress_meets_budget(self, edge, pretrain_corpus):
        policy = edge.compress(*calib(pretrain_corpus))
        assert policy.cost() <= 0.35 + 1e-9
        assert edge.policy is policy

    def test_decompress_restores(self, edge, pretrain_corpus):
        ids, _ = calib(pretrain_corpus)
        from repro.tensor import no_grad

        with no_grad():
            base = edge.model(ids).data.copy()
        edge.compress(*calib(pretrain_corpus))
        edge.decompress()
        with no_grad():
            restored = edge.model(ids).data
        assert np.allclose(base, restored, atol=1e-6)
        assert edge.policy is None

    def test_adapt_requires_nothing_but_batches(self, edge, adapt_corpus):
        stats = edge.adapt(
            lm_batches(adapt_corpus, 4, 24, 6, np.random.default_rng(0))
        )
        assert len(stats) == 6

    def test_voting_requires_adapt_first(self, edge, adapt_corpus):
        with pytest.raises(RuntimeError):
            edge.calibrate_voting(*calib(adapt_corpus))

    def test_cost_accounting_requires_adapt(self, edge):
        with pytest.raises(RuntimeError):
            edge.iteration_cost(4, 24)
        with pytest.raises(RuntimeError):
            edge.memory_report(4, 24)

    def test_logits_fall_back_to_model_head(self, edge, adapt_corpus):
        ids, _ = calib(adapt_corpus)
        out = edge.logits(ids)
        assert out.shape == (*ids.shape, 32)


class TestFullRun:
    @pytest.fixture
    def completed(self, edge, pretrain_corpus, adapt_corpus):
        edge.compress(*calib(pretrain_corpus))
        edge.adapt(lm_batches(adapt_corpus, 4, 24, 24, np.random.default_rng(0)))
        edge.calibrate_voting(*calib(adapt_corpus, seed=99))
        return edge

    def test_adaptation_improves_target_perplexity(
        self, completed, adapt_corpus, pretrained_state
    ):
        from repro.nn import TransformerLM
        from ..conftest import small_config

        # Fresh un-adapted model for reference.
        reference = TransformerLM(small_config())
        reference.load_state_dict(pretrained_state)
        before = model_perplexity(reference, adapt_corpus, num_batches=2)
        after = perplexity(completed.logits, adapt_corpus, num_batches=2)
        assert after < before

    def test_speedup_in_paper_regime(self, completed):
        """Headline claim: ~2.92x per-iteration speedup vs vanilla tuning."""
        speedup = completed.speedup_vs_vanilla(4, 24)
        assert speedup > 1.5
        assert speedup < 20.0

    def test_memory_report_compressed_weights(self, completed):
        report = completed.memory_report(4, 24)
        from repro.eval import model_weight_bytes

        uncompressed = model_weight_bytes(completed.model.config)
        assert report.weight_bytes < uncompressed

    def test_iteration_cost_utilization(self, completed):
        cost = completed.iteration_cost(4, 24)
        assert 0.3 < cost.mean_utilization <= 1.0

    def test_voted_accuracy_beats_chance(self, completed, adapt_corpus):
        qa = MultipleChoiceTask(
            adapt_corpus, num_choices=4, prompt_len=10, answer_len=5, seed=5
        )
        acc = multiple_choice_accuracy(completed.logits, qa.dataset(30))
        assert acc > 0.3


class TestConfigValidation:
    """Unknown strategy names and shard layouts fail when the config is
    built, not after compress and adapt have run (voting, shards) or
    when an iteration is priced (schedule)."""

    @pytest.mark.parametrize("field", ["voting_strategy", "schedule_strategy"])
    def test_unknown_strategy_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            EdgeLLMConfig(**{field: "bogus"})

    @pytest.mark.parametrize(
        "voting", ["calibrated", "uniform", "best", "confidence"]
    )
    def test_every_voting_strategy_accepted(self, voting):
        assert EdgeLLMConfig(voting_strategy=voting).voting_strategy == voting

    @pytest.mark.parametrize(
        "schedule", ["exhaustive", "random", "evolutionary", "heuristic"]
    )
    def test_every_schedule_strategy_accepted(self, schedule):
        assert EdgeLLMConfig(schedule_strategy=schedule).schedule_strategy == schedule

    @pytest.mark.parametrize("layout", [
        {"shards": 0},
        {"micro_batches": 0},
        {"shards": -3, "micro_batches": -1},
    ])
    def test_shard_layout_below_one_rejected(self, layout):
        with pytest.raises(ValueError, match="must be >= 1"):
            EdgeLLMConfig(**layout)

    @pytest.mark.parametrize("tuning, message", [
        ({"window": 9}, "window 9"),
        ({"exit_points": [2, 9]}, r"exit points \[9\]"),
        ({"schedule": "bogus"}, "unknown schedule"),
    ], ids=["window", "exit_points", "schedule"])
    def test_tuning_that_the_model_cannot_hold_rejected_at_build(
        self, tuning, message
    ):
        """Checked against the model when ``EdgeLLM`` is built, not in
        adapt() after compress has run (a window wider than the model
        used to tune silently from block 0)."""
        model = TransformerLM(small_config(num_layers=4))
        config = EdgeLLMConfig(tuning=AdaptiveTuningConfig(**tuning))
        with pytest.raises(ValueError, match=message):
            EdgeLLM(model, config)

    def test_window_as_deep_as_the_model_accepted(self):
        model = TransformerLM(small_config(num_layers=4))
        EdgeLLM(model, EdgeLLMConfig(tuning=AdaptiveTuningConfig(window=4)))

    @pytest.mark.parametrize("fields", [
        {"compute_budget": 0},
        {"compute_budget": 1.5},
        {"sensitivity_metric": "bogus"},
        {"policy_search": "bogus"},
        {"bit_options": (1,)},
        {"prune_options": (1.0,)},
        {"slice_options": (0.0,)},
        {"workers": -1},
        {"shards": 9},
        {"stage_plan": "1,2"},
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_values_that_fail_late_are_rejected_at_build(self, fields):
        """Each of these used to pass ``EdgeLLM(...)`` and fail only inside
        compress or adapt (or, for a stage plan at one shard, be ignored);
        now the build raises, naming the field."""
        model = TransformerLM(small_config(num_layers=4))
        (name,) = fields
        with pytest.raises(ValueError, match=name):
            EdgeLLM(model, EdgeLLMConfig(**fields))

    def test_micro_batched_stage_plan_rejected_at_build(self):
        """Micro-batching alone runs the pipeline trainer at one stage; a
        three-stage plan used to fail there, after compress, naming no
        field."""
        model = TransformerLM(small_config(num_layers=4))
        config = EdgeLLMConfig(micro_batches=2, stage_plan="1,2")
        with pytest.raises(ValueError, match="stage_plan: .* expected 1"):
            EdgeLLM(model, config)

    def test_one_stage_plan_accepted(self):
        model = TransformerLM(small_config(num_layers=4))
        EdgeLLM(model, EdgeLLMConfig(stage_plan=""))
        EdgeLLM(model, EdgeLLMConfig(shards=2, stage_plan="2"))
