"""Tensor parallelism composed with the rest of the stack: tuning at
any (PP, TP, micro) layout, the continuous-batching scheduler with
sampled/voting decode, the PP×TP layout planner, and serving-only
telemetry rows rendered by ``repro report``.
"""

import numpy as np
import pytest

from repro.adaptive import AdaptiveTuningConfig, ExitHeadSet, VotingCombiner
from repro.data import lm_batches
from repro.dist import (
    DistConfig,
    PipelineAdaptiveTrainer,
    PipelineGenerationEngine,
    SAMPLING_UNSUPPORTED_MSG,
    choose_layout,
    tp_enable,
)
from repro.dist.plan import candidate_layouts
from repro.hw import tp_comm_bytes
from repro.nn import TransformerLM
from repro.nn.layers import Linear
from repro.obs import format_report, use_registry
from repro.serve import (
    CachePool,
    GenerationEngine,
    Request,
    Scheduler,
    SchedulerConfig,
    serve_batch,
)
from repro.tensor import graph_capture

from ..conftest import small_config


def make_model(state):
    model = TransformerLM(small_config())
    model.load_state_dict(state)
    return model


def batches(corpus, n=3):
    return list(lm_batches(corpus, 4, 16, n, np.random.default_rng(0)))


class TestTuningLayouts:
    def test_losses_and_weights_bitwise_across_layouts(
        self, pretrained_state, adapt_corpus
    ):
        """Tuning with TP enabled is one run in different clothes: the
        canonical chunk grid is fixed by the model widths, never the
        layout, so losses AND final weights are bitwise equal at any
        (shards, tp, micro) factorization."""
        cfg = AdaptiveTuningConfig(window=2, seed=0)
        data = batches(adapt_corpus)

        def run(dist):
            model = make_model(pretrained_state)
            with PipelineAdaptiveTrainer(model, cfg, dist) as trainer:
                losses = [trainer.train_step(i, t).loss for i, t in data]
                trainer.sync_model()
            weights = {
                k: v.tobytes() for k, v in model.state_dict().items()
            }
            return losses, weights

        ref_losses, ref_weights = run(
            DistConfig(shards=1, tp=2, micro_batches=2)
        )
        layouts = [
            DistConfig(shards=2, tp=2, micro_batches=2),
            DistConfig(shards=2, tp=4, micro_batches=2, serial=True),
            DistConfig(shards=3, tp=2, micro_batches=2, serial=True),
        ]
        for dist in layouts:
            losses, weights = run(dist)
            assert losses == ref_losses, dist
            assert weights == ref_weights, dist

    def test_close_restores_plain_linears(self, pretrained_state, adapt_corpus):
        """Trainer teardown undoes the TPLinear swaps; the tuned weights
        survive because TPLinear adopted the same Parameter objects."""
        model = make_model(pretrained_state)
        cfg = AdaptiveTuningConfig(window=2, seed=0)
        (inputs, targets), = batches(adapt_corpus, n=1)
        with PipelineAdaptiveTrainer(
            model, cfg, DistConfig(shards=1, tp=2)
        ) as trainer:
            trainer.train_step(inputs, targets)
            assert type(model.blocks[0].attn.q_proj) is not Linear
        assert type(model.blocks[0].attn.q_proj) is Linear
        assert type(model.blocks[-1].mlp.down_proj) is Linear


def sampled_requests(prompts, seed=7):
    return [
        Request(
            f"r{i}", prompt=p, max_new_tokens=6, greedy=False,
            temperature=0.8, top_k=8, seed=seed + i,
        )
        for i, p in enumerate(prompts)
    ]


def run_scheduler(model, requests):
    engine = GenerationEngine(model)
    pool = CachePool(
        model.num_layers, sum(r.reserved_tokens for r in requests)
    )
    scheduler = Scheduler(
        engine, pool, SchedulerConfig(max_batch_size=4, max_steps=500)
    )
    for r in requests:
        scheduler.submit(r)
    with graph_capture(False):
        return {r.request_id: r.tokens for r in scheduler.run()}


class TestServingComposition:
    PROMPTS = [[1, 2, 3, 4, 5], [9, 8, 7], [3, 1, 4, 1, 5, 9]]

    def test_scheduler_sampled_decode_group_matches_in_process(
        self, pretrained_state
    ):
        """The full continuous-batching scheduler with per-request
        sampled decode over a TP=2 process group emits exactly the
        tokens of the in-process canonical path: RNG streams live on
        the head shard (the driver), the sharded GEMMs are bitwise
        identical, so the whole decode is bit-identical."""
        inproc = make_model(pretrained_state)
        with tp_enable(inproc, tp=2):
            ref = run_scheduler(inproc, sampled_requests(self.PROMPTS))
        grouped = make_model(pretrained_state)
        with tp_enable(grouped, tp=2, group=True) as state:
            got = run_scheduler(grouped, sampled_requests(self.PROMPTS))
        assert got == ref
        assert state.group is None or state.group.calls >= 0

    def test_sampled_tokens_layout_invariant(self, pretrained_state):
        """Same seeds, different TP degrees: identical tokens."""
        outs = []
        for tp in (2, 4, 8):
            model = make_model(pretrained_state)
            with tp_enable(model, tp=tp):
                outs.append(
                    run_scheduler(model, sampled_requests(self.PROMPTS))
                )
        assert outs[0] == outs[1] == outs[2]

    def test_voting_decode_composes_with_tp_group(self, pretrained_state):
        """Adaptive layer voting (exit heads + calibrated combiner) over
        TP-sharded blocks: exit heads stay unsharded, block forwards
        fan out, and the result matches the in-process path exactly."""

        def run(model):
            heads = ExitHeadSet(
                model, exit_points=[2, 4], seed=0
            )
            voting = VotingCombiner(model, heads)
            rng = np.random.default_rng(0)
            calib = rng.integers(
                0, model.config.vocab_size, size=(4, 12)
            )
            targets = np.roll(calib, -1, axis=1)
            voting.calibrate(calib, targets)
            reqs = [
                Request("v0", prompt=[1, 2, 3, 4], max_new_tokens=5),
                Request(
                    "v1", prompt=[5, 6, 7], max_new_tokens=5,
                    greedy=False, temperature=0.9, seed=11,
                ),
            ]
            results = serve_batch(model, reqs, voting=voting)
            return [r.tokens for r in results]

        inproc = make_model(pretrained_state)
        with tp_enable(inproc, tp=2):
            ref = run(inproc)
        grouped = make_model(pretrained_state)
        from repro.tensor import graph_capture

        with tp_enable(grouped, tp=2, group=True):
            with graph_capture(False):
                got = run(grouped)
        assert got == ref


class TestSamplingCapabilityMessage:
    def test_message_names_tp_alternative(self):
        """Satellite contract: the pipeline engine's sampling rejection
        is a capability statement pointing at --tp, not a bare error."""
        assert "--tp" in SAMPLING_UNSUPPORTED_MSG
        assert "greedy" in SAMPLING_UNSUPPORTED_MSG
        assert "tensor-parallel" in SAMPLING_UNSUPPORTED_MSG

    def test_engine_raises_the_message(self, pretrained_model):
        with PipelineGenerationEngine(
            pretrained_model, DistConfig(shards=2, serial=True)
        ) as engine:
            with pytest.raises(ValueError, match="--tp"):
                engine.generate_batch([[1, 2, 3]], 4, greedy=False)


class TestLayoutPlanner:
    def test_candidate_layouts_factorize_workers(self):
        assert candidate_layouts(4, 6) == [(1, 4), (2, 2), (4, 1)]
        # tp must tile the canonical chunk grid with aligned subtrees
        assert (2, 3) not in candidate_layouts(6, 6)
        assert candidate_layouts(8, 6) == [(1, 8), (2, 4), (4, 2)]

    def test_fast_link_prefers_fewer_ranks_on_ties(self, pretrained_model):
        """With free communication the 6 equal-cost blocks tie at
        bottleneck/tp between (1,4) and (2,2); the deterministic
        tie-break picks the smaller TP degree."""
        choice = choose_layout(
            pretrained_model, workers=4, macs_per_byte=0.0
        )
        assert (choice.pp, choice.tp) == (2, 2)
        assert choice.comm_cost == 0.0

    def test_slow_link_prefers_pure_pipeline(self, pretrained_model):
        choice = choose_layout(
            pretrained_model, workers=4, macs_per_byte=1e9
        )
        assert choice.tp == 1
        assert choice.pp == 4

    def test_no_executable_layout_raises(self, pretrained_model):
        # 11 is prime and exceeds the 6 blocks, so pp=1/tp=11 is the
        # only factorization — and 11 does not tile the 8-chunk grid.
        with pytest.raises(ValueError, match="layout"):
            choose_layout(pretrained_model, workers=11)
        with pytest.raises(ValueError, match="workers"):
            choose_layout(pretrained_model, workers=0)

    def test_tp_comm_bytes_model(self, pretrained_model):
        config = pretrained_model.config
        assert tp_comm_bytes(config, 8, 32, 1) == 0.0
        # dim=48, kv=48, hidden=128: five column shards broadcast the
        # input and return 1/tp output slices, two row shards return
        # full-width partials.
        dim, kv, hidden = 48, 48, 128
        col = sum(
            (2 - 1) * dim + (2 - 1) * out / 2
            for out in (dim, kv, kv, hidden, hidden)
        )
        row = (2 - 1) * (dim + dim) + (2 - 1) * (hidden + dim)
        assert tp_comm_bytes(config, 8, 32, 2) == (col + row) * 8 * 32 * 4
        assert tp_comm_bytes(config, 8, 32, 4) > tp_comm_bytes(
            config, 8, 32, 2
        )


class TestServingTelemetry:
    def test_serving_only_run_renders_dist_rows(
        self, pretrained_model, adapt_corpus
    ):
        """Satellite contract: a serving-only telemetry report (no
        tuning iterations at all) still renders the dist/iter and
        dist/stage sections in ``repro report`` output."""
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
        assert row["tp"] == 1
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
        (inputs, targets), = batches(adapt_corpus, n=1)
        with use_registry() as reg:
            model = make_model(pretrained_state)
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
