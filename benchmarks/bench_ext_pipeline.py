"""EXT — pipeline-parallel sharded tuning (repro.dist).

Three runs of the same adaptation workload from identical initial
weights:

* ``1 shard, 1 micro``  — the plain single-process trainer (throughput
  baseline);
* ``1 shard, M micro``  — in-process micro-batched reference (the
  bitwise anchor for the pipeline);
* ``2 shards, M micro`` — persistent-worker 1F1B pipeline.

Emitted metrics:

* ``losses_identical`` / ``weights_identical`` — the 2-shard pipeline
  reproduces the 1-shard micro-batched trajectory bit for bit (asserted
  here, at any CPU count);
* ``memory_shrink`` — single-process param+optimizer bytes over the
  largest stage's share (~S for balanced plans; asserted >= 1.6);
* ``tuning_speedup`` — 2-shard pipeline step throughput over the
  single-process baseline.  Not asserted locally (a host may expose
  one core); CI enforces the >= 1.3x bar via
  ``validate_results --min-metric`` on multi-core runners with BLAS
  threading pinned to 1;
* ``ideal_speedup`` — the 1F1B bound M·S/(M+S−1) for S stages and M
  micro-batches over the same micro-batched serial run (1.333 at
  S=2, M=2);
* ``microbatch_ref_speedup`` — the 1-shard, M-micro step over the
  1-shard, 1-micro step: what micro-batching alone does to a step;
* ``pipeline_efficiency`` — the pipeline's speedup over its
  micro-batched reference, as a fraction of ``ideal_speedup``.

``tuning_speedup`` = ``microbatch_ref_speedup`` × ``pipeline_efficiency``
× ``ideal_speedup``, so a miss of the 1.3x bar reads as either the
micro-batched reference or the pipeline falling short.
"""

import time

import numpy as np

from repro.adaptive import AdaptiveTuningConfig
from repro.data import MarkovChainCorpus, lm_batches
from repro.dist import DistConfig, PipelineAdaptiveTrainer
from repro.nn import TransformerConfig, TransformerLM

from .common import ADAPT_SEED, emit

# Wider and longer than the shared bench model so per-stage compute
# dominates the activation hand-off (micro x seq x dim floats per
# boundary per micro-batch).
DIM = 256
LAYERS = 8
VOCAB = 64
BATCH = 16
SEQ = 64
SHARDS = 2
MICRO = 2
WARMUP = 2
TIMED_STEPS = 8


def pipe_config() -> TransformerConfig:
    return TransformerConfig(
        vocab_size=VOCAB, dim=DIM, num_layers=LAYERS, num_heads=4,
        max_len=128, seed=0,
    )


def make_model(state=None) -> TransformerLM:
    model = TransformerLM(pipe_config())
    if state is not None:
        model.load_state_dict(state)
    return model


def tuning_config() -> AdaptiveTuningConfig:
    # Full-depth windows keep every stage in the backward path, the
    # steady-state regime the 1F1B schedule is built for.
    return AdaptiveTuningConfig(
        window=LAYERS, exit_points=[LAYERS], schedule="full", lr=1e-3,
        seed=0,
    )


def run_tuning(state, data, shards, micro, serial=False):
    """Train over ``data``; returns (losses, per-step seconds, trainer
    artifacts) with the first WARMUP steps excluded from timing."""
    model = make_model(state)
    dist = DistConfig(shards=shards, micro_batches=micro, serial=serial)
    losses, times = [], []
    with PipelineAdaptiveTrainer(model, tuning_config(), dist) as trainer:
        backend = trainer.runner.backend
        for step, (inputs, targets) in enumerate(data):
            start = time.perf_counter()
            stats = trainer.train_step(inputs, targets)
            elapsed = time.perf_counter() - start
            losses.append(stats.loss)
            if step >= WARMUP:
                times.append(elapsed)
        stage_mem = trainer.stage_memory_report()
        trainer.sync_model()
    return {
        "losses": losses,
        "median_step_s": float(np.median(times)),
        "stage_mem": stage_mem,
        "state": model.state_dict(),
        "backend": backend,
    }


def states_equal(a, b) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a
    )


def test_ext_pipeline():
    state = make_model().state_dict()
    corpus = MarkovChainCorpus(vocab_size=VOCAB, order=1, seed=ADAPT_SEED)
    data = list(lm_batches(
        corpus, BATCH, SEQ, WARMUP + TIMED_STEPS, np.random.default_rng(0)
    ))

    base = run_tuning(state, data, shards=1, micro=1)
    ref = run_tuning(state, data, shards=1, micro=MICRO)
    pipe = run_tuning(state, data, shards=SHARDS, micro=MICRO)

    losses_identical = ref["losses"] == pipe["losses"]
    weights_identical = states_equal(ref["state"], pipe["state"])
    speedup = base["median_step_s"] / pipe["median_step_s"]
    ideal = MICRO * SHARDS / (MICRO + SHARDS - 1)
    ref_speedup = base["median_step_s"] / ref["median_step_s"]
    efficiency = ref["median_step_s"] / pipe["median_step_s"] / ideal

    single_bytes = sum(
        r["param_bytes"] + r["optimizer_bytes"] for r in base["stage_mem"]
    )
    worst_stage = max(
        r["param_bytes"] + r["optimizer_bytes"] for r in pipe["stage_mem"]
    )
    memory_shrink = single_bytes / worst_stage

    rows = [
        ["1 shard, 1 micro", base["backend"],
         round(base["median_step_s"], 4), 1.0, single_bytes],
        [f"1 shard, {MICRO} micro", ref["backend"],
         round(ref["median_step_s"], 4), round(ref_speedup, 3),
         single_bytes],
        [f"{SHARDS} shards, {MICRO} micro", pipe["backend"],
         round(pipe["median_step_s"], 4), round(speedup, 3), worst_stage],
    ]
    metrics = {
        "tuning_speedup": speedup,
        "ideal_speedup": ideal,
        "microbatch_ref_speedup": ref_speedup,
        "pipeline_efficiency": efficiency,
        "losses_identical": int(losses_identical),
        "weights_identical": int(weights_identical),
        "memory_shrink": memory_shrink,
        "base_step_s": base["median_step_s"],
        "pipeline_step_s": pipe["median_step_s"],
        "pipeline_backend": pipe["backend"],
    }
    emit(
        "ext_pipeline",
        "EXT: 2-stage pipeline tuning vs single process (bitwise "
        "trajectory, per-process memory, throughput)",
        ["configuration", "backend", "median step s", "speedup",
         "worst-process bytes"],
        rows,
        metrics=metrics,
        config={
            "dim": DIM, "layers": LAYERS, "shards": SHARDS,
            "micro_batches": MICRO,
            "timed_steps": TIMED_STEPS, "window": "full-depth",
        },
    )

    # Bitwise contract holds at any core count — always asserted.
    assert losses_identical, "pipeline losses diverged from 1-shard run"
    assert weights_identical, "pipeline weights diverged from 1-shard run"
    assert pipe["backend"] == "process", "process backend unavailable"
    # Balanced 2-stage plans roughly halve per-process state.
    assert memory_shrink >= 1.6
    # tuning_speedup is enforced in CI (multi-core, BLAS pinned), not here.
