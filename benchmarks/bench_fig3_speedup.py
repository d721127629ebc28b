"""R-F3 — the headline figure: per-iteration training speedup.

Paper claim (abstract): Edge-LLM achieves a **2.92x speedup per training
iteration** over vanilla tuning at comparable accuracy.  Two measurements:

1. *Modeled*: one tuning iteration priced on the edge-accelerator cost
   model for each cumulative configuration (vanilla -> +LUC -> +adaptive
   layer tuning -> +schedule search).  Two vanilla references are shown:
   a naive heuristic schedule and a fully searched schedule (the strong
   baseline, comparable to a vendor-tuned library).
2. *Wall-clock*: real numpy train-step latency of the adaptive trainer vs
   the vanilla full-depth trainer — the honest end-to-end analogue of the
   paper's measured 2.92x — on the dense model and on the model
   compressed by the searched LUC policy.  numpy realizes neither
   bit-width nor sparsity, so the compressed step pays for its
   fake-quant and masks instead of saving on them.
"""

import time

import numpy as np

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig, vanilla_trainer
from repro.hw import EDGE_GPU_LIKE, schedule_workloads, tuning_iteration_workload
from repro.luc import apply_luc, enumerate_layer_options, measure_sensitivity, search_policy

from .common import (
    BATCH,
    BUDGET,
    EXIT_POINTS,
    SEQ,
    WINDOW,
    adapt_batches,
    bench_config,
    calib_batch,
    clone_model,
    emit,
    pretrain_corpus,
)


def _mean_adaptive_cycles(cfg, bits, sparsity, strategy):
    """Average modeled cycles over the exit cycle."""
    totals = []
    for exit_point in EXIT_POINTS:
        gemms = tuning_iteration_workload(
            cfg,
            BATCH,
            SEQ,
            forward_blocks=exit_point,
            grad_start=max(exit_point - WINDOW, 0),
            bits_per_block=bits,
            sparsity_per_block=sparsity,
        )
        totals.append(schedule_workloads(gemms, EDGE_GPU_LIKE, strategy=strategy))
    return float(np.mean([c.cycles for c in totals]))


def _wallclock(trainer, batches, steps=12):
    """Median per-step latency (median resists transient machine load)."""
    it = iter(batches)
    trainer.train_step(*next(it))  # warm-up
    times = []
    for done, (inputs, targets) in enumerate(it):
        start = time.perf_counter()
        trainer.train_step(inputs, targets)
        times.append(time.perf_counter() - start)
        if done + 1 >= steps:
            break
    return float(np.median(times))


def test_fig3_iteration_speedup(base_state, benchmark):
    cfg = bench_config()
    model = clone_model(base_state)

    # LUC policy from real sensitivities.
    options = enumerate_layer_options((2, 4, 8), (0.0, 0.3, 0.5))
    profile = measure_sensitivity(
        model, *calib_batch(pretrain_corpus()), options, metric="loss_delta"
    )
    policy = search_policy(profile, cfg.num_layers, BUDGET, options=options)
    bits = policy.bits_per_block()
    sparsity = policy.sparsity_per_block()

    full = tuning_iteration_workload(cfg, BATCH, SEQ, cfg.num_layers, 0)
    vanilla_naive = schedule_workloads(full, EDGE_GPU_LIKE, strategy="heuristic").cycles
    vanilla_tuned = schedule_workloads(full, EDGE_GPU_LIKE, strategy="exhaustive").cycles

    luc_cycles = schedule_workloads(
        tuning_iteration_workload(
            cfg, BATCH, SEQ, cfg.num_layers, 0,
            bits_per_block=bits, sparsity_per_block=sparsity,
        ),
        EDGE_GPU_LIKE,
        strategy="exhaustive",
    ).cycles
    edge_cycles = _mean_adaptive_cycles(cfg, bits, sparsity, "exhaustive")
    edge_unsched = _mean_adaptive_cycles(cfg, bits, sparsity, "heuristic")

    rows = [
        ["vanilla, naive schedule", vanilla_naive / 1e6, vanilla_tuned / vanilla_naive],
        ["vanilla, searched schedule (baseline)", vanilla_tuned / 1e6, 1.0],
        ["+ LUC compression", luc_cycles / 1e6, vanilla_tuned / luc_cycles],
        ["+ adaptive layer tuning, naive schedule", edge_unsched / 1e6,
         vanilla_tuned / edge_unsched],
        ["+ schedule search (full Edge-LLM)", edge_cycles / 1e6,
         vanilla_tuned / edge_cycles],
    ]

    # Wall-clock secondary signal.
    tuning = AdaptiveTuningConfig(window=WINDOW, exit_points=EXIT_POINTS, lr=1e-3)
    adaptive = AdaptiveLayerTrainer(model, tuning)
    compressed_model = clone_model(base_state)
    apply_luc(compressed_model, policy)
    compressed = AdaptiveLayerTrainer(compressed_model, tuning)
    vanilla = vanilla_trainer(clone_model(base_state), lr=1e-3)
    t_adaptive = _wallclock(adaptive, adapt_batches(16))
    t_compressed = _wallclock(compressed, adapt_batches(16))
    t_vanilla = _wallclock(vanilla, adapt_batches(16))
    rows.append(
        ["wall-clock (numpy): vanilla step", t_vanilla * 1e3, 1.0]
    )
    rows.append(
        ["wall-clock (numpy): Edge-LLM step", t_adaptive * 1e3,
         t_vanilla / t_adaptive]
    )
    rows.append(
        ["wall-clock (numpy): Edge-LLM step, LUC-compressed",
         t_compressed * 1e3, t_vanilla / t_compressed]
    )

    emit(
        "fig3_speedup",
        "R-F3: per-iteration training cost — paper target: 2.92x speedup\n"
        "(modeled rows in Mcycles; wall-clock rows in ms)",
        ["configuration", "cost", "speedup vs vanilla"],
        rows,
        metrics={
            "paper_target_speedup": 2.92,
            "modeled_speedup": vanilla_tuned / edge_cycles,
            "modeled_speedup_luc_only": vanilla_tuned / luc_cycles,
            "wallclock_speedup": t_vanilla / t_adaptive,
            "wallclock_speedup_compressed": t_vanilla / t_compressed,
            "vanilla_tuned_mcycles": vanilla_tuned / 1e6,
            "edge_llm_mcycles": edge_cycles / 1e6,
        },
        config={"policy_cost": policy.cost()},
    )

    assert vanilla_tuned / edge_cycles > 2.0
    # Wall-clock is sensitive to concurrent machine load; the modeled rows
    # above carry the deterministic claim.  Typical unloaded ratio: 1.9-2.9x.
    assert t_vanilla / t_adaptive > 1.2

    batches = list(adapt_batches(8))
    state = {"i": 0}

    def one_step():
        inputs, targets = batches[state["i"] % len(batches)]
        state["i"] += 1
        adaptive.train_step(inputs, targets)

    benchmark(one_step)


def test_fig3_wallclock_vanilla_reference(base_state, benchmark):
    """Wall-clock reference: one vanilla full-depth train step."""
    model = clone_model(base_state)
    trainer = vanilla_trainer(model, lr=1e-3)
    batches = list(adapt_batches(8))
    state = {"i": 0}

    def one_step():
        inputs, targets = batches[state["i"] % len(batches)]
        state["i"] += 1
        trainer.train_step(inputs, targets)

    benchmark(one_step)
