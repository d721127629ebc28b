"""EXT — tensor-parallel GEMM sharding under the serving scheduler.

Two runs of the same continuous-batching workload (greedy and sampled
requests mixed, per-request RNG streams) from identical weights:

* ``TP=1`` — the canonical chunked kernels in one process (the bitwise
  anchor: the same arithmetic the sharded run distributes);
* ``TP=2`` — q/k/v/o and gate/up/down sharded over a process group;
  the driver is rank 0 and computes its own span while worker receives
  overlap it.

Emitted metrics:

* ``tokens_identical`` — the TP=2 run emits exactly the TP=1 tokens,
  greedy and sampled alike (asserted here, at any CPU count);
* ``decode_speedup`` — TP=2 serving throughput over TP=1.  Not
  asserted locally (this container may expose one core); CI enforces
  the >= 1.3x bar via ``validate_results --min-metric`` on multi-core
  runners with BLAS threading pinned to 1;
* ``overlap_fraction`` — fraction of fan-out wall time hidden behind
  rank-0 compute (the ``dist/overlap_fraction`` gauge).

The model is deliberately wider than the shared bench model so each
rank's GEMM span dominates the ~50us per-boundary IPC round trip.
"""

import time

import numpy as np

from repro.dist import tp_enable
from repro.nn import TransformerConfig, TransformerLM
from repro.obs import use_registry
from repro.serve import CachePool, Request, Scheduler, SchedulerConfig
from repro.serve import GenerationEngine
from repro.tensor import graph_capture

from .common import emit

DIM = 640
LAYERS = 4
HEADS = 8
VOCAB = 64
MAX_LEN = 64
PROMPT_LEN = 8
MAX_NEW = 24
REQUESTS = 16
WARMUP_NEW = 2


def tp_config() -> TransformerConfig:
    return TransformerConfig(
        vocab_size=VOCAB, dim=DIM, num_layers=LAYERS, num_heads=HEADS,
        max_len=MAX_LEN, seed=0,
    )


def make_model(state=None) -> TransformerLM:
    model = TransformerLM(tp_config())
    if state is not None:
        model.load_state_dict(state)
    return model


def make_requests(max_new=MAX_NEW):
    """Half greedy, half sampled — sampled requests pin their own RNG
    stream via ``seed``, which the TP group keeps on the head shard."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(REQUESTS):
        prompt = [int(t) for t in rng.integers(0, VOCAB, PROMPT_LEN)]
        sampled = i % 2 == 1
        out.append(Request(
            f"r{i}", prompt=prompt, max_new_tokens=max_new,
            greedy=not sampled, temperature=0.8, top_k=8, seed=40 + i,
        ))
    return out


def run_serving(state, tp, group):
    """Serve the workload at the given TP degree; returns tokens,
    decode-phase throughput, and the group's overlap accounting.

    The first scheduler step admits every request (sequential
    per-request prefill); all later steps are pure batched decode.
    Decode throughput is timed over those later steps — the steady
    state the >= 1.3x bar is about — so both runs pay the identical
    (and identically serial) admission cost outside the clock.
    """
    model = make_model(state)
    with use_registry() as reg:
        with tp_enable(model, tp, group=group) as tp_state, graph_capture(False):
            engine = GenerationEngine(model)

            def serve(requests):
                pool = CachePool(
                    model.num_layers,
                    sum(r.reserved_tokens for r in requests),
                )
                scheduler = Scheduler(
                    engine, pool,
                    SchedulerConfig(max_batch_size=REQUESTS, max_steps=500),
                )
                for r in requests:
                    scheduler.submit(r)
                scheduler.step()  # admission + prefill, untimed
                prefill_tokens = sum(
                    len(a.tokens) for a in scheduler._active
                ) + sum(len(r.tokens) for r in scheduler._results)
                start = time.perf_counter()
                results = scheduler.run()
                wall = time.perf_counter() - start
                tokens = {r.request_id: r.tokens for r in results}
                decoded = sum(len(t) for t in tokens.values()) - prefill_tokens
                return tokens, decoded, wall

            serve(make_requests(max_new=WARMUP_NEW))  # warmup
            tokens, decoded, wall = serve(make_requests())
            group_active = tp_state.group is not None
            overlap = (
                tp_state.group.overlap_fraction if group_active else 0.0
            )
        fallbacks = reg.counter("dist/fallbacks").value
    return {
        "tokens": tokens,
        "tokens_per_s": decoded / wall,
        "wall_s": wall,
        "group_active": group_active,
        "overlap_fraction": overlap,
        "fallbacks": fallbacks,
    }


def test_ext_tensor_parallel():
    state = make_model().state_dict()

    base = run_serving(state, tp=1, group=False)
    sharded = run_serving(state, tp=2, group=True)

    tokens_identical = base["tokens"] == sharded["tokens"]
    speedup = sharded["tokens_per_s"] / base["tokens_per_s"]

    rows = [
        ["TP=1 (canonical, one process)", round(base["wall_s"], 4),
         round(base["tokens_per_s"], 2), 1.0, "-"],
        ["TP=2 (process group)", round(sharded["wall_s"], 4),
         round(sharded["tokens_per_s"], 2), round(speedup, 3),
         round(sharded["overlap_fraction"], 3)],
    ]
    metrics = {
        "decode_speedup": speedup,
        "tokens_identical": int(tokens_identical),
        "group_active": int(sharded["group_active"]),
        "overlap_fraction": sharded["overlap_fraction"],
        "base_tokens_per_s": base["tokens_per_s"],
        "tp2_tokens_per_s": sharded["tokens_per_s"],
        "tp2_fallbacks": sharded["fallbacks"],
    }
    emit(
        "ext_tensor_parallel",
        "EXT: TP=2 sharded serving vs one process (bitwise tokens, "
        "decode throughput, comm/compute overlap)",
        ["configuration", "wall s", "tokens/s", "speedup",
         "overlap fraction"],
        rows,
        metrics=metrics,
        config={
            "dim": DIM, "layers": LAYERS, "requests": REQUESTS,
            "prompt_len": PROMPT_LEN, "max_new_tokens": MAX_NEW,
        },
    )

    # Bitwise contract holds at any core count — always asserted.
    assert tokens_identical, "TP=2 tokens diverged from TP=1 run"
    assert sharded["group_active"], "TP process group failed to start"
    assert sharded["fallbacks"] == 0, "TP group fell back mid-run"
    # decode_speedup and overlap are enforced in CI (multi-core, BLAS
    # pinned), not here.
