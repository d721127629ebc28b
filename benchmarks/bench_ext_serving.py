"""EXT — serving throughput: batched continuous decode vs sequential.

The serving runtime (``repro.serve``) decodes every resident request in
one stacked model forward per step instead of one forward per request.
Per step the fixed python/layer overhead (norms, projections, rope,
mask construction) is paid once for the whole batch, so at batch 8 the
runtime must clear >= 2x the sequential tokens/s — while producing
*identical* greedy tokens per request (the determinism contract: batching
changes throughput, never results).

Two voting rows are reported for context, without a bar, on the
pretrained base model (an untrained one is never confident enough for a
token to exit): decoding through the calibrated exit mixture with no
threshold, and with a confidence threshold that ends confident tokens'
forwards at shallow exits (early-exit rate via the
``serve/early_exit_tokens`` counter).  ``early_exit_vs_voting`` is the
early-exit row's tokens/s over the voting row's: above 1 once early
exit saves more than it costs.

Every row takes the best of ``REPEATS`` runs, alternating within its
pair (sequential/batched, voting/early-exit): each ``serve_batch``
builds a fresh engine and captures its graphs inside the timed region,
so one cold sample per side would let host noise decide the ratio.
"""

import time

import numpy as np

from repro.adaptive import ExitHeadSet, VotingCombiner
from repro.nn import TransformerLM
from repro.obs import MetricsRegistry, use_registry
from repro.serve import Request, serve_batch

from .common import (
    EXIT_POINTS,
    VOCAB,
    bench_config,
    calib_batch,
    clone_model,
    emit,
    pretrain_corpus,
)

NUM_REQUESTS = 8
PROMPT_LEN = 16
MAX_NEW = 32
CONFIDENCE = 0.5
REPEATS = 3


def _requests():
    rng = np.random.default_rng(7)
    return [
        Request(
            f"req-{i}",
            prompt=rng.integers(0, VOCAB, PROMPT_LEN).tolist(),
            max_new_tokens=MAX_NEW,
        )
        for i in range(NUM_REQUESTS)
    ]


def _serve(model, reqs, max_batch_size, **kw):
    reg = MetricsRegistry()
    with use_registry(reg):
        start = time.perf_counter()
        results = serve_batch(
            model, reqs, max_batch_size=max_batch_size, **kw
        )
        elapsed = time.perf_counter() - start
    return results, elapsed, reg


def test_ext_serving(benchmark, base_state):
    model = TransformerLM(bench_config())
    reqs = _requests()
    total_new = NUM_REQUESTS * MAX_NEW

    seq_s = batch_s = float("inf")
    for _ in range(REPEATS):
        sequential, elapsed, _ = _serve(model, reqs, max_batch_size=1)
        seq_s = min(seq_s, elapsed)
        batched, elapsed, reg = _serve(
            model, reqs, max_batch_size=NUM_REQUESTS
        )
        batch_s = min(batch_s, elapsed)

    # Determinism contract: batching must not change a single token.
    for s, b in zip(sequential, batched):
        assert s.tokens == b.tokens
        assert s.finish_reason == b.finish_reason == "length"

    speedup = seq_s / batch_s
    seq_tok_s = total_new / seq_s
    batch_tok_s = total_new / batch_s

    # Context rows: voting decode without and with confidence-based
    # early exit.
    vote_model = clone_model(base_state)
    heads = ExitHeadSet(vote_model, exit_points=EXIT_POINTS)
    voting = VotingCombiner(vote_model, heads)
    voting.calibrate(*calib_batch(pretrain_corpus()))
    voting_s = vote_s = float("inf")
    for _ in range(REPEATS):
        _, elapsed, _ = _serve(
            vote_model, reqs, max_batch_size=NUM_REQUESTS, voting=voting
        )
        voting_s = min(voting_s, elapsed)
        _, elapsed, vote_reg = _serve(
            vote_model, reqs, max_batch_size=NUM_REQUESTS,
            voting=voting, confidence_threshold=CONFIDENCE,
        )
        vote_s = min(vote_s, elapsed)
    early_tokens = vote_reg.counter("serve/early_exit_tokens").value
    early_rate = early_tokens / total_new

    rows = [
        ["sequential", 1, NUM_REQUESTS, total_new,
         round(seq_s * 1e3, 1), round(seq_tok_s, 1), 1.0],
        ["batched", NUM_REQUESTS, NUM_REQUESTS, total_new,
         round(batch_s * 1e3, 1), round(batch_tok_s, 1),
         round(speedup, 2)],
        ["batched+voting", NUM_REQUESTS, NUM_REQUESTS, total_new,
         round(voting_s * 1e3, 1), round(total_new / voting_s, 1),
         round(seq_s / voting_s, 2)],
        ["batched+voting+early-exit", NUM_REQUESTS, NUM_REQUESTS, total_new,
         round(vote_s * 1e3, 1), round(total_new / vote_s, 1),
         round(seq_s / vote_s, 2)],
    ]
    metrics = {
        "sequential_tok_s": seq_tok_s,
        "batched_tok_s": batch_tok_s,
        "speedup": speedup,
        "decode_steps": reg.counter("serve/decode_steps").value,
        "early_exit_rate": early_rate,
        "voting_tok_s": total_new / voting_s,
        "early_exit_vs_voting": voting_s / vote_s,
    }
    emit(
        "ext_serving",
        f"EXT: serving throughput, batch {NUM_REQUESTS} continuous decode "
        f"vs sequential ({NUM_REQUESTS} greedy requests, "
        f"{PROMPT_LEN}+{MAX_NEW} tokens)",
        ["mode", "batch", "requests", "new_tokens", "time_ms",
         "tokens_per_s", "speedup"],
        rows,
        metrics=metrics,
        config={
            "requests": NUM_REQUESTS,
            "prompt_len": PROMPT_LEN,
            "max_new_tokens": MAX_NEW,
            "confidence_threshold": CONFIDENCE,
            "repeats": REPEATS,
        },
    )

    # Batched decode runs one stacked forward per step, not one per
    # request: 8 requests of 32 tokens need only 32 decode steps.
    assert metrics["decode_steps"] < total_new

    # Acceptance bar: >= 2x sequential tokens/s at batch 8 with
    # identical greedy outputs (asserted above).
    assert speedup >= 2.0

    benchmark.pedantic(
        lambda: _serve(
            model,
            [Request("smoke", prompt=[1, 2, 3], max_new_tokens=4)],
            max_batch_size=1,
        ),
        rounds=3,
        iterations=1,
    )
