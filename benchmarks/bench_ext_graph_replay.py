"""EXT — VJP graph capture/replay: train-step and serving-decode speedups.

The autograd core captures each steady-state workload once — the
adaptive trainer's window step (forward + backward + gradient program)
and the serving engine's per-bucket decode step — and replays the
recorded op sequence through the arena allocator without re-tracing:
no closure construction, no Tensor wrappers, no tape bookkeeping.  Both
sides decode over the engine's KV store, writing each new position in
place.

Replay is an optimization, never an approximation, and this bench
asserts the whole contract:

* the captured train step is >= 1.25x faster than the identical
  trace-every-step configuration, with a *bit-identical* loss
  trajectory,
* the captured decode step is >= 1.25x faster than the same engine
  with capture off (the same build traced every step), with
  *token-identical* greedy outputs; both sides' absolute step times are
  reported (``decode_step_ms_off``/``decode_step_ms``, and likewise for
  the train step), so a falling ratio can be told from a slower step,
* speculative (draft/verify) decode and structurally sliced
  checkpoints also emit identical tokens with capture on and off —
  slicing swaps parameter objects and installs shortcut buffers, which
  advance the module structure counter every engine graph pins, so the
  graphs re-capture,
* voted decode (calibrated exits with confidence early exit, batch 8
  over a pretrained model) replays one graph per segment between exit
  points; its voted logits, early-exit flags and tokens are identical
  with capture on and off (``vote_tokens_identical``).  Its step times
  on both sides are reported without a bar,
* captured graphs hold only what a replay reads: after decoding over
  several (batch, width) shapes, the engine's graphs hold one step
  slab no larger than its largest graph's step bytes, and none of the
  KV store views they were captured on (``decode_memory_bounded``).
  The store itself is reported on its own (``decode_store_kb``).
"""

import gc
import time
import weakref

import numpy as np

from repro.adaptive import (
    AdaptiveLayerTrainer,
    AdaptiveTuningConfig,
    ExitHeadSet,
    VotingCombiner,
)
from repro.data import lm_batches
from repro.nn import TransformerLM
from repro.nn.slicing import rotate_and_slice
from repro.obs import MetricsRegistry, use_registry
from repro.serve import GenerationEngine
from repro.tensor import graph_capture
from repro.tensor.arena import get_arena

from .common import (
    ADAPT_STEPS,
    EXIT_POINTS,
    VOCAB,
    adapt_corpus,
    bench_config,
    calib_batch,
    clone_model,
    emit,
    pretrain_corpus,
)

# Train workload: single-stream on-device adaptation (batch 1, short
# sequences) — the regime the paper targets and where per-step python
# overhead, not BLAS time, bounds iteration latency.
TRAIN_BATCH = 1
TRAIN_SEQ = 8

# Decode workload: batched continuous decode over medium prefixes.  With
# capture off the engine traces its decode build every step; the
# captured path replays one graph per (batch, width) bucket.
MAX_LEN = 256
DECODE_BATCH = 8
PROMPT_LEN = 64
WARM_STEPS = 6  # bucket captures happen here
TIMED_STEPS = 24

# Voted decode: a confidence threshold at which some, not all, tokens of
# the pretrained model exit early.
VOTE_THRESHOLD = 0.5

DRAFT_K = 4
DRAFT_EXIT = 4
SLICE_RATIO = 0.5
REPEATS = 3  # wall-clock rows take the best of 3 runs (noise rejection)

CFG_TRAIN = bench_config(tie_embeddings=False)
CFG_SERVE = bench_config(max_len=MAX_LEN)


class _Entry:
    """Minimal decode-entry: what the engine requires of scheduler rows."""

    def __init__(self, caches, last_token):
        self.caches = caches
        self.last_token = last_token


# ----------------------------------------------------------------------
# train-step workload


def _trainer(state) -> AdaptiveLayerTrainer:
    model = TransformerLM(CFG_TRAIN)
    model.load_state_dict(state)
    config = AdaptiveTuningConfig(
        window=2,
        exit_points=[model.num_layers],
        schedule="round_robin",
        lr=1e-3,
    )
    return AdaptiveLayerTrainer(model, config)


def _train_run(trainer, batches):
    losses, times = [], []
    for inputs, targets in batches:
        stats = trainer.train_step(inputs, targets)
        losses.append(stats.loss)
        times.append(stats.wall_time_s)
    return losses, times


def _steady_median(times):
    """Median over steady-state steps (captures + warmup excluded)."""
    tail = times[2:] if len(times) > 4 else times
    return float(np.median(tail))


def _paired_train_run(state, batches):
    """One traced and one captured trainer stepped in lockstep, so machine
    load drifts onto both sides equally (the off-then-on layout let a load
    spike land on one side and swing the ratio).  Repeats keep the best
    steady-state median per side; trajectories are deterministic, so every
    repeat must reproduce them bitwise."""
    losses_off = losses_on = None
    best_off = best_on = float("inf")
    for _ in range(REPEATS):
        off = _trainer(state)
        on = _trainer(state)
        gc.collect()
        run_off, run_on, t_off, t_on = [], [], [], []
        for inputs, targets in batches:
            with graph_capture(False):
                stats = off.train_step(inputs, targets)
            run_off.append(stats.loss)
            t_off.append(stats.wall_time_s)
            with graph_capture(True):
                stats = on.train_step(inputs, targets)
            run_on.append(stats.loss)
            t_on.append(stats.wall_time_s)
        assert losses_off is None or run_off == losses_off
        assert losses_on is None or run_on == losses_on
        losses_off, losses_on = run_off, run_on
        best_off = min(best_off, _steady_median(t_off))
        best_on = min(best_on, _steady_median(t_on))
    return losses_off, losses_on, best_off, best_on


# ----------------------------------------------------------------------
# serving-decode workload


def _prefill_entries(engine, batch=DECODE_BATCH, prompt_len=PROMPT_LEN):
    entries = []
    for i in range(batch):
        prompt = np.random.default_rng(100 + i).integers(
            0, VOCAB, prompt_len
        ).tolist()
        caches = engine.model.new_caches()
        logits = engine.prefill(prompt, caches)
        entries.append(_Entry(caches, int(logits.argmax())))
    return entries


def _decode_run(model, capture: bool):
    """Greedy-decode WARM+TIMED steps; returns (tokens, median step s)."""
    gc.collect()
    engine = GenerationEngine(model)
    entries = _prefill_entries(engine)
    tokens = [[] for _ in entries]
    times = []
    for step in range(WARM_STEPS + TIMED_STEPS):
        with graph_capture(capture):
            start = time.perf_counter()
            logits, _ = engine.decode_step(entries)
            elapsed = time.perf_counter() - start
        if step >= WARM_STEPS:
            times.append(elapsed)
        nxt = logits.argmax(axis=-1)
        for b, entry in enumerate(entries):
            entry.last_token = int(nxt[b])
            tokens[b].append(entry.last_token)
    return tokens, float(np.median(times))


def _paired_decode_run(model, **engine_kwargs):
    """Capture-off and capture-on engines stepped in lockstep over the
    same model; best-of-REPEATS per side, output streams asserted stable.
    A side's stream is its tokens per row plus every step's logits and
    early-exit flags, as bytes."""
    stream_off = stream_on = None
    best_off = best_on = float("inf")

    def _advance(engine, entries, stream, capture):
        with graph_capture(capture):
            start = time.perf_counter()
            logits, early = engine.decode_step(entries)
            elapsed = time.perf_counter() - start
        nxt = logits.argmax(axis=-1)
        for b, entry in enumerate(entries):
            entry.last_token = int(nxt[b])
            stream[0][b].append(entry.last_token)
        stream[1].append((logits.tobytes(), early.tobytes()))
        return elapsed

    for _ in range(REPEATS):
        gc.collect()
        eng_off = GenerationEngine(model, **engine_kwargs)
        eng_on = GenerationEngine(model, **engine_kwargs)
        entries_off = _prefill_entries(eng_off)
        entries_on = _prefill_entries(eng_on)
        run_off = ([[] for _ in entries_off], [])
        run_on = ([[] for _ in entries_on], [])
        t_off, t_on = [], []
        for step in range(WARM_STEPS + TIMED_STEPS):
            elapsed_off = _advance(eng_off, entries_off, run_off, False)
            elapsed_on = _advance(eng_on, entries_on, run_on, True)
            if step >= WARM_STEPS:
                t_off.append(elapsed_off)
                t_on.append(elapsed_on)
        assert stream_off is None or run_off == stream_off
        assert stream_on is None or run_on == stream_on
        stream_off, stream_on = run_off, run_on
        best_off = min(best_off, float(np.median(t_off)))
        best_on = min(best_on, float(np.median(t_on)))
    return stream_off, stream_on, best_off, best_on


def _decode_memory(model):
    """Decode with capture on over several (batch, width) shapes, then
    measure what the engine's graphs hold: their step slab plus every KV
    store view handed to a graph that is still alive (a graph holding
    one would pin the store).  Returns (held bytes, largest graph's step
    bytes, per-graph step bytes, store bytes)."""
    engine = GenerationEngine(model)
    entries = _prefill_entries(engine, prompt_len=PROMPT_LEN - 1)
    seen = []
    apply = engine._graph_apply
    store = engine.store

    def spy(key, arrays, build):
        seen.extend(weakref.ref(a) for a in arrays
                    if np.shares_memory(a, store.k) or np.shares_memory(a, store.v))
        return apply(key, arrays, build)

    engine._graph_apply = spy
    for rows in (entries, entries, entries[:4], entries[:4], entries):
        with graph_capture(True):
            engine.decode_step(rows)  # batch 8 crosses width 64 -> 96, then 4
    gc.collect()
    retained = sum(a.nbytes for a in (ref() for ref in seen) if a is not None)
    needs = [g.step_bytes for g in engine._graphs.graphs()]
    return engine._graphs.slab_bytes + retained, max(needs), needs, store.nbytes


def _speculative_tokens(model, heads, capture: bool, n: int = 24):
    engine = GenerationEngine(
        model, draft_heads=heads, draft_exit=DRAFT_EXIT, draft_k=DRAFT_K
    )
    with graph_capture(capture):
        entries = _prefill_entries(engine, batch=4, prompt_len=16)
        tokens = [[e.last_token] for e in entries]
        while min(len(t) for t in tokens) < n:
            emitted = engine.speculative_decode_step(entries, max_new=n)
            for b, entry in enumerate(entries):
                tokens[b].extend(emitted[b])
                entry.last_token = tokens[b][-1]
    return [t[:n] for t in tokens]


def _sliced_tokens(capture: bool, n: int = 16):
    model = TransformerLM(CFG_SERVE)
    calib, _ = next(
        lm_batches(adapt_corpus(), 4, 32, 1, np.random.default_rng(3))
    )
    rotate_and_slice(model, calib, SLICE_RATIO)
    engine = GenerationEngine(model)
    with graph_capture(capture):
        entries = _prefill_entries(engine, batch=4, prompt_len=16)
        tokens = [[] for _ in entries]
        for _ in range(n):
            logits, _ = engine.decode_step(entries)
            nxt = logits.argmax(axis=-1)
            for b, entry in enumerate(entries):
                entry.last_token = int(nxt[b])
                tokens[b].append(entry.last_token)
    return tokens


def _voting(model):
    """Calibrated voting over the shared exit points."""
    voting = VotingCombiner(model, ExitHeadSet(model, exit_points=EXIT_POINTS))
    voting.calibrate(*calib_batch(pretrain_corpus()))
    return voting


def test_ext_graph_replay(benchmark, base_state):
    state = TransformerLM(CFG_TRAIN).state_dict()
    rng = np.random.default_rng(0)
    batches = list(
        lm_batches(adapt_corpus(), TRAIN_BATCH, TRAIN_SEQ, ADAPT_STEPS, rng)
    )

    # -- train-step: capture on vs off, bitwise trajectory ------------
    losses_off, losses_on, t_train_off, t_train_on = _paired_train_run(
        state, batches
    )
    train_speedup = t_train_off / t_train_on
    train_identical = losses_on == losses_off

    # Counter collection runs separately: metric increments on every
    # arena take are measurable at this model size, so the timed runs
    # above stay registry-free on both sides.
    reg = MetricsRegistry()
    with use_registry(reg), graph_capture(True):
        _train_run(_trainer(state), batches[:6])
    train_captures = reg.counter("tensor/graph/captures").value
    train_replays = reg.counter("tensor/graph/replays").value
    # The arena is process-global, so read its cumulative total rather
    # than registry counters (the slabs were reserved in the timed runs).
    arena_bytes = get_arena().bytes_reserved

    # -- serving decode: capture on vs off, token identity ------------
    serve_model = TransformerLM(CFG_SERVE)
    stream_off, stream_on, t_dec_off, t_dec_on = _paired_decode_run(
        serve_model
    )
    decode_speedup = t_dec_off / t_dec_on
    decode_identical = stream_on[0] == stream_off[0]
    reg_dec = MetricsRegistry()
    with use_registry(reg_dec):
        _decode_run(serve_model, True)
    decode_captures = reg_dec.counter("tensor/graph/captures").value
    decode_replays = reg_dec.counter("tensor/graph/replays").value
    held, largest, needs, store_bytes = _decode_memory(serve_model)
    memory_bounded = held <= largest

    # -- speculative decode: identical drafts/acceptances -------------
    heads = ExitHeadSet(serve_model, exit_points=[DRAFT_EXIT], seed=0)
    spec_off = _speculative_tokens(serve_model, heads, False)
    spec_on = _speculative_tokens(serve_model, heads, True)
    spec_identical = spec_on == spec_off

    # -- sliced checkpoint: the structure counter forces re-capture ---
    sliced_off = _sliced_tokens(False)
    sliced_on = _sliced_tokens(True)
    sliced_identical = sliced_on == sliced_off

    # -- voted decode with early exit: one replay per exit segment ----
    vote_model = clone_model(base_state)
    voting = _voting(vote_model)
    vote_off, vote_on, t_vote_off, t_vote_on = _paired_decode_run(
        vote_model, voting=voting, confidence_threshold=VOTE_THRESHOLD
    )
    vote_identical = vote_on == vote_off
    vote_early = sum(
        int(np.frombuffer(early, dtype=bool).sum()) for _, early in vote_on[1]
    )

    rows = [
        ["train step ms, re-trace every step", t_train_off * 1e3, 1.0],
        ["train step ms, captured replay", t_train_on * 1e3, train_speedup],
        ["decode step ms, capture off", t_dec_off * 1e3, 1.0],
        ["decode step ms, captured replay", t_dec_on * 1e3, decode_speedup],
        ["voted decode step ms, capture off", t_vote_off * 1e3, 1.0],
        ["voted decode step ms, captured replay", t_vote_on * 1e3,
         t_vote_off / t_vote_on],
        ["train loss trajectory bit-identical", int(train_identical), 1.0],
        ["decode tokens identical", int(decode_identical), 1.0],
        ["voted logits, exit flags and tokens identical", int(vote_identical), 1.0],
        ["voted tokens that exited early", vote_early, 1.0],
        ["speculative tokens identical", int(spec_identical), 1.0],
        ["sliced-checkpoint tokens identical", int(sliced_identical), 1.0],
        ["decode graphs' step memory KB, per-graph sum", sum(needs) / 1024, 1.0],
        ["decode graphs' step memory KB, held", held / 1024, held / sum(needs)],
        ["decode memory bounded by largest graph", int(memory_bounded), 1.0],
        ["decode KV store KB (allocated, 8 requests)", store_bytes / 1024, 1.0],
    ]
    metrics = {
        "train_speedup": train_speedup,
        "decode_speedup": decode_speedup,
        "train_trajectory_identical": int(train_identical),
        "decode_tokens_identical": int(decode_identical),
        "spec_tokens_identical": int(spec_identical),
        "sliced_tokens_identical": int(sliced_identical),
        "vote_tokens_identical": int(vote_identical),
        "vote_early_exit_tokens": vote_early,
        "vote_step_ms_off": t_vote_off * 1e3,
        "vote_step_ms": t_vote_on * 1e3,
        "train_captures": train_captures,
        "train_replays": train_replays,
        "decode_captures": decode_captures,
        "decode_replays": decode_replays,
        "arena_bytes_reserved": arena_bytes,
        "decode_graphs": len(needs),
        "decode_held_kb": held / 1024,
        "decode_largest_graph_kb": largest / 1024,
        "decode_graphs_step_kb_sum": sum(needs) / 1024,
        "decode_memory_bounded": int(memory_bounded),
        "decode_store_kb": store_bytes / 1024,
        "train_step_ms_off": t_train_off * 1e3,
        "train_step_ms": t_train_on * 1e3,
        "decode_step_ms_off": t_dec_off * 1e3,
        "decode_step_ms": t_dec_on * 1e3,
    }
    emit(
        "ext_graph_replay",
        "EXT: VJP graph capture/replay vs re-tracing\n"
        f"(train: batch {TRAIN_BATCH} seq {TRAIN_SEQ} window step; decode: "
        f"batch {DECODE_BATCH} prefix {PROMPT_LEN}+ continuous greedy, plain "
        f"and voted at threshold {VOTE_THRESHOLD})",
        ["configuration", "value", "ratio vs baseline"],
        rows,
        metrics=metrics,
        config={
            "train_batch": TRAIN_BATCH,
            "train_seq": TRAIN_SEQ,
            "decode_batch": DECODE_BATCH,
            "prompt_len": PROMPT_LEN,
            "timed_steps": TIMED_STEPS,
            "draft_k": DRAFT_K,
            "slice_ratio": SLICE_RATIO,
            "vote_threshold": VOTE_THRESHOLD,
        },
    )

    assert train_identical, (
        "captured train step diverged from the traced loss trajectory"
    )
    assert decode_identical, "captured decode changed greedy tokens"
    assert spec_identical, "captured speculative decode changed tokens"
    assert sliced_identical, "captured decode on a sliced model changed tokens"
    assert vote_identical, (
        "captured voted decode changed logits, exit flags or tokens"
    )
    assert len(needs) >= 3, f"memory run captured only {len(needs)} decode graphs"
    assert memory_bounded, (
        f"decode graphs hold {held} bytes > largest graph's {largest}"
    )
    assert train_captures >= 1 and train_replays > train_captures
    assert decode_captures >= 1 and decode_replays > decode_captures
    assert train_speedup >= 1.25, (
        f"train-step replay speedup {train_speedup:.2f}x < 1.25x"
    )
    assert decode_speedup >= 1.25, (
        f"decode replay speedup {decode_speedup:.2f}x < 1.25x"
    )
