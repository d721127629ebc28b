"""R-EXT — train-step fast path: grad-free frozen blocks, eager tape
reclamation, fused kernels, and the flat-buffer optimizer step.

The adaptive trainer's speedup claim rests on the window-sized backward
pass.  This bench measures the *implementation* half of that story: the
trainer's one train step (no_grad prefix + out-of-window freezing +
``backward(reclaim=True)`` + vectorized optimizer) against the seed-era
full-tape step on the same 8-block model with a 2-block window, driven
by an identical batch stream.  The full-tape step is no longer a path of
the trainer; :class:`FullTapeTrainer` below keeps it as the baseline.

Three guarantees are asserted, not just reported:

* the fast path is >= 1.8x faster per iteration (median wall time),
* the loss trajectory is *bit-identical* to the full-tape baseline
  (the fast path is an optimization, not an approximation),
* eager reclamation lowers the peak of live tape + gradient bytes.

Micro rows compare the fused RMSNorm kernel against the composed op
chain and the flat Adam step against the per-parameter loop.
"""

import time

import numpy as np

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.nn import Adam, AdamW, TransformerLM
from repro.nn.layers import RMSNorm
from repro.tensor import Tensor, cross_entropy, profile_tape

from .common import (
    ADAPT_STEPS,
    BATCH,
    DIM,
    SEQ,
    WINDOW,
    adapt_batches,
    bench_config,
    emit,
)

# Untied embeddings so the baseline's window scope (blocks a window can
# train + final norm + unembedding) excludes the input embedding — the
# regime where full-tape and fast-path updates are provably identical.
CFG = bench_config(tie_embeddings=False)


class FullTapeTrainer(AdaptiveLayerTrainer):
    """The seed-era train step, kept as this bench's baseline.

    The embedding and the frozen prefix are taped, so backward walks the
    whole depth; no block is frozen; a per-parameter AdamW loop updates
    only the parameters some scheduled window can train.  Like the fast
    side, it captures its step once and replays it afterwards.
    """

    def __init__(self, model: TransformerLM, config: AdaptiveTuningConfig):
        super().__init__(model, config)
        self.optimizer = AdamW(
            self._window_scope(), lr=config.lr,
            weight_decay=config.weight_decay,
        )
        self.optimizer.flat = False

    def _window_scope(self):
        """The blocks some scheduled window covers plus the final norm and
        unembedding (this bench schedules only the final exit), in the
        fast side's optimizer order: the order grad clipping sums in."""
        model = self.model
        scope = list(model.norm.parameters()) + list(model.lm_head.parameters())
        for point in self.schedule.exit_points:
            window = self.schedule._window_for_exit(point)
            for i in range(window.start, window.stop):
                scope.extend(model.blocks[i].parameters())
        ids = {id(p) for p in scope}
        return [p for p in self.optimizer.params if id(p) in ids]

    def _logits_for_window(self, inputs, window):
        model = self.model
        hidden = model.run_blocks(model.embed_tokens(inputs), 0, window.stop)
        if window.exit_point >= model.num_layers:
            return model.head(hidden)
        return self.exit_heads.logits_at(window.exit_point, hidden)

    def _freeze_out_of_window(self, window):
        return []


def _make_model(state) -> TransformerLM:
    model = TransformerLM(CFG)
    model.load_state_dict(state)
    return model


def _make_trainer(state, cls=AdaptiveLayerTrainer) -> AdaptiveLayerTrainer:
    model = _make_model(state)
    config = AdaptiveTuningConfig(
        window=WINDOW,
        exit_points=[model.num_layers],
        schedule="round_robin",
        lr=1e-3,
    )
    return cls(model, config)


def _peak_no_reclaim(trainer: AdaptiveLayerTrainer, inputs, targets) -> int:
    """Peak live tape + gradient bytes of one traced step of the
    trainer's first window, with backward keeping every buffer."""
    window = trainer.schedule.select(0, None)
    with profile_tape() as tape:
        logits = trainer._logits_for_window(inputs, window)
        cross_entropy(logits, targets).backward()
    return tape.peak_bytes


def _run(trainer: AdaptiveLayerTrainer, batches):
    losses, times, peaks, reclaimed = [], [], [], []
    for inputs, targets in batches:
        stats = trainer.train_step(inputs, targets)
        losses.append(stats.loss)
        times.append(stats.wall_time_s)
        peaks.append(stats.peak_tape_bytes)
        reclaimed.append(stats.reclaimed_bytes)
    return losses, times, peaks, reclaimed


def _median_after_warmup(times):
    return float(np.median(times[1:] if len(times) > 1 else times))


def _time_loop(fn, iters: int = 30) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def _composed_rms_norm(norm: RMSNorm, x: Tensor) -> Tensor:
    """The op chain ``rms_norm`` fuses, bit for bit."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + norm.eps) ** -0.5) * norm.weight


def _rmsnorm_step_time(fused: bool) -> float:
    rng = np.random.default_rng(0)
    norm = RMSNorm(DIM)
    forward = norm if fused else (lambda x: _composed_rms_norm(norm, x))
    x_data = rng.standard_normal((BATCH, SEQ, DIM)).astype(np.float32)

    def step():
        x = Tensor(x_data, requires_grad=True)
        forward(x).sum().backward()
        norm.weight.grad = None

    return _time_loop(step)


def _adam_step_time(flat: bool) -> float:
    # Many small parameters (bias/norm-like): the regime where the
    # per-parameter python loop pays ~10 numpy dispatches per parameter
    # and the flat slab pays them once per step.
    rng = np.random.default_rng(0)
    params = [
        Tensor(rng.standard_normal(DIM).astype(np.float32),
               requires_grad=True)
        for _ in range(200)
    ]
    grads = [rng.standard_normal(DIM).astype(np.float32) for _ in range(200)]
    opt = Adam(params, lr=1e-3)
    opt.flat = flat

    def step():
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()

    return _time_loop(step)


def test_ext_trainstep_fast_path(benchmark):
    state = TransformerLM(CFG).state_dict()
    batches = list(adapt_batches(ADAPT_STEPS))

    fast = _make_trainer(state)
    full = _make_trainer(state, FullTapeTrainer)

    losses_full, times_full, _, _ = _run(full, batches)
    losses_fast, times_fast, peaks_fast, reclaimed = _run(fast, batches)

    t_full = _median_after_warmup(times_full)
    t_fast = _median_after_warmup(times_fast)
    speedup = t_full / t_fast
    trajectory_identical = losses_fast == losses_full

    inputs, targets = batches[0]
    peak_full = float(
        _peak_no_reclaim(_make_trainer(state, FullTapeTrainer), inputs, targets)
    )
    peak_noreclaim = float(_peak_no_reclaim(_make_trainer(state), inputs, targets))
    peak_fast = float(np.median(peaks_fast))
    # Replayed steps run no tape, so they reclaim nothing; the first step,
    # the capture, is the fast side's traced step.
    reclaimed_traced = float(reclaimed[0])

    rmsnorm_composed = _rmsnorm_step_time(fused=False)
    rmsnorm_fused = _rmsnorm_step_time(fused=True)
    adam_loop = _adam_step_time(flat=False)
    adam_flat = _adam_step_time(flat=True)

    mb = 1.0 / (1024 * 1024)
    rows = [
        ["full-tape step (baseline)", t_full * 1e3, 1.0],
        ["fast-path step (no_grad prefix + reclaim + flat)",
         t_fast * 1e3, speedup],
        ["peak tape+grad MiB, full tape", peak_full * mb, 1.0],
        ["peak tape+grad MiB, fast path no reclaim", peak_noreclaim * mb,
         peak_full / peak_noreclaim],
        ["peak tape+grad MiB, fast path + reclaim", peak_fast * mb,
         peak_full / peak_fast],
        ["rms_norm fwd+bwd ms, composed ops", rmsnorm_composed * 1e3, 1.0],
        ["rms_norm fwd+bwd ms, fused kernel", rmsnorm_fused * 1e3,
         rmsnorm_composed / rmsnorm_fused],
        ["adam step ms (200 params), per-param loop", adam_loop * 1e3, 1.0],
        ["adam step ms (200 params), flat slab", adam_flat * 1e3,
         adam_loop / adam_flat],
    ]

    emit(
        "ext_trainstep",
        "R-EXT: train-step fast path vs full-tape baseline\n"
        "(8-block model, 2-block window; loss trajectories bit-identical)",
        ["configuration", "value", "ratio vs baseline"],
        rows,
        metrics={
            "speedup_vs_full_tape": speedup,
            "trajectory_identical": int(trajectory_identical),
            "peak_tape_bytes_full": peak_full,
            "peak_tape_bytes_no_reclaim": peak_noreclaim,
            "peak_tape_bytes_fast": peak_fast,
            "peak_reduction_vs_full": peak_full / peak_fast,
            "reclaim_reduction": peak_noreclaim / peak_fast,
            "reclaimed_bytes_per_step": reclaimed_traced,
            "fused_rmsnorm_speedup": rmsnorm_composed / rmsnorm_fused,
            "flat_adam_speedup": adam_loop / adam_flat,
            "final_loss": losses_fast[-1],
        },
        config={"tie_embeddings": False},
    )

    assert trajectory_identical, (
        "fast-path losses diverged from the full-tape baseline"
    )
    assert speedup >= 1.8, f"fast-path speedup {speedup:.2f}x < 1.8x"
    assert peak_fast < peak_noreclaim, (
        "eager reclamation did not lower the live-bytes peak"
    )
    assert reclaimed_traced > 0

    def one_step():
        inputs, targets = batches[fast.iteration % len(batches)]
        fast.train_step(inputs, targets)

    benchmark(one_step)
