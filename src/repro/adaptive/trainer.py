"""The adaptive layer tuning loop (Edge-LLM core component #2).

Each iteration:

1. a :class:`LayerSchedule` picks an exit depth and a gradient window,
2. blocks below the window run forward-only (no tape, no saved
   activations), the hidden state is detached,
3. blocks inside the window and the exit head run with gradients, with
   every out-of-window block frozen for the step,
4. the loss at the exit head is backpropagated — through ``window`` blocks
   instead of the full stack — freeing each tape buffer as soon as its
   last gradient contribution lands,
5. the optimizer steps every parameter that received a gradient.

Forward compute stops at the exit (blocks above it are skipped entirely),
backward compute and activation memory scale with the window, which is the
mechanism behind the paper's speedup and memory claims.

That is the only train-step path; ``checkpoint_blocks`` is the one
execution switch on the config.  Graph capture and the fused kernels
follow the process-wide toggles (:func:`repro.tensor.graph_capture`,
:func:`repro.tensor.fused_kernels`), and a replayed step is bitwise the
traced one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.memory import MemoryReport, block_param_count, training_memory_report
from ..nn.optim import Adafactor, Adam, AdamW, Optimizer, SGD, clip_grad_norm
from ..nn.transformer import TransformerLM
from ..obs import get_registry, span
from ..tensor import (
    GraphCache,
    GraphRecorder,
    Tensor,
    cross_entropy,
    fused_kernels_enabled,
    graph_capture_enabled,
    no_grad,
    profile_tape,
)
from .exit_heads import ExitHeadSet
from .schedules import LayerSchedule, TuningWindow, make_schedule

_OPTIMIZERS = {"adamw": AdamW, "adam": Adam, "sgd": SGD, "adafactor": Adafactor}


def default_exit_points(num_layers: int, n_exits: int = 3) -> List[int]:
    """Evenly spaced exits ending at the final layer."""
    if n_exits < 1:
        raise ValueError("need at least one exit")
    n_exits = min(n_exits, num_layers)
    points = np.linspace(num_layers / n_exits, num_layers, n_exits)
    return sorted(set(int(round(p)) for p in points))


@dataclasses.dataclass
class AdaptiveTuningConfig:
    """Hyper-parameters of the adaptive tuning loop."""

    window: int = 2
    exit_points: Optional[Sequence[int]] = None  # default: 3 even exits
    schedule: str = "round_robin"
    optimizer: str = "adamw"
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    tie_exit_heads: bool = True
    checkpoint_blocks: bool = False  # gradient-checkpoint the window blocks
    seed: int = 0

    def __post_init__(self):
        # Each bad value below would otherwise run to the end while
        # climbing the loss (a negative clip scales every gradient by a
        # negative factor).  ``not x >= 0`` also rejects NaN.
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not self.grad_clip >= 0:
            raise ValueError(
                f"grad_clip must be >= 0 (0 disables clipping), got {self.grad_clip}"
            )
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclasses.dataclass
class StepStats:
    """What one tuning iteration did (and what it cost)."""

    iteration: int
    loss: float
    window: TuningWindow
    forward_blocks: int
    grad_blocks: int
    trainable_params: int
    wall_time_s: float = 0.0
    activation_bytes: int = 0  # tape-measured, not modeled
    # Effective-weight fold cache traffic during this iteration (see
    # repro.nn.transforms): the frozen prefix below the window should be
    # all hits after the first iteration; misses flag cache churn.
    fold_hits: int = 0
    fold_misses: int = 0
    # High-water mark of live tape + gradient bytes during the step —
    # what eager reclamation lowers (see repro.tensor.profiler).
    peak_tape_bytes: int = 0
    # Tape buffers freed early by backward(reclaim=True).
    reclaimed_bytes: int = 0
    # Block parameters frozen for this step (out-of-window blocks).
    frozen_params: int = 0


class AdaptiveLayerTrainer:
    """Runs adaptive layer tuning on a (possibly compressed) model."""

    def __init__(
        self,
        model: TransformerLM,
        config: Optional[AdaptiveTuningConfig] = None,
        exit_heads: Optional[ExitHeadSet] = None,
    ):
        self.model = model
        self.config = config or AdaptiveTuningConfig()
        points = list(
            self.config.exit_points
            if self.config.exit_points is not None
            else default_exit_points(model.num_layers)
        )
        if exit_heads is None:
            exit_heads = ExitHeadSet(
                model,
                [p for p in points if p < model.num_layers] or [model.num_layers],
                tie_embeddings=self.config.tie_exit_heads,
                seed=self.config.seed,
            )
        self.exit_heads = exit_heads
        self.schedule: LayerSchedule = make_schedule(
            self.config.schedule,
            points,
            self.config.window,
            num_layers=model.num_layers,
        )
        self._rng = np.random.default_rng(self.config.seed)
        params = list(model.parameters()) + list(exit_heads.parameters())
        # Dedupe tied parameters (exit heads may share the embedding).
        seen, unique = set(), []
        for p in params:
            if id(p) not in seen:
                seen.add(id(p))
                unique.append(p)
        opt_cls = _OPTIMIZERS.get(self.config.optimizer)
        if opt_cls is None:
            raise ValueError(f"unknown optimizer {self.config.optimizer!r}")
        kwargs = {"lr": self.config.lr}
        if self.config.optimizer in ("adamw",):
            kwargs["weight_decay"] = self.config.weight_decay
        self.optimizer: Optimizer = opt_cls(unique, **kwargs)
        self._block_params: List[List] = [
            [p for _, p in block.named_parameters()] for block in model.blocks
        ]
        self.iteration = 0
        self.history: List[StepStats] = []
        # Captured (window, batch-shape) step graphs, replayed without
        # re-tracing.  Keyed per tuning-window configuration; optimizer-
        # managed parameters are "mutable" leaves (read live at replay),
        # so routine weight updates never invalidate a graph, while
        # structural rewrites (GPTQ, slicing, LoRA merges) on anything
        # else do.
        self._graph_cache = GraphCache()
        # Tape footprint measured when each graph was captured; replayed
        # steps run no tape, so their StepStats report the capture-time
        # measurement (the structure is identical by construction).
        self._capture_tape: Dict[tuple, Tuple[int, int]] = {}
        self._graph_step: Optional[Tuple[str, tuple]] = None

    # ------------------------------------------------------------------
    def _logits_for_window(self, inputs: np.ndarray, window: TuningWindow) -> Tensor:
        model = self.model
        with no_grad():
            hidden = model.embed_tokens(inputs)
            hidden = model.run_blocks(hidden, 0, window.start)
        hidden = Tensor(hidden.data)  # cut the (empty) tape explicitly
        hidden = model.run_blocks(
            hidden,
            window.start,
            window.stop,
            checkpoint_blocks=self.config.checkpoint_blocks,
        )
        if window.exit_point >= model.num_layers:
            return model.head(hidden)
        return self.exit_heads.logits_at(window.exit_point, hidden)

    def _freeze_out_of_window(self, window: TuningWindow) -> List:
        """Flip ``requires_grad`` off for out-of-window block parameters;
        returns the list to restore.  Embedding and heads stay trainable
        (tied heads train the embedding through the unembedding)."""
        frozen = []
        for i, block_params in enumerate(self._block_params):
            if window.start <= i < window.stop:
                continue
            for p in block_params:
                if p.requires_grad:
                    p.requires_grad = False
                    frozen.append(p)
        return frozen

    def _step_core(
        self, inputs: np.ndarray, targets: np.ndarray, window: TuningWindow
    ) -> float:
        """Forward + backward + optimizer update for one window; returns
        the step loss.  When graph capture is on, the forward/backward is
        replayed from a captured VJP graph after the first step for this
        (window, batch-shape) configuration — bitwise identical to the
        traced path."""
        config = self.config
        self._graph_step = None
        if graph_capture_enabled() and not config.checkpoint_blocks:
            loss_value = self._captured_step(inputs, targets, window)
            if loss_value is not None:
                if config.grad_clip:
                    clip_grad_norm(self.optimizer.params, config.grad_clip)
                self.optimizer.step()
                return loss_value
        logits = self._logits_for_window(inputs, window)
        loss = cross_entropy(logits, targets)
        self.optimizer.zero_grad()
        loss.backward(reclaim=True)
        if config.grad_clip:
            clip_grad_norm(self.optimizer.params, config.grad_clip)
        self.optimizer.step()
        return loss.item()

    def _captured_step(
        self, inputs: np.ndarray, targets: np.ndarray, window: TuningWindow
    ) -> Optional[float]:
        """Run forward+backward via graph capture/replay.  Returns the
        loss, or None when this configuration is known uncacheable (the
        caller then runs the plain traced path)."""
        ids = np.asarray(inputs)
        if ids.dtype != np.int64:
            ids = ids.astype(np.int64)
        tgt = np.asarray(targets)
        if tgt.dtype != np.int64:
            tgt = tgt.astype(np.int64)
        key = (
            "adapt_step",
            window.start,
            window.stop,
            window.exit_point,
            ids.shape,
            tgt.shape,
            fused_kernels_enabled(),
        )
        cache = self._graph_cache
        if cache.known_uncacheable(key):
            return None
        graph = cache.lookup(key)
        if graph is None:
            # First run for this configuration: trace the step live while
            # the recorder observes it, then freeze the structure.  The
            # recorded step *is* this step — no duplicated work.
            recorder = GraphRecorder(mutable=self.optimizer.params)
            with recorder:
                recorder.add_input(Tensor(ids))
                recorder.add_input(Tensor(tgt))
                logits = self._logits_for_window(ids, window)
                loss = cross_entropy(logits, tgt)
                self.optimizer.zero_grad()
                loss.backward(reclaim=True)
            graph = recorder.finalize(outputs=[loss], loss=loss)
            cache.store(key, graph)
            self._graph_step = ("captured", key)
            return loss.item()
        self.optimizer.zero_grad()
        outs = graph.replay([ids, tgt], run_backward=True)
        self._graph_step = ("replayed", key)
        return float(outs[0])

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> StepStats:
        """One adaptive tuning iteration on a single batch."""
        start = time.perf_counter()
        reg = get_registry()
        fold_hits_before = reg.counter("nn/fold/hits").value
        fold_misses_before = reg.counter("nn/fold/misses").value
        with span("adapt/iter"), profile_tape() as tape:
            window = self.schedule.select(self.iteration, self._rng)
            frozen = self._freeze_out_of_window(window)
            try:
                loss_value = self._step_core(inputs, targets, window)
            finally:
                for p in frozen:
                    p.requires_grad = True
        wall_time = time.perf_counter() - start

        if hasattr(self.schedule, "update"):
            self.schedule.update(window.exit_point, loss_value)

        activation_bytes, peak_tape_bytes = tape.recorded_bytes, tape.peak_bytes
        if self._graph_step is not None:
            mode, key = self._graph_step
            if mode == "captured":
                self._capture_tape[key] = (activation_bytes, peak_tape_bytes)
            else:
                captured = self._capture_tape.get(key)
                if captured is not None:
                    activation_bytes, peak_tape_bytes = captured

        stats = StepStats(
            iteration=self.iteration,
            loss=loss_value,
            window=window,
            forward_blocks=window.stop,
            grad_blocks=window.depth,
            trainable_params=self.window_trainable_params(window),
            wall_time_s=wall_time,
            activation_bytes=activation_bytes,
            fold_hits=reg.counter("nn/fold/hits").value - fold_hits_before,
            fold_misses=reg.counter("nn/fold/misses").value - fold_misses_before,
            peak_tape_bytes=peak_tape_bytes,
            reclaimed_bytes=tape.freed_bytes,
            frozen_params=sum(p.size for p in frozen),
        )
        self._record_telemetry(stats)
        self.iteration += 1
        self.history.append(stats)
        return stats

    def _record_telemetry(self, stats: StepStats) -> None:
        """Publish one iteration's stats to the active metrics registry."""
        reg = get_registry()
        reg.counter("adapt/iterations").inc()
        reg.gauge("adapt/last_loss").set(stats.loss)
        reg.counter("train/steps").inc()
        reg.counter("train/reclaimed_bytes").inc(stats.reclaimed_bytes)
        reg.gauge("train/peak_tape_bytes").set(stats.peak_tape_bytes)
        reg.gauge("train/frozen_params").set(stats.frozen_params)
        reg.record_row(
            "adapt/iter",
            iteration=stats.iteration,
            loss=stats.loss,
            wall_time_s=stats.wall_time_s,
            exit_point=stats.window.exit_point,
            grad_blocks=stats.grad_blocks,
            forward_blocks=stats.forward_blocks,
            activation_bytes=stats.activation_bytes,
            trainable_params=stats.trainable_params,
            fold_hits=stats.fold_hits,
            fold_misses=stats.fold_misses,
            peak_tape_bytes=stats.peak_tape_bytes,
            reclaimed_bytes=stats.reclaimed_bytes,
        )

    def train(
        self,
        batches: Iterable,
        max_steps: Optional[int] = None,
        eval_fn=None,
        eval_every: int = 0,
        patience: Optional[int] = None,
    ) -> List[StepStats]:
        """Run over an iterable of (inputs, targets) batches.

        ``eval_fn`` (zero-argument, returns a float where lower is better)
        is called every ``eval_every`` steps; with ``patience`` set,
        training stops early after that many consecutive non-improving
        evaluations (simple early stopping for on-device budgets).
        """
        if eval_every and eval_fn is None:
            raise ValueError("eval_every requires eval_fn")
        stats = []
        best = float("inf")
        stale = 0
        for step, (inputs, targets) in enumerate(batches):
            if max_steps is not None and step >= max_steps:
                break
            stats.append(self.train_step(inputs, targets))
            if eval_every and (step + 1) % eval_every == 0:
                score = float(eval_fn())
                if score < best - 1e-9:
                    best = score
                    stale = 0
                else:
                    stale += 1
                    if patience is not None and stale >= patience:
                        break
        return stats

    # ------------------------------------------------------------------
    def window_trainable_params(self, window: TuningWindow) -> int:
        per_block = block_param_count(self.model.config)
        head_params = 0
        if window.exit_point < self.model.num_layers:
            head = self.exit_heads.head_for(window.exit_point)
            head_params = sum(
                p.size for _, p in head.named_parameters()
            )
        else:
            head_params = self.model.config.dim  # final RMSNorm
        return per_block * window.depth + head_params

    def max_window(self) -> TuningWindow:
        """The largest window the schedule can emit (worst-case memory)."""
        windows = [
            self.schedule._window_for_exit(p) for p in self.schedule.exit_points
        ]
        return max(windows, key=lambda w: w.depth)

    def memory_report(
        self, batch: int, seq: int, weight_bytes: Optional[int] = None
    ) -> MemoryReport:
        """Worst-case per-iteration memory under this trainer's schedule."""
        window = self.max_window()
        return training_memory_report(
            self.model.config,
            batch,
            seq,
            grad_blocks=window.depth,
            trainable_params=self.window_trainable_params(window),
            optimizer_floats_per_param=self.optimizer.state_floats_per_param,
            weight_bytes=weight_bytes,
            checkpointed=self.config.checkpoint_blocks,
        )

    def average_cost_blocks(self) -> Dict[str, float]:
        """Mean forward/backward block counts over the exit cycle —
        the workload numbers the hardware model consumes."""
        windows = [
            self.schedule._window_for_exit(p) for p in self.schedule.exit_points
        ]
        return {
            "forward_blocks": float(np.mean([w.stop for w in windows])),
            "grad_blocks": float(np.mean([w.depth for w in windows])),
        }


def vanilla_trainer(
    model: TransformerLM,
    lr: float = 1e-3,
    optimizer: str = "adamw",
    grad_clip: float = 1.0,
    seed: int = 0,
    checkpoint_blocks: bool = False,
) -> AdaptiveLayerTrainer:
    """Full-depth tuning baseline expressed as a degenerate schedule."""
    config = AdaptiveTuningConfig(
        window=model.num_layers,
        exit_points=[model.num_layers],
        schedule="full",
        optimizer=optimizer,
        lr=lr,
        grad_clip=grad_clip,
        seed=seed,
        checkpoint_blocks=checkpoint_blocks,
    )
    return AdaptiveLayerTrainer(model, config)


def checkpointed_trainer(
    model: TransformerLM, lr: float = 1e-3, **kwargs
) -> AdaptiveLayerTrainer:
    """Full-depth tuning with per-block gradient checkpointing — the
    classic memory/compute trade the adaptive window is compared against."""
    return vanilla_trainer(model, lr=lr, checkpoint_blocks=True, **kwargs)
