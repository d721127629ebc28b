"""Sharded adaptive tuning: ``AdaptiveLayerTrainer`` semantics over a
stage pipeline.

:class:`PipelineAdaptiveTrainer` mirrors the single-process trainer's
construction exactly (same exit heads, same schedule, same RNG stream,
same per-stage optimizer hyper-parameters) and drives each step through
:class:`~repro.dist.runtime.PipelineRunner`.  Each step's batch splits
into ``micro_batches`` micro-batches along the batch axis; the step
loss is the micro-loss mean.

Determinism contract: ``shards=S, micro_batches=M`` reproduces
``shards=1, micro_batches=M`` bit-for-bit for every ``S``, and
``shards=1, micro_batches=1`` is bitwise the plain
``AdaptiveLayerTrainer`` (tests/dist/test_equivalence_tuning.py).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..adaptive.exit_heads import ExitHeadSet
from ..adaptive.schedules import LayerSchedule, TuningWindow
from ..adaptive.trainer import AdaptiveTuningConfig, StepStats
from ..eval.memory import MemoryReport, block_param_count, training_memory_report
from ..nn.transformer import TransformerLM
from ..obs import get_registry
from .runtime import DistConfig, PipelineRunner


class PipelineAdaptiveTrainer:
    """Adaptive layer tuning sharded across pipeline stages."""

    def __init__(
        self,
        model: TransformerLM,
        config: Optional[AdaptiveTuningConfig] = None,
        dist: Optional[DistConfig] = None,
    ):
        self.model = model
        self.config = config or AdaptiveTuningConfig()
        self.dist = dist or DistConfig()
        points = self.config.exits_for(model.num_layers)
        self.exit_heads = ExitHeadSet(
            model,
            [p for p in points if p < model.num_layers] or [model.num_layers],
            tie_embeddings=self.config.tie_exit_heads,
            seed=self.config.seed,
        )
        self.schedule: LayerSchedule = self.config.schedule_for(model.num_layers)
        self._rng = np.random.default_rng(self.config.seed)
        self.runner = PipelineRunner(
            model, self.dist, self.config, self.exit_heads
        )
        self.iteration = 0
        self.history: List[StepStats] = []

    # ------------------------------------------------------------------
    def _split_micro(self, batch: np.ndarray) -> List[np.ndarray]:
        batch = np.asarray(batch)
        micro = self.dist.micro_batches
        if micro > batch.shape[0]:
            raise ValueError(
                f"micro_batches={micro} exceeds batch size {batch.shape[0]}"
            )
        return np.array_split(batch, micro, axis=0)

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> StepStats:
        window = self.schedule.select(self.iteration, self._rng)
        micro_inputs = self._split_micro(inputs)
        micro_targets = self._split_micro(targets)
        loss_value, report = self.runner.run_step(
            window, micro_inputs, micro_targets
        )
        if hasattr(self.schedule, "update"):
            self.schedule.update(window.exit_point, loss_value)
        stats = StepStats(
            iteration=self.iteration,
            loss=loss_value,
            window=window,
            forward_blocks=window.stop,
            grad_blocks=window.depth,
            trainable_params=self.window_trainable_params(window),
            wall_time_s=report["wall_s"],
            frozen_params=report["frozen_params"],
        )
        self._record_telemetry(stats, report)
        self.iteration += 1
        self.history.append(stats)
        return stats

    def _record_telemetry(self, stats: StepStats, report: Dict) -> None:
        reg = get_registry()
        reg.counter("adapt/iterations").inc()
        reg.gauge("adapt/last_loss").set(stats.loss)
        reg.counter("train/steps").inc()
        reg.gauge("train/frozen_params").set(stats.frozen_params)
        reg.record_row(
            "dist/iter",
            iteration=stats.iteration,
            mode="tune",
            loss=stats.loss,
            wall_time_s=stats.wall_time_s,
            exit_point=stats.window.exit_point,
            grad_blocks=stats.grad_blocks,
            forward_blocks=stats.forward_blocks,
            shards=self.runner.plan.num_stages,
            micro_batches=self.dist.micro_batches,
            transfer_bytes=report["transfer_bytes"],
            bubble_fraction=report["bubble_fraction"],
            overlap_fraction=report.get("overlap_fraction", 0.0),
        )

    def train(
        self,
        batches: Iterable,
        max_steps: Optional[int] = None,
        eval_fn=None,
        eval_every: int = 0,
        patience: Optional[int] = None,
    ) -> List[StepStats]:
        """Same contract as ``AdaptiveLayerTrainer.train``; the driver
        model is synced from the stages before every eval and once at
        the end, so ``eval_fn`` always sees current weights."""
        if eval_every and eval_fn is None:
            raise ValueError("eval_every requires eval_fn")
        stats = []
        best = float("inf")
        stale = 0
        try:
            for step, (inputs, targets) in enumerate(batches):
                if max_steps is not None and step >= max_steps:
                    break
                stats.append(self.train_step(inputs, targets))
                if eval_every and (step + 1) % eval_every == 0:
                    self.runner.sync_model()
                    score = float(eval_fn())
                    if score < best - 1e-9:
                        best = score
                        stale = 0
                    else:
                        stale += 1
                        if patience is not None and stale >= patience:
                            break
        finally:
            self.runner.sync_model()
        return stats

    # ------------------------------------------------------------------
    def window_trainable_params(self, window: TuningWindow) -> int:
        per_block = block_param_count(self.model.config)
        if window.exit_point < self.model.num_layers:
            head = self.exit_heads.head_for(window.exit_point)
            head_params = sum(p.size for _, p in head.named_parameters())
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
        """Worst-case per-iteration memory under this trainer's schedule
        (whole-model analytic view, same as the plain trainer's)."""
        window = self.max_window()
        optimizer = self.runner.hosts[0].optimizer
        return training_memory_report(
            self.model.config,
            batch,
            seq,
            grad_blocks=window.depth,
            trainable_params=self.window_trainable_params(window),
            optimizer_floats_per_param=optimizer.state_floats_per_param,
            weight_bytes=weight_bytes,
            checkpointed=self.config.checkpoint_blocks,
        )

    def stage_memory_report(self) -> List[Dict[str, int]]:
        """Per-stage parameter + optimizer state bytes (the ~1/S claim)."""
        return self.runner.memory_report()

    def sync_model(self) -> None:
        self.runner.sync_model()

    def close(self) -> None:
        self.runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
