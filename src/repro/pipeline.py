"""End-to-end Edge-LLM orchestration.

``EdgeLLM`` wires the three components into the workflow the paper
describes: profile-and-compress (LUC), adapt on-device with truncated
backprop (adaptive layer tuning), combine exits at inference (voting), and
price every iteration on the edge accelerator (scheduling search).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from .adaptive import (
    AdaptiveLayerTrainer,
    AdaptiveTuningConfig,
    StepStats,
    VotingCombiner,
)
from .adaptive.voting import _STRATEGIES as _VOTING_STRATEGIES
from .dist import (
    DistConfig,
    PipelineAdaptiveTrainer,
    plan_for_model,
    validate_tuning_config,
)
from .eval.memory import MemoryReport, model_weight_bytes
from .hw import (
    AcceleratorSpec,
    EDGE_GPU_LIKE,
    IterationCost,
    schedule_workloads,
    tuning_iteration_workload,
)
from .hw.search import _SEARCHERS
from .luc import (
    LayerCompression,
    LUCPolicy,
    apply_luc,
    enumerate_layer_options,
    measure_sensitivity,
    remove_luc,
    search_policy,
)
from .luc.search import _POLICY_SEARCHERS, _validate_budget
from .luc.sensitivity import check_metric
from .nn.slicing import SliceSpec, rotate_and_slice, slice_spec
from .nn.transformer import TransformerLM
from .parallel import EvalCache
from .parallel.pool import resolve_workers
from .quant import SUPPORTED_BITS
from .tensor import Tensor


def _field(name: str, check, *args) -> None:
    """Run an existing validation rule; name the config field it fails on."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclasses.dataclass
class EdgeLLMConfig:
    """Configuration of the full pipeline."""

    # LUC
    compute_budget: float = 0.3
    bit_options: Sequence[int] = (2, 4, 8)
    prune_options: Sequence[float] = (0.0, 0.3, 0.5)
    # Structural rotate-and-slice ratios the search may assign per layer
    # (repro.nn.slicing); the default keeps slicing off.
    slice_options: Sequence[float] = (1.0,)
    slice_round_to: int = 8
    sensitivity_metric: str = "loss_delta"
    policy_search: str = "greedy"
    # adaptive tuning
    tuning: AdaptiveTuningConfig = dataclasses.field(default_factory=AdaptiveTuningConfig)
    # voting
    voting_strategy: str = "calibrated"
    # hardware
    accelerator: AcceleratorSpec = EDGE_GPU_LIKE
    schedule_strategy: str = "exhaustive"
    # offline-search execution (results are worker-count independent)
    workers: int = 1
    cache_dir: Optional[str] = None
    # pipeline-parallel sharded tuning (repro.dist); results are
    # shard-count independent — shards>1 bitwise reproduces shards=1.
    shards: int = 1
    micro_batches: int = 1
    stage_plan: Optional[str] = None

    def __post_init__(self):
        # Every check here would otherwise fail only inside compress or
        # adapt, or when an iteration is priced.  Each reuses the rule
        # the late check runs.
        for bits in self.bit_options:
            if bits not in SUPPORTED_BITS:
                raise ValueError(
                    f"bit_options: unsupported bit-width {bits}; "
                    f"choose from {SUPPORTED_BITS}"
                )
        for ratio in self.prune_options:
            _field("prune_options", LayerCompression, 16, ratio)
        for ratio in self.slice_options:
            _field("slice_options", LayerCompression, 16, 0.0, ratio)
        options = enumerate_layer_options(
            self.bit_options, self.prune_options, self.slice_options
        )
        # The cheapest option on the menu is the budget's floor, so the
        # error names the menu as well as the budget.
        _field("compute_budget (for the bit_options, prune_options and "
               "slice_options menu)", _validate_budget, self.compute_budget,
               options)
        _field("sensitivity_metric", check_metric, self.sensitivity_metric, options)
        if self.policy_search not in _POLICY_SEARCHERS:
            raise ValueError(
                f"policy_search must be one of {sorted(_POLICY_SEARCHERS)}, "
                f"got {self.policy_search!r}"
            )
        resolve_workers(self.workers)
        if self.voting_strategy not in _VOTING_STRATEGIES:
            raise ValueError(
                f"voting_strategy must be one of {_VOTING_STRATEGIES}, "
                f"got {self.voting_strategy!r}"
            )
        schedules = sorted(_SEARCHERS) + ["heuristic"]
        if self.schedule_strategy not in schedules:
            raise ValueError(
                f"schedule_strategy must be one of {schedules}, "
                f"got {self.schedule_strategy!r}"
            )
        # Built once here so DistConfig's checks reject a bad shard or
        # micro-batch count at construction; adapt() runs this object.
        self.dist = DistConfig(
            shards=self.shards,
            micro_batches=self.micro_batches,
            stage_plan=self.stage_plan,
        )
        # adapt() tunes through the pipeline trainer when either count is
        # above one; that trainer's tuning-config rule runs here too.
        if self.shards > 1 or self.micro_batches > 1:
            validate_tuning_config(self.tuning)


class EdgeLLM:
    """The Edge-LLM tuning framework around one backbone model."""

    def __init__(self, model: TransformerLM, config: Optional[EdgeLLMConfig] = None):
        self.model = model
        self.config = config or EdgeLLMConfig()
        # Settings that depend on the model (exit points, window, schedule
        # name, more stages than blocks, a stage plan for another stage
        # count) fail here, not in adapt() after compress has run.
        cfg = self.config
        cfg.tuning.schedule_for(model.num_layers)
        if cfg.shards > 1 or cfg.stage_plan is not None:
            _field("shards" if cfg.stage_plan is None else "stage_plan",
                   lambda: plan_for_model(model, cfg.shards,
                                          spec=cfg.stage_plan))
        self.policy: Optional[LUCPolicy] = None
        self.slice_spec: Optional[SliceSpec] = slice_spec(model)
        self.trainer: Optional[
            Union[AdaptiveLayerTrainer, PipelineAdaptiveTrainer]
        ] = None
        self.voter: Optional[VotingCombiner] = None
        self._luc_undo = None
        # Memoizes pure search-time evaluations (sensitivity scores,
        # schedule searches, gemm costs) — in-memory always, on disk
        # across runs when ``cache_dir`` is set.
        self.eval_cache = EvalCache(self.config.cache_dir)

    # ------------------------------------------------------------------
    # stage 1: layer-wise unified compression
    # ------------------------------------------------------------------
    def compress(
        self, calib_inputs: np.ndarray, calib_targets: np.ndarray
    ) -> LUCPolicy:
        """Profile sensitivities, search a policy under budget, apply it.

        The installed ``CompressedLinear`` wrappers fold mask + fake-quant
        into a cached effective weight on frozen-weight forwards (eval,
        voting calibration, the frozen prefix during adaptation), so the
        compressed model pays recalibration only when weights change.

        With ``slice_options`` beyond 1.0 the search may also assign
        per-layer structural slice ratios; the winning ratios are baked
        into the model by :func:`repro.nn.slicing.rotate_and_slice`
        *before* the LUC wrappers go on (slicing rewrites plain Linears).
        """
        cfg = self.config
        options = enumerate_layer_options(
            cfg.bit_options, cfg.prune_options, cfg.slice_options
        )
        profile = measure_sensitivity(
            self.model,
            calib_inputs,
            calib_targets,
            options,
            metric=cfg.sensitivity_metric,
            workers=cfg.workers,
            cache=self.eval_cache,
        )
        policy = search_policy(
            profile,
            self.model.num_layers,
            cfg.compute_budget,
            strategy=cfg.policy_search,
            options=options,
            workers=cfg.workers,
            cache=self.eval_cache,
        )
        if policy.has_slicing():
            self.slice_spec = rotate_and_slice(
                self.model,
                calib_inputs,
                policy.slice_ratios(),
                round_to=cfg.slice_round_to,
            )
        self._luc_undo = apply_luc(self.model, policy)
        self.policy = policy
        return policy

    def decompress(self) -> None:
        """Undo the applied LUC wrappers (restores the underlying
        Linears).  Structural slicing is *not* undone — the rotation
        discards the sliced-away subspace, so a sliced model stays
        sliced; ``self.slice_spec`` keeps describing its shapes."""
        if self._luc_undo:
            remove_luc(self._luc_undo)
            self._luc_undo = None
            self.policy = None

    def compression_summary(self) -> List[dict]:
        """Per-block (bits, sparsity) currently applied to the model."""
        from .luc import model_compression_summary

        return model_compression_summary(self.model)

    # ------------------------------------------------------------------
    # stage 2: adaptive layer tuning
    # ------------------------------------------------------------------
    def adapt(
        self, batches: Iterable, max_steps: Optional[int] = None
    ) -> List[StepStats]:
        """Run adaptive layer tuning over (inputs, targets) batches.

        With ``shards > 1`` (or ``micro_batches > 1``) tuning runs
        sharded over pipeline stages (:mod:`repro.dist`) and reproduces
        the single-process trajectory bit-for-bit; call :meth:`close`
        when done to release the stage workers.
        """
        if self.trainer is None:
            cfg = self.config
            if cfg.dist.shards > 1 or cfg.dist.micro_batches > 1:
                self.trainer = PipelineAdaptiveTrainer(
                    self.model, cfg.tuning, cfg.dist
                )
            else:
                self.trainer = AdaptiveLayerTrainer(self.model, self.config.tuning)
        return self.trainer.train(batches, max_steps=max_steps)

    def close(self) -> None:
        """Release sharded-tuning workers, if any (safe to call always)."""
        if isinstance(self.trainer, PipelineAdaptiveTrainer):
            self.trainer.close()

    # ------------------------------------------------------------------
    # stage 3: adaptive layer voting
    # ------------------------------------------------------------------
    def calibrate_voting(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> VotingCombiner:
        if self.trainer is None:
            raise RuntimeError("adapt() must run before voting calibration")
        self.voter = VotingCombiner(
            self.model, self.trainer.exit_heads, strategy=self.config.voting_strategy
        )
        self.voter.calibrate(inputs, targets)
        return self.voter

    def logits(self, ids: np.ndarray) -> Tensor:
        """Final inference: voted if calibrated, else the standard head."""
        if self.voter is not None:
            return self.voter.combined_logits(ids)
        return self.model(ids)

    # ------------------------------------------------------------------
    # hardware accounting
    # ------------------------------------------------------------------
    def _mean_window(self):
        if self.trainer is None:
            raise RuntimeError("adapt() must run before cost accounting")
        schedule = self.trainer.schedule
        return [schedule._window_for_exit(p) for p in schedule.exit_points]

    def iteration_cost(
        self, batch: int, seq: int, include_elementwise: bool = False
    ) -> IterationCost:
        """Modeled cost of an *average* tuning iteration (mean over the
        exit cycle) with this pipeline's compression and scheduling.

        ``include_elementwise`` adds the memory-bound norm/softmax/
        activation streaming cycles (see ``repro.hw.elementwise``) to the
        total — more conservative, closer to end-to-end behaviour.
        """
        from .hw import iteration_elementwise_cycles

        windows = self._mean_window()
        bits = self.policy.bits_per_block() if self.policy else None
        sparsity = self.policy.sparsity_per_block() if self.policy else None
        slice_dims = self.slice_spec.hw_dims() if self.slice_spec else None
        costs = []
        extra_cycles = 0.0
        for w in windows:
            gemms = tuning_iteration_workload(
                self.model.config,
                batch,
                seq,
                forward_blocks=w.stop,
                grad_start=w.start,
                bits_per_block=bits,
                sparsity_per_block=sparsity,
                slice_per_block=slice_dims,
            )
            costs.append(
                schedule_workloads(
                    gemms, self.config.accelerator,
                    strategy=self.config.schedule_strategy,
                    workers=self.config.workers,
                    cache=self.eval_cache,
                )
            )
            if include_elementwise:
                extra_cycles += iteration_elementwise_cycles(
                    self.model.config, self.config.accelerator,
                    batch, seq, w.stop, w.start,
                )
        merged = IterationCost([s for c in costs for s in c.scheduled])
        # Average (not sum) across the windows in the cycle.
        scale = 1.0 / len(costs)
        return _ScaledIterationCost(merged, scale, extra_cycles * scale)

    def vanilla_iteration_cost(
        self,
        batch: int,
        seq: int,
        schedule_strategy: str = "exhaustive",
        include_elementwise: bool = False,
    ) -> IterationCost:
        """Cost of one vanilla tuning iteration (full depth, 16-bit)."""
        from .hw import iteration_elementwise_cycles

        gemms = tuning_iteration_workload(
            self.model.config,
            batch,
            seq,
            forward_blocks=self.model.num_layers,
            grad_start=0,
        )
        cost = schedule_workloads(
            gemms, self.config.accelerator, strategy=schedule_strategy,
            workers=self.config.workers, cache=self.eval_cache,
        )
        if include_elementwise:
            extra = iteration_elementwise_cycles(
                self.model.config, self.config.accelerator,
                batch, seq, self.model.num_layers, 0,
            )
            return _ScaledIterationCost(cost, 1.0, extra)
        return cost

    def speedup_vs_vanilla(
        self, batch: int, seq: int, include_elementwise: bool = False
    ) -> float:
        """Per-iteration training speedup (the paper's headline metric).

        ``include_elementwise=True`` charges both sides the memory-bound
        elementwise floor (the more conservative estimate)."""
        vanilla = self.vanilla_iteration_cost(
            batch, seq, include_elementwise=include_elementwise
        )
        edge = self.iteration_cost(
            batch, seq, include_elementwise=include_elementwise
        )
        return vanilla.cycles / edge.cycles

    def memory_report(self, batch: int, seq: int) -> MemoryReport:
        if self.trainer is None:
            raise RuntimeError("adapt() must run before memory accounting")
        weight_bytes = None
        if self.policy is not None:
            weight_bytes = model_weight_bytes(
                self.model.config,
                bits_per_block=self.policy.bits_per_block(),
                sparsity_per_block=self.policy.sparsity_per_block(),
            )
        return self.trainer.memory_report(batch, seq, weight_bytes=weight_bytes)


class _ScaledIterationCost(IterationCost):
    """IterationCost whose totals are scaled (cycle-cycle averaging),
    plus optional already-scaled extra cycles (elementwise floor)."""

    def __init__(self, inner: IterationCost, scale: float,
                 extra_cycles: float = 0.0):
        super().__init__(inner.scheduled)
        self._scale = scale
        self._extra_cycles = extra_cycles

    @property
    def cycles(self) -> float:
        return super().cycles * self._scale + self._extra_cycles

    @property
    def energy_pj(self) -> float:
        return super().energy_pj * self._scale

    @property
    def dram_bytes(self) -> float:
        return super().dram_bytes * self._scale
