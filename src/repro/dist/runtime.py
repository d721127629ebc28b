"""The pipeline driver: lockstep step protocol over stage backends.

:class:`PipelineRunner` owns a :class:`~repro.dist.plan.StagePlan`, one
:class:`~repro.dist.worker.StageHost` per stage, and a backend:

* **serial** (``shards=1``, ``DistConfig.serial=True``, or process
  fallback): hosts run in-process against the *shared* model object in
  GPipe order — the bit-for-bit reference path;
* **process**: persistent forked workers run the 1F1B interleave,
  moving activations/gradients over stage-boundary queues.

Both backends execute identical per-stage tape work in identical
micro-batch order, which is why they are bitwise interchangeable (the
equivalence suite in ``tests/dist/`` locks this).

Each tuning step is four lockstep phases:

A. ``tune_step`` — 1F1B forward/backward over all micro-batches;
B. ``clip_prepare`` — route tied-parameter gradients to their owning
   stage, collect per-stage squared-gradient partial sums;
C. ``apply`` — broadcast the global clip scale, step each stage's
   optimizer, collect updated shared weights;
D. ``sync`` — install updated shared weights into consumer replicas.
"""

from __future__ import annotations

import dataclasses
import queue as _queue
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..adaptive.exit_heads import ExitHeadSet
from ..adaptive.schedules import TuningWindow
from ..adaptive.trainer import AdaptiveTuningConfig
from ..nn.transformer import TransformerLM
from ..obs import get_registry
from .plan import StagePlan, plan_for_model
from .transport import build_links, drain_queue
from .worker import StageHost, canonical_parameters, stage_loop

_PHASE_TIMEOUT_S = 600.0


@dataclasses.dataclass
class DistConfig:
    """How to shard: stage count, micro-batching, and backend choice."""

    shards: int = 1
    micro_batches: int = 1
    # Manual stage plan: comma-separated interior block boundaries
    # (e.g. "3,6"); None balances modeled block costs automatically.
    stage_plan: Optional[str] = None
    start_method: str = "fork"
    # Force the in-process serial backend even for shards > 1 (useful
    # for tests and for machines without working process pools).
    serial: bool = False

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.micro_batches < 1:
            raise ValueError("micro_batches must be >= 1")


def validate_tuning_config(config: AdaptiveTuningConfig) -> None:
    """Reject tuning configurations the sharded path cannot reproduce
    bit-for-bit (see docs/parallelism.md for the contract)."""
    if config.checkpoint_blocks:
        raise ValueError("dist tuning does not support checkpoint_blocks")


class PipelineRunner:
    """Drives sharded tuning steps over a stage backend."""

    def __init__(
        self,
        model: TransformerLM,
        dist: DistConfig,
        tuning: AdaptiveTuningConfig,
        exit_heads: Optional[ExitHeadSet] = None,
    ):
        self.model = model
        self.dist = dist
        self.tuning = tuning
        validate_tuning_config(tuning)
        if model.config.dropout != 0.0:
            raise ValueError(
                "dist tuning requires dropout=0.0 (stage-local RNG "
                "streams cannot reproduce the single-process draws)"
            )
        if self.dist.shards > model.num_layers:
            raise ValueError(
                f"{self.dist.shards} shards for {model.num_layers} blocks"
            )
        if exit_heads is None:
            exit_heads = ExitHeadSet(
                model,
                [model.num_layers],
                tie_embeddings=model.config.tie_embeddings,
                seed=tuning.seed,
            )
        self.exit_heads = exit_heads
        self.plan: StagePlan = plan_for_model(
            model, self.dist.shards, spec=self.dist.stage_plan
        )
        self.hosts = [
            StageHost(model, exit_heads, self.plan, s, tuning)
            for s in range(self.plan.num_stages)
        ]
        self.canonical_names = [
            n for n, _ in canonical_parameters(model, exit_heads)
        ]
        self._driver_params = dict(canonical_parameters(model, exit_heads))
        exit_points = list(exit_heads.exit_points)
        from .worker import owner_stage

        self._owner = {
            n: owner_stage(n, self.plan, exit_points)
            for n in self.canonical_names
        }
        # stage totals for dist/stage telemetry rows
        self._stage_busy = [0.0] * self.plan.num_stages
        self._stage_idle = [0.0] * self.plan.num_stages
        self._stage_bytes = [0] * self.plan.num_stages
        self.steps = 0
        self._procs: List = []
        self._closed = False
        self.backend = "serial"
        if self.plan.num_stages > 1 and not self.dist.serial:
            try:
                self._start_processes()
                self.backend = "process"
            except (ValueError, OSError, ImportError):
                get_registry().counter("dist/fallbacks").inc()
                self._procs = []
        if self.backend == "serial":
            for host in self.hosts:
                host.shared_memory = True

    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context(self.dist.start_method)
        self._cmd_qs, self._result_q, links = build_links(
            ctx, self.plan.num_stages
        )
        procs = []
        try:
            for host, link in zip(self.hosts, links):
                p = ctx.Process(
                    target=stage_loop,
                    args=(
                        host, link.cmd_q, link.result_q,
                        link.fwd_in, link.fwd_out,
                        link.grad_in, link.grad_out,
                    ),
                    daemon=True,
                )
                p.start()
                procs.append(p)
        except Exception:
            for p in procs:
                p.terminate()
            raise
        self._procs = procs

    def _collect(self, phase: str, stages: Sequence[int]) -> Dict[int, object]:
        out: Dict[int, object] = {}
        pending = set(stages)
        while pending:
            try:
                stage, tag, payload = self._result_q.get(
                    timeout=_PHASE_TIMEOUT_S
                )
            except _queue.Empty:
                raise RuntimeError(
                    f"pipeline stage timed out in phase {phase!r} "
                    f"(waiting on stages {sorted(pending)})"
                ) from None
            if tag != phase:
                raise RuntimeError(
                    f"pipeline protocol error: expected {phase!r} from "
                    f"stage {stage}, got {tag!r}"
                )
            out[stage] = payload
            pending.discard(stage)
        return out

    # ------------------------------------------------------------------
    # tuning step (phases A-D)
    # ------------------------------------------------------------------
    def run_step(
        self,
        window: TuningWindow,
        micro_inputs: List[np.ndarray],
        micro_targets: List[np.ndarray],
    ) -> Tuple[float, Dict]:
        micro = len(micro_inputs)
        exit_stage = self.plan.stage_of_block(window.exit_point - 1)
        t0 = time.perf_counter()
        if self.backend == "process":
            reports = self._step_process(
                window, micro, micro_inputs, micro_targets, exit_stage
            )
        else:
            reports = self._step_serial(
                window, micro, micro_inputs, micro_targets, exit_stage
            )
        wall = time.perf_counter() - t0
        losses = reports[exit_stage]["losses"]
        loss_value = sum(losses) / micro
        self._apply_phases(reports)
        return loss_value, self._finish_step(reports, wall)

    def _step_process(
        self, window, micro, micro_inputs, micro_targets, exit_stage
    ):
        for s in range(self.plan.num_stages):
            self._cmd_qs[s].put(
                (
                    "tune_step",
                    window,
                    micro,
                    micro_inputs if s == 0 else None,
                    micro_targets if s == exit_stage else None,
                )
            )
        return self._collect("tune_step", range(self.plan.num_stages))

    def _step_serial(
        self, window, micro, micro_inputs, micro_targets, exit_stage
    ):
        hosts = self.hosts
        for s, host in enumerate(hosts):
            host.begin_step(
                window,
                micro,
                micro_inputs if s == 0 else None,
                micro_targets if s == exit_stage else None,
            )
        # GPipe order: all forwards, then all backwards.  Bitwise equal
        # to the process backend's 1F1B interleave — forwards are pure
        # and each stage sees micro-batches in ascending order in both.
        for m in range(micro):
            hidden = None
            for s in range(exit_stage + 1):
                hidden = hosts[s].forward_micro(m, hidden)
        for m in range(micro):
            grad = None
            s = exit_stage
            while True:
                grad = hosts[s].backward_micro(m, grad)
                if s == 0 or hosts[s].lo <= window.start:
                    break
                s -= 1
        reports = {}
        for s, host in enumerate(hosts):
            rep = host.end_step()
            rep["idle_s"] = 0.0
            rep["recv_bytes"] = 0
            reports[s] = rep
        return reports

    def _apply_phases(self, reports: Dict[int, Dict]) -> None:
        """Phases B-D: gradient routing, global clip, step, weight sync."""
        S = self.plan.num_stages
        grad_clip = self.tuning.grad_clip
        routed: Dict[int, Dict[str, np.ndarray]] = {s: {} for s in range(S)}
        for rep in reports.values():
            for name, arr in rep.get("tied_grads", {}).items():
                routed[self._owner[name]][name] = arr
        need_sumsq = bool(grad_clip)
        if self.backend == "process":
            for s in range(S):
                self._cmd_qs[s].put(("clip_prepare", routed[s], need_sumsq))
            sumsqs = self._collect("clip_prepare", range(S))
        else:
            sumsqs = {}
            for s, host in enumerate(self.hosts):
                host.accumulate(routed[s])
                sumsqs[s] = host.clip_sumsq() if need_sumsq else {}
        scale = None
        if need_sumsq:
            merged: Dict[str, float] = {}
            for part in sumsqs.values():
                merged.update(part)
            # Same reduction clip_grad_norm performs: Python-ordered sum
            # over the canonical parameter order, then sqrt.
            total = float(
                np.sqrt(
                    sum(
                        merged[n]
                        for n in self.canonical_names
                        if n in merged
                    )
                )
            )
            if total > grad_clip and total > 0:
                scale = grad_clip / total
        if self.backend == "process":
            for s in range(S):
                self._cmd_qs[s].put(("apply", scale))
            weights = self._collect("apply", range(S))
            updates: Dict[str, np.ndarray] = {}
            for out in weights.values():
                updates.update(out)
            if updates:
                consumers = [
                    s
                    for s in range(S)
                    if any(
                        n in updates
                        for n, _ in self.hosts[s].shared_used
                    )
                ]
                for s in consumers:
                    self._cmd_qs[s].put(("sync", updates))
                self._collect("sync", consumers)
        else:
            for host in self.hosts:
                host.apply(scale)

    def _finish_step(self, reports: Dict[int, Dict], wall: float) -> Dict:
        S = self.plan.num_stages
        busy = idle = recv = wait = 0.0
        transfer = frozen = 0
        for s, rep in reports.items():
            self._stage_busy[s] += rep["busy_s"]
            self._stage_idle[s] += rep["idle_s"]
            self._stage_bytes[s] += rep["recv_bytes"]
            busy += rep["busy_s"]
            idle += rep["idle_s"]
            transfer += rep["recv_bytes"]
            frozen += rep.get("frozen_params", 0)
            recv += rep.get("overlap_recv_s", 0.0)
            wait += rep.get("overlap_wait_s", 0.0)
        bubble = 0.0
        if wall > 0:
            bubble = min(max(1.0 - busy / (S * wall), 0.0), 1.0)
        self.steps += 1
        reg = get_registry()
        reg.counter("dist/steps").inc()
        reg.counter("dist/transfer_bytes").inc(transfer)
        reg.gauge("dist/bubble_fraction").set(bubble)
        # Fraction of boundary receive time hidden behind compute.
        overlap = 0.0
        if recv > 0:
            overlap = min(max(1.0 - wait / recv, 0.0), 1.0)
            reg.gauge("dist/overlap_fraction").set(overlap)
        return {
            "wall_s": wall,
            "busy_s": busy,
            "idle_s": idle,
            "transfer_bytes": transfer,
            "bubble_fraction": bubble,
            "overlap_fraction": overlap,
            "frozen_params": frozen,
        }

    # ------------------------------------------------------------------
    # model state
    # ------------------------------------------------------------------
    def sync_model(self) -> None:
        """Pull stage-owned weights back into the driver's model (no-op
        on the serial backend, which mutates the driver model in place)."""
        if self.backend != "process":
            return
        S = self.plan.num_stages
        for s in range(S):
            self._cmd_qs[s].put(("gather",))
        gathered = self._collect("gather", range(S))
        for payload in gathered.values():
            for name, arr in payload.items():
                self._driver_params[name].data = arr

    def memory_report(self) -> List[Dict[str, int]]:
        """Per-stage owned parameter + optimizer state bytes."""
        if self.backend == "process":
            S = self.plan.num_stages
            for s in range(S):
                self._cmd_qs[s].put(("memory",))
            reports = self._collect("memory", range(S))
            return [reports[s] for s in range(S)]
        return [host.memory() for host in self.hosts]

    # ------------------------------------------------------------------
    def publish_stage_rows(self) -> None:
        reg = get_registry()
        for s in range(self.plan.num_stages):
            lo, hi = self.plan.blocks(s)
            reg.record_row(
                "dist/stage",
                stage=s,
                blocks=hi - lo,
                busy_s=self._stage_busy[s],
                idle_s=self._stage_idle[s],
                transfer_bytes=self._stage_bytes[s],
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.publish_stage_rows()
        if self.backend != "process":
            return
        for q in self._cmd_qs:
            q.put(("shutdown",))
        deadline = time.time() + 10.0
        for p in self._procs:
            p.join(timeout=max(deadline - time.time(), 0.1))
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        drain_queue(self._result_q)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
