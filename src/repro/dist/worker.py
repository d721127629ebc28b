"""Stage hosts: the per-stage compute units of the pipeline.

A :class:`StageHost` owns a contiguous block range of one
``TransformerLM`` plus every parameter canonically assigned to its
stage (see :func:`canonical_parameters` / :func:`owner_stage`) and a
per-stage flat optimizer over exactly those parameters.  Hosts are
constructed driver-side **before** fork, so the process backend's
children inherit them via copy-on-write — the long-lived-worker design
the per-map forks of ``repro.parallel.WorkerPool`` deliberately avoid.

Determinism contract (docs/parallelism.md): every gradient contribution
for a parameter lands on exactly one owning stage, in micro-batch
order, computed by the same tape ops as the single-process trainer —
so the sharded loss trajectory is bit-for-bit the ``shards=1`` one.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..adaptive.exit_heads import ExitHeadSet
from ..adaptive.schedules import TuningWindow
from ..adaptive.trainer import AdaptiveTuningConfig, _OPTIMIZERS
from ..nn.transformer import TransformerLM
from ..parallel import derive_seed
from ..tensor import Tensor, cross_entropy, no_grad
from .plan import StagePlan

EMBED_NAME = "model.embed.weight"


def canonical_parameters(
    model: TransformerLM, exit_heads: ExitHeadSet
) -> List[Tuple[str, object]]:
    """The model + exit-head parameters in canonical order.

    This is exactly the order ``AdaptiveLayerTrainer`` hands its
    optimizer — the order the global
    grad-norm is summed in, which the driver reproduces when it merges
    per-stage partial sums.
    """
    named = [("model." + n, p) for n, p in model.named_parameters()]
    named += [("heads." + n, p) for n, p in exit_heads.named_parameters()]
    seen, unique = set(), []
    for name, p in named:
        if id(p) not in seen:
            seen.add(id(p))
            unique.append((name, p))
    return unique


def owner_stage(name: str, plan: StagePlan, exit_points: List[int]) -> int:
    """Which stage owns (holds optimizer state for) a canonical param.

    Blocks go to their hosting stage; the embedding to stage 0; the
    final norm/unembedding to the last stage; each exit head to the
    stage hosting its tap block.
    """
    parts = name.split(".")
    if parts[0] == "model":
        if parts[1] == "blocks":
            return plan.stage_of_block(int(parts[2]))
        if parts[1] == "embed":
            return 0
        # model.norm.*, model.lm_head.*
        return plan.num_stages - 1
    if parts[0] == "heads" and parts[1] == "heads":
        point = exit_points[int(parts[2])]
        return plan.stage_of_block(point - 1)
    raise ValueError(f"unrecognized canonical parameter {name!r}")


class StageHost:
    """One pipeline stage: blocks ``[lo, hi)`` plus owned parameters
    and a stage-local optimizer."""

    def __init__(
        self,
        model: TransformerLM,
        exit_heads: ExitHeadSet,
        plan: StagePlan,
        stage_index: int,
        config: AdaptiveTuningConfig,
    ):
        self.model = model
        self.exit_heads = exit_heads
        self.plan = plan
        self.stage_index = stage_index
        self.lo, self.hi = plan.blocks(stage_index)
        self.config = config
        self.seed = derive_seed(config.seed, stage_index)
        # Serial backend flips this on: all hosts then share one model
        # object, so cross-stage gradient routing and weight sync must
        # not run (they would double-count / self-copy).
        self.shared_memory = False

        exit_points = list(exit_heads.exit_points)
        canon = canonical_parameters(model, exit_heads)
        self.owned: List[Tuple[str, object]] = [
            (n, p)
            for n, p in canon
            if owner_stage(n, plan, exit_points) == stage_index
        ]
        self.params_by_name: Dict[str, object] = dict(self.owned)
        # Canonical params this stage *uses* but does not own — the tied
        # embedding consulted by a hosted (tied) exit head or the tied
        # final unembedding.  Gradients flowing into these are shipped
        # to the owner; updated weights flow back after each step.
        self.shared_used: List[Tuple[str, object]] = []
        if stage_index != 0 and self._uses_tied_embedding():
            self.shared_used.append((EMBED_NAME, model.embed.weight))

        opt_cls = _OPTIMIZERS[config.optimizer]
        kwargs = {"lr": config.lr}
        if config.optimizer in ("adamw",):
            kwargs["weight_decay"] = config.weight_decay
        self.optimizer = opt_cls([p for _, p in self.owned], **kwargs)

        # --- per-step scratch -----------------------------------------
        self._window: Optional[TuningWindow] = None
        self._micro: int = 0
        self._micro_inputs: List[np.ndarray] = []
        self._micro_targets: List[np.ndarray] = []
        self._inps: Dict[int, Tensor] = {}
        self._outs: Dict[int, Tensor] = {}
        self._losses: Dict[int, float] = {}
        self._frozen: List = []
        self.busy_s = 0.0

    # ------------------------------------------------------------------
    def _uses_tied_embedding(self) -> bool:
        model, heads = self.model, self.exit_heads
        if self.stage_index == self.plan.num_stages - 1 and model.lm_head is None:
            return True
        for j, point in enumerate(heads.exit_points):
            if self.plan.stage_of_block(point - 1) != self.stage_index:
                continue
            if getattr(heads.heads[j], "_tied_embedding", None) is not None:
                return True
        return False

    def shared_out_names(self) -> List[str]:
        """Owned params other stages consume (driver syncs them out)."""
        if self.stage_index != 0:
            return []
        if EMBED_NAME not in self.params_by_name:
            return []
        return [EMBED_NAME]

    def exit_stage_for(self, window: TuningWindow) -> int:
        return self.plan.stage_of_block(window.exit_point - 1)

    # ------------------------------------------------------------------
    # tuning
    # ------------------------------------------------------------------
    def begin_step(
        self,
        window: TuningWindow,
        micro: int,
        micro_inputs: Optional[List[np.ndarray]] = None,
        micro_targets: Optional[List[np.ndarray]] = None,
    ) -> None:
        t0 = time.perf_counter()
        self._window = window
        self._micro = micro
        self._micro_inputs = micro_inputs or []
        self._micro_targets = micro_targets or []
        self._inps, self._outs, self._losses = {}, {}, {}
        self.busy_s = 0.0
        self.optimizer.zero_grad()
        for _, p in self.shared_used:
            p.grad = None
        self._frozen = []
        for i in range(self.lo, self.hi):
            if window.start <= i < window.stop:
                continue
            for _, p in self.model.blocks[i].named_parameters():
                if p.requires_grad:
                    p.requires_grad = False
                    self._frozen.append(p)
        self.busy_s += time.perf_counter() - t0

    def forward_micro(
        self, m: int, hidden_in: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Run one micro-batch through this stage's slice of the window.

        Returns the boundary activation for the next stage, or ``None``
        on the exit stage (which computes the loss instead).
        """
        t0 = time.perf_counter()
        window = self._window
        model = self.model
        is_exit = self.exit_stage_for(window) == self.stage_index
        stop_local = min(self.hi, window.stop)
        # Frozen prefix [lo, fs) runs gradient-free; [fs, stop_local) is
        # taped.  Mirrors AdaptiveLayerTrainer._logits_for_window, just
        # cut at the stage boundary.
        fs = min(max(window.start, self.lo), stop_local)
        if self.stage_index == 0:
            with no_grad():
                hidden = model.embed_tokens(self._micro_inputs[m])
                hidden = model.run_blocks(hidden, self.lo, fs)
            hidden = Tensor(hidden.data)  # cut the (empty) tape
        else:
            needs_grad = self.lo > window.start
            hidden = Tensor(hidden_in, requires_grad=needs_grad)
            if needs_grad:
                self._inps[m] = hidden
            if fs > self.lo:
                with no_grad():
                    hidden = model.run_blocks(hidden, self.lo, fs)
                hidden = Tensor(hidden.data)
        hidden = model.run_blocks(hidden, fs, stop_local)
        if is_exit:
            if window.exit_point >= model.num_layers:
                logits = model.head(hidden)
            else:
                logits = self.exit_heads.logits_at(
                    window.exit_point, hidden
                )
            loss = cross_entropy(logits, self._micro_targets[m])
            self._outs[m] = loss
            self.busy_s += time.perf_counter() - t0
            return None
        if self.lo > window.start or fs < stop_local:
            self._outs[m] = hidden
        self.busy_s += time.perf_counter() - t0
        return hidden.data

    def backward_micro(
        self, m: int, grad_in: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Backprop micro-batch ``m`` through this stage.  Returns the
        boundary input gradient for the stage below (or ``None`` when
        the boundary sits at/below the window start)."""
        t0 = time.perf_counter()
        window = self._window
        is_exit = self.exit_stage_for(window) == self.stage_index
        if is_exit:
            loss = self._outs.pop(m)
            self._losses[m] = loss.item()
            loss.backward(reclaim=True)
        else:
            out = self._outs.pop(m)
            out.backward(grad_in, reclaim=True)
        grad_out = None
        if self.lo > window.start:
            grad_out = self._inps.pop(m).grad
        self.busy_s += time.perf_counter() - t0
        return grad_out

    def end_step(self) -> Dict:
        """Per-step report: losses (exit stage only), gradients bound
        for parameters owned elsewhere, and timing."""
        tied_grads: Dict[str, np.ndarray] = {}
        if not self.shared_memory:
            for name, p in self.shared_used:
                if p.grad is not None:
                    tied_grads[name] = p.grad
        losses = (
            [self._losses[m] for m in range(len(self._losses))]
            if self._losses
            else None
        )
        return {
            "stage": self.stage_index,
            "losses": losses,
            "tied_grads": tied_grads,
            "busy_s": self.busy_s,
            "frozen_params": sum(p.size for p in self._frozen),
        }

    def accumulate(self, named_grads: Dict[str, np.ndarray]) -> None:
        """Fold gradients routed from other stages into owned params."""
        for name, arr in named_grads.items():
            p = self.params_by_name[name]
            p.grad = arr if p.grad is None else p.grad + arr

    def clip_sumsq(self) -> Dict[str, float]:
        """Per-owned-param squared gradient norms, keyed canonically —
        the partial sums of ``clip_grad_norm``'s global total."""
        return {
            name: float((p.grad**2).sum())
            for name, p in self.owned
            if p.requires_grad and p.grad is not None
        }

    def apply(self, scale: Optional[float]) -> Dict[str, np.ndarray]:
        """Scale owned gradients (if clipping fired), step the stage
        optimizer, unfreeze, and hand back shared weights for sync."""
        if scale is not None:
            for _, p in self.owned:
                if p.requires_grad and p.grad is not None:
                    p.grad = p.grad * scale
        self.optimizer.step()
        for p in self._frozen:
            p.requires_grad = True
        self._frozen = []
        if self.shared_memory:
            return {}
        return {
            name: self.params_by_name[name].data
            for name in self.shared_out_names()
        }

    def sync(self, named_weights: Dict[str, np.ndarray]) -> None:
        """Install owner-updated weights into local shared replicas."""
        if self.shared_memory:
            return
        shared = dict(self.shared_used)
        for name, arr in named_weights.items():
            if name in shared:
                shared[name].data = arr

    def gather(self) -> Dict[str, np.ndarray]:
        return {name: np.array(p.data) for name, p in self.owned}

    def memory(self) -> Dict[str, int]:
        param_bytes = sum(p.data.nbytes for _, p in self.owned)
        return {
            "stage": self.stage_index,
            "param_bytes": int(param_bytes),
            "optimizer_bytes": int(self.optimizer.state_bytes()),
        }


# ----------------------------------------------------------------------
# persistent-worker process loop
# ----------------------------------------------------------------------
def stage_loop(host, cmd_q, result_q, fwd_in, fwd_out, grad_in, grad_out):
    """Entry point of a persistent stage process.

    Commands arrive on ``cmd_q`` in driver-enforced lockstep phases;
    activations/gradients flow stage-to-stage over the ``fwd``/``grad``
    queues without driver involvement.  Queues are unbounded, so sends
    never block and the 1F1B interleave cannot deadlock.

    Each boundary receive queue is wrapped in a
    :class:`~repro.dist.transport.PrefetchReceiver`: micro-batch *m+1*'s
    activations deserialize on a daemon thread while *m* computes, and
    the hidden receive time is reported to the driver for the
    ``dist/overlap_fraction`` gauge.  Order-preserving, so the 1F1B
    schedule and its bitwise contract are unchanged.
    """
    from .transport import PrefetchReceiver, merge_overlap_stats

    fwd_in = PrefetchReceiver(fwd_in) if fwd_in is not None else None
    grad_in = PrefetchReceiver(grad_in) if grad_in is not None else None
    while True:
        cmd = cmd_q.get()
        op = cmd[0]
        if op == "shutdown":
            result_q.put((host.stage_index, "shutdown", None))
            return
        if op == "tune_step":
            _, window, micro, inputs, targets = cmd
            report = _run_tune_step(
                host, window, micro, inputs, targets,
                fwd_in, fwd_out, grad_in, grad_out,
            )
            report.update(merge_overlap_stats(fwd_in, grad_in))
            result_q.put((host.stage_index, "tune_step", report))
        elif op == "clip_prepare":
            _, routed, need_sumsq = cmd
            host.accumulate(routed)
            sumsq = host.clip_sumsq() if need_sumsq else {}
            result_q.put((host.stage_index, "clip_prepare", sumsq))
        elif op == "apply":
            weights_out = host.apply(cmd[1])
            result_q.put((host.stage_index, "apply", weights_out))
        elif op == "sync":
            host.sync(cmd[1])
            result_q.put((host.stage_index, "sync", None))
        elif op == "gather":
            result_q.put((host.stage_index, "gather", host.gather()))
        elif op == "memory":
            result_q.put((host.stage_index, "memory", host.memory()))
        else:  # pragma: no cover - driver never sends unknown ops
            result_q.put((host.stage_index, "error", f"unknown op {op!r}"))


def _timed_get(q, idle, bytes_in):
    t0 = time.perf_counter()
    msg = q.get()
    idle[0] += time.perf_counter() - t0
    arr = msg[-1]
    if isinstance(arr, np.ndarray):
        bytes_in[0] += arr.nbytes
    return msg


def _run_tune_step(
    host, window, micro, inputs, targets, fwd_in, fwd_out, grad_in, grad_out
):
    """One 1F1B pipeline step from this stage's point of view."""
    s = host.stage_index
    host.begin_step(window, micro, inputs, targets)
    exit_stage = host.exit_stage_for(window)
    idle, bytes_in = [0.0], [0]
    if s > exit_stage:
        report = host.end_step()
    else:
        is_exit = s == exit_stage
        does_backward = is_exit or host.hi > window.start
        sends_grad = host.lo > window.start

        def fwd(m):
            hidden = None
            if s > 0:
                tag, mm, hidden = _timed_get(fwd_in, idle, bytes_in)
                assert tag == "f" and mm == m, (tag, mm, m)
            out = host.forward_micro(m, hidden)
            if not is_exit:
                fwd_out.put(("f", m, out))

        def bwd(m):
            grad = None
            if not is_exit:
                tag, mm, grad = _timed_get(grad_in, idle, bytes_in)
                assert tag == "g" and mm == m, (tag, mm, m)
            g = host.backward_micro(m, grad)
            if sends_grad:
                grad_out.put(("g", m, g))

        if not does_backward:
            for m in range(micro):
                fwd(m)
        else:
            warmup = min(exit_stage - s, micro)
            for m in range(warmup):
                fwd(m)
            for m in range(micro):
                if m + warmup < micro:
                    fwd(m + warmup)
                bwd(m)
        report = host.end_step()
    report["idle_s"] = idle[0]
    report["recv_bytes"] = bytes_in[0]
    return report

