"""Stage planning: partition transformer blocks into contiguous pipeline
stages balanced by modeled per-block cost.

A :class:`StagePlan` assigns blocks ``[boundaries[s], boundaries[s+1])``
to stage ``s``.  The partitioner minimizes the *maximum* stage cost (the
pipeline's steady-state bottleneck) with an exact O(S * L^2) dynamic
program over the per-block forward MAC costs from the :mod:`repro.hw`
model — so structurally sliced blocks (narrower junctions, fewer MACs)
pack more densely into a stage than full-width ones.

Plans are pure data: the same plan drives both the serial in-process
reference path and the persistent-worker process backend, which is part
of the bit-for-bit determinism contract (see docs/parallelism.md).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..hw import block_costs
from ..nn.slicing import slice_spec
from ..nn.transformer import TransformerLM
from ..parallel import derive_seed


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """A contiguous partition of ``num_layers`` blocks into stages.

    ``boundaries`` has ``num_stages + 1`` entries, starting at 0 and
    ending at ``num_layers``; stage ``s`` hosts blocks
    ``[boundaries[s], boundaries[s+1])``.  ``costs`` carries the modeled
    per-block costs the plan was balanced over (informational).
    """

    boundaries: Tuple[int, ...]
    costs: Tuple[int, ...] = ()

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 2 or b[0] != 0:
            raise ValueError(f"boundaries must start at 0: {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly increasing: {b}")
        if self.costs and len(self.costs) != b[-1]:
            raise ValueError(
                f"{len(self.costs)} costs for {b[-1]} blocks"
            )

    @property
    def num_stages(self) -> int:
        return len(self.boundaries) - 1

    @property
    def num_layers(self) -> int:
        return self.boundaries[-1]

    def blocks(self, stage: int) -> Tuple[int, int]:
        """Half-open block range ``[lo, hi)`` hosted by ``stage``."""
        if not 0 <= stage < self.num_stages:
            raise ValueError(f"stage {stage} out of range")
        return self.boundaries[stage], self.boundaries[stage + 1]

    def stage_of_block(self, block: int) -> int:
        if not 0 <= block < self.num_layers:
            raise ValueError(f"block {block} out of range")
        for s in range(self.num_stages):
            if block < self.boundaries[s + 1]:
                return s
        raise AssertionError("unreachable")

    def stage_cost(self, stage: int) -> int:
        lo, hi = self.blocks(stage)
        if not self.costs:
            return hi - lo
        return sum(self.costs[lo:hi])

    def stage_seed(self, base_seed: int, stage: int) -> int:
        """Deterministic per-stage seed stream (mirrors the
        ``repro.parallel`` contract: ``derive_seed(base, stage)``)."""
        return derive_seed(base_seed, stage)

    def to_spec(self) -> str:
        """Interior boundaries as a comma string (``parse`` round-trip)."""
        return ",".join(str(b) for b in self.boundaries[1:-1])

    def describe(self) -> str:
        parts = []
        for s in range(self.num_stages):
            lo, hi = self.blocks(s)
            parts.append(
                f"stage{s}: blocks[{lo}:{hi}] cost={self.stage_cost(s)}"
            )
        return "; ".join(parts)

    @staticmethod
    def parse(spec: str, num_layers: int,
              costs: Sequence[int] = ()) -> "StagePlan":
        """Parse a manual ``--stage-plan`` spec: comma-separated interior
        boundaries, e.g. ``"3,6"`` splits 8 blocks into [0:3],[3:6],[6:8].
        An empty spec is a single stage."""
        spec = spec.strip()
        try:
            interior = (
                [int(tok) for tok in spec.split(",")] if spec else []
            )
        except ValueError:
            raise ValueError(f"bad stage plan spec {spec!r}") from None
        bounds = tuple([0] + interior + [num_layers])
        return StagePlan(bounds, tuple(costs))


def plan_stages(costs: Sequence[int], num_stages: int) -> StagePlan:
    """Exact min-max contiguous partition of ``costs`` into
    ``num_stages`` stages (O(S * L^2) DP)."""
    L = len(costs)
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if num_stages > L:
        raise ValueError(f"{num_stages} stages for {L} blocks")
    prefix = [0]
    for c in costs:
        prefix.append(prefix[-1] + int(c))

    def span(i: int, j: int) -> int:
        return prefix[j] - prefix[i]

    INF = float("inf")
    # best[s][j]: minimal max-stage-cost splitting blocks [0, j) into s
    # stages; cut[s][j]: the start of the last stage in that optimum.
    best = [[INF] * (L + 1) for _ in range(num_stages + 1)]
    cut = [[0] * (L + 1) for _ in range(num_stages + 1)]
    best[0][0] = 0
    for s in range(1, num_stages + 1):
        for j in range(s, L + 1):
            for i in range(s - 1, j):
                cand = max(best[s - 1][i], span(i, j))
                if cand < best[s][j]:
                    best[s][j] = cand
                    cut[s][j] = i
    bounds = [L]
    j = L
    for s in range(num_stages, 0, -1):
        j = cut[s][j]
        bounds.append(j)
    bounds.reverse()
    return StagePlan(tuple(bounds), tuple(int(c) for c in costs))


def model_block_costs(
    model: TransformerLM, batch: int = 8, seq: int = 32
) -> List[int]:
    """Per-block forward costs of ``model``, slice-aware: a structurally
    sliced model's narrow blocks report genuinely lower costs."""
    spec = slice_spec(model)
    slice_dims: Optional[Dict[int, Tuple[int, int, int]]] = (
        spec.hw_dims() if spec is not None else None
    )
    return block_costs(
        model.config, batch, seq, slice_per_block=slice_dims
    )


def plan_for_model(
    model: TransformerLM,
    num_stages: int,
    spec: Optional[str] = None,
) -> StagePlan:
    """Build a plan for ``model``: a manual ``spec`` (interior
    boundaries) wins; otherwise the DP balances modeled block costs."""
    costs = model_block_costs(model)
    if spec is not None:
        plan = StagePlan.parse(spec, model.num_layers, costs)
        if plan.num_stages != num_stages:
            raise ValueError(
                f"stage plan {spec!r} has {plan.num_stages} stages, "
                f"expected {num_stages}"
            )
        return plan
    return plan_stages(costs, num_stages)
