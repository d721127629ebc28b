"""Sharded greedy serving: request-pipelined decoding over stages.

Each in-flight request advances independently through the stage
pipeline with per-stage, per-request KV caches, so one request's
decode step overlaps another's on a different stage.  Decoding is
greedy-only: the emitted tokens are bit-identical to
``TransformerLM.generate(..., greedy=True)`` because every stage runs
the same block ops on the same activations in the same order — only
the hosting process differs (tests/dist/test_equivalence_serving.py).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.transformer import TransformerLM
from ..obs import get_registry
from .runtime import DistConfig, PipelineRunner

SAMPLING_UNSUPPORTED_MSG = (
    "pipeline-sharded serving is greedy-only; for sampled, voting or "
    "speculative decode use the single-process engine (--shards 1), "
    "which serves every decode mode"
)


class PipelineGenerationEngine:
    """Greedy generation over a stage pipeline.

    Reuses an existing :class:`PipelineRunner` (e.g. the one a
    :class:`~repro.dist.trainer.PipelineAdaptiveTrainer` trained with,
    so serving sees the tuned weights without a gather/rebuild) or
    builds a serving-only runner from the model.
    """

    def __init__(
        self,
        model: TransformerLM,
        dist: Optional[DistConfig] = None,
        runner: Optional[PipelineRunner] = None,
    ):
        self.model = model
        self._owns_runner = runner is None
        self.runner = runner or PipelineRunner(model, dist)
        self._iteration = 0

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        greedy: bool = True,
    ) -> List[int]:
        return self.generate_batch([prompt], max_new_tokens, greedy=greedy)[0]

    def generate_batch(
        self,
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        greedy: bool = True,
    ) -> List[List[int]]:
        """Decode all prompts, pipelined across stages: every request is
        prefilled immediately, then each collected logits row greedily
        picks a token and re-enters the pipeline while other requests
        occupy the other stages."""
        if not greedy:
            raise ValueError(SAMPLING_UNSUPPORTED_MSG)
        outs: Dict[str, List[int]] = {str(i): [] for i in range(len(prompts))}
        if not prompts or max_new_tokens <= 0:
            return [outs[str(i)] for i in range(len(prompts))]
        runner = self.runner
        reg = get_registry()
        t0 = time.perf_counter()
        runner.serve_begin()
        reports: List[Dict] = []
        try:
            for i, prompt in enumerate(prompts):
                ids = np.asarray(list(prompt), dtype=np.int64)[None, :]
                runner.serve_submit(str(i), ids)
            pending = len(prompts)
            while pending:
                rid, logits = runner.serve_collect()
                token = int(logits.argmax())
                outs[rid].append(token)
                reg.counter("dist/serve/tokens").inc()
                if len(outs[rid]) < max_new_tokens:
                    runner.serve_submit(
                        rid, np.array([[token]], dtype=np.int64)
                    )
                else:
                    runner.serve_free(rid)
                    pending -= 1
        finally:
            reports = runner.serve_end()
        reg.counter("dist/serve/requests").inc(len(prompts))
        # Serving-only runs get dist/iter rows too, so `repro report`
        # renders the dist section without any tuning telemetry present.
        wall = time.perf_counter() - t0
        recv = sum(r.get("overlap_recv_s", 0.0) for r in reports)
        wait = sum(r.get("overlap_wait_s", 0.0) for r in reports)
        total = sum(len(outs[str(i)]) for i in range(len(prompts)))
        self._iteration += 1
        reg.record_row(
            "dist/iter",
            iteration=self._iteration - 1,
            mode="serve",
            requests=len(prompts),
            tokens=total,
            wall_time_s=wall,
            shards=runner.plan.num_stages,
            transfer_bytes=sum(r.get("recv_bytes", 0) for r in reports),
            overlap_fraction=(
                0.0
                if recv <= 0
                else min(max(1.0 - wait / recv, 0.0), 1.0)
            ),
        )
        return [outs[str(i)] for i in range(len(prompts))]

    def close(self) -> None:
        if self._owns_runner:
            self.runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
