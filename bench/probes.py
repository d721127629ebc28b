"""Per-block probes run at the end of a traced run, on the workload's model.

* ``nn.block_fwd_ms.b<i>``: one block's forward at batch 8 x 32 tokens
  under ``no_grad`` (the shape of one adaptation batch).
* ``nn.block_decode_ms.b<i>``: one block's one-token forward at batch 8
  over a 128-token KV cache (the shape of a full decode batch).
* ``hw.ms_per_mcycle.b<i>``: the measured forward time divided by the
  cycles ``repro.hw`` models for that block's GEMMs with the block's
  applied bits and sparsity.  ``hw.fidelity_spread`` is the max/min of the
  eight ratios: 1.0 would mean the cost model ranks blocks exactly as this
  host runs them.

Times are in reference-host milliseconds (:mod:`bench.hostspeed`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.hw import EDGE_GPU_LIKE, FP_BITS, block_forward_gemms, schedule_workloads
from repro.tensor import no_grad

from .hostspeed import HostSpeed
from .stats import median

REPEATS = 21
BATCH, SEQ, DECODE_CONTEXT = 8, 32, 128


def _timed_ms(fn, speed: HostSpeed, repeats: int = REPEATS, after=None) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(speed.tick(time.perf_counter() - start))
        if after is not None:
            after()
    return median(samples) * 1e3


def block_forward_ms(model, ids: np.ndarray, speed: HostSpeed) -> List[float]:
    with no_grad():
        hidden = model.embed_tokens(ids)
        inputs = []
        for block in model.blocks:
            inputs.append(hidden)
            hidden = block(hidden)
        return [_timed_ms(lambda b=b, x=x: b(x), speed)
                for b, x in zip(model.blocks, inputs)]


def block_decode_ms(model, context: np.ndarray, token: np.ndarray,
                    speed: HostSpeed) -> List[float]:
    """``context`` is ``(8, 128)`` ids, ``token`` ``(8, 1)`` ids."""
    with no_grad():
        caches = model.new_caches()
        model(context, caches=caches)
        length = caches[0].length
        hidden = model.embed_tokens(token)
        inputs = []
        for block, cache in zip(model.blocks, caches):
            inputs.append(hidden)
            hidden = block(hidden, cache=cache)
            cache.truncate(length)
        return [
            _timed_ms(lambda b=b, x=x, c=c: b(x, cache=c), speed,
                      after=lambda c=c: c.truncate(length))
            for b, x, c in zip(model.blocks, inputs, caches)
        ]


def modeled_mcycles(config, policy=None) -> List[float]:
    """Modeled forward Mcycles per block at batch 8 x 32 tokens."""
    bits = policy.bits_per_block() if policy is not None else {}
    sparsity = policy.sparsity_per_block() if policy is not None else {}
    return [
        schedule_workloads(
            block_forward_gemms(config, BATCH, SEQ, i, bits.get(i, FP_BITS),
                                sparsity.get(i, 0.0)),
            EDGE_GPU_LIKE,
        ).cycles / 1e6
        for i in range(config.num_layers)
    ]


def run(model, ids: np.ndarray, context: np.ndarray, token: np.ndarray,
        policy: Optional[object], speed: HostSpeed) -> Dict[str, float]:
    speed.settle()
    fwd = block_forward_ms(model, ids, speed)
    decode = block_decode_ms(model, context, token, speed)
    ratios = [ms / mc for ms, mc in zip(fwd, modeled_mcycles(model.config, policy))]
    out: Dict[str, float] = {}
    for i, (f, d, r) in enumerate(zip(fwd, decode, ratios)):
        out[f"nn.block_fwd_ms.b{i}"] = f
        out[f"nn.block_decode_ms.b{i}"] = d
        out[f"hw.ms_per_mcycle.b{i}"] = r
    out["hw.fidelity_spread"] = max(ratios) / min(ratios)
    return out
