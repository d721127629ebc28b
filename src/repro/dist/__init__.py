"""Sharded execution over persistent workers: pipeline stages.

Partitions a ``TransformerLM`` into contiguous block stages hosted by
long-lived forked processes (serial in-process fallback included),
with cost-balanced stage planning, 1F1B micro-batch scheduling for
tuning, and request-pipelined greedy serving — all bit-identical to
single-process execution.  Boundary receives are double-buffered
(``transport.PrefetchReceiver``) to overlap communication with
compute.  See docs/parallelism.md.
"""

from .plan import (
    StagePlan,
    model_block_costs,
    plan_for_model,
    plan_stages,
)
from .runtime import DistConfig, PipelineRunner, validate_tuning_config
from .serve import (
    SAMPLING_UNSUPPORTED_MSG,
    PipelineGenerationEngine,
)
from .trainer import PipelineAdaptiveTrainer
from .transport import PrefetchReceiver, get_or_fallback
from .worker import StageHost, canonical_parameters, owner_stage

__all__ = [
    "DistConfig",
    "PipelineAdaptiveTrainer",
    "PipelineGenerationEngine",
    "PipelineRunner",
    "PrefetchReceiver",
    "SAMPLING_UNSUPPORTED_MSG",
    "StageHost",
    "StagePlan",
    "canonical_parameters",
    "get_or_fallback",
    "model_block_costs",
    "owner_stage",
    "plan_for_model",
    "plan_stages",
    "validate_tuning_config",
]
