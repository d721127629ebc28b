"""Sharded tuning over persistent workers: pipeline stages.

Partitions a ``TransformerLM`` into contiguous block stages hosted by
long-lived forked processes (serial in-process fallback included),
with cost-balanced stage planning and 1F1B micro-batch scheduling for
adaptive tuning — bit-identical to single-process training.  Serving
is single-process (``repro.serve``).  Boundary receives are
double-buffered (``transport.PrefetchReceiver``) to overlap
communication with compute.  See docs/parallelism.md.
"""

from .plan import (
    StagePlan,
    model_block_costs,
    plan_for_model,
    plan_stages,
)
from .runtime import DistConfig, PipelineRunner, validate_tuning_config
from .trainer import PipelineAdaptiveTrainer
from .transport import PrefetchReceiver
from .worker import StageHost, canonical_parameters, owner_stage

__all__ = [
    "DistConfig",
    "PipelineAdaptiveTrainer",
    "PipelineRunner",
    "PrefetchReceiver",
    "StageHost",
    "StagePlan",
    "canonical_parameters",
    "model_block_costs",
    "owner_stage",
    "plan_for_model",
    "plan_stages",
    "validate_tuning_config",
]
