"""repro — a from-scratch reproduction of EDGE-LLM (DAC 2024).

Edge-LLM enables efficient on-device adaptation of large language models
through three components, all implemented here on a pure-numpy deep
learning substrate:

* :mod:`repro.luc` — layer-wise unified compression (per-layer pruning
  ratios + quantization bit-widths found by sensitivity-guided search),
* :mod:`repro.adaptive` — adaptive layer tuning (truncated-backprop
  windows with early exits) and voting (calibrated exit combination),
* :mod:`repro.hw` — an edge-accelerator scheduling search space and
  analytical cost model.

Quick start::

    from repro import TransformerConfig, TransformerLM, EdgeLLM

    model = TransformerLM(TransformerConfig(vocab_size=64, dim=64,
                                            num_layers=6, num_heads=4))
    edge = EdgeLLM(model)
    edge.compress(calib_inputs, calib_targets)   # LUC
    edge.adapt(batches)                          # adaptive layer tuning
    edge.calibrate_voting(val_inputs, val_targets)
    logits = edge.logits(ids)                    # voted inference
"""

from . import (
    adaptive,
    data,
    dist,
    eval,
    hw,
    luc,
    nn,
    parallel,
    peft,
    prune,
    quant,
    serve,
    tensor,
    utils,
)
from .adaptive import (
    AdaptiveLayerTrainer,
    AdaptiveTuningConfig,
    ExitHeadSet,
    VotingCombiner,
    vanilla_trainer,
)
from .data import AdaptationTask, MarkovChainCorpus, MultipleChoiceTask, lm_batches
from .dist import (
    DistConfig,
    PipelineAdaptiveTrainer,
    StagePlan,
)
from .hw import AcceleratorSpec, EDGE_GPU_LIKE, schedule_workloads
from .luc import LUCPolicy, apply_luc, measure_sensitivity, search_policy
from .nn import TransformerConfig, TransformerLM
from .parallel import EvalCache, WorkerPool
from .pipeline import EdgeLLM, EdgeLLMConfig
from .serve import GenerationEngine, Request, Result, serve_batch
from .tensor import Tensor

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "TransformerConfig",
    "TransformerLM",
    "EdgeLLM",
    "EdgeLLMConfig",
    "LUCPolicy",
    "measure_sensitivity",
    "search_policy",
    "apply_luc",
    "AdaptiveTuningConfig",
    "AdaptiveLayerTrainer",
    "vanilla_trainer",
    "ExitHeadSet",
    "VotingCombiner",
    "AcceleratorSpec",
    "EDGE_GPU_LIKE",
    "schedule_workloads",
    "MarkovChainCorpus",
    "MultipleChoiceTask",
    "AdaptationTask",
    "lm_batches",
    "tensor",
    "nn",
    "quant",
    "prune",
    "EvalCache",
    "WorkerPool",
    "DistConfig",
    "PipelineAdaptiveTrainer",
    "StagePlan",
    "dist",
    "GenerationEngine",
    "Request",
    "Result",
    "serve_batch",
    "serve",
    "luc",
    "adaptive",
    "hw",
    "parallel",
    "peft",
    "data",
    "eval",
    "utils",
]
