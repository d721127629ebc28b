"""Numpy-backed reverse-mode autodiff substrate."""

from .tensor import (
    Op,
    Tensor,
    apply_op,
    concat,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)
from .functional import (
    cross_entropy,
    dropout,
    embedding,
    gelu,
    kv_write,
    log_softmax,
    masked_fill,
    nll_from_logits,
    rms_norm,
    rope,
    silu,
    silu_mul,
    softmax,
)
from .arena import Arena, get_arena
from .graph import (
    Graph,
    GraphCache,
    GraphRecorder,
    graph_capture,
    graph_capture_enabled,
    set_graph_capture,
)
from .checkpoint import checkpoint
from .gradcheck import check_gradients, numerical_gradient
from .profiler import OpProfile, TapeStats, profile_ops, profile_tape

__all__ = [
    "Op",
    "Tensor",
    "apply_op",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_from_logits",
    "gelu",
    "silu",
    "silu_mul",
    "rms_norm",
    "rope",
    "kv_write",
    "embedding",
    "dropout",
    "masked_fill",
    "checkpoint",
    "check_gradients",
    "numerical_gradient",
    "profile_tape",
    "TapeStats",
    "profile_ops",
    "OpProfile",
    "Graph",
    "GraphCache",
    "GraphRecorder",
    "graph_capture",
    "graph_capture_enabled",
    "set_graph_capture",
    "Arena",
    "get_arena",
]
