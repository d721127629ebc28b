"""Primitive NN layers: Linear, Embedding, RMSNorm, Dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import (
    Tensor,
    dropout as dropout_fn,
    embedding as embedding_fn,
    rms_norm as rms_norm_fn,
)
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W + b``.

    The weight is stored ``(in_features, out_features)``; column *j* is the
    fan-in of output channel *j*, which is the axis the structured pruning
    and per-channel quantization code operates on.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}, bias={self.bias is not None}"


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, embedding_dim)))

    def forward(self, ids) -> Tensor:
        return embedding_fn(self.weight, ids)

    def extra_repr(self) -> str:
        return f"num={self.num_embeddings}, dim={self.embedding_dim}"


class RMSNorm(Module):
    """Root-mean-square norm (LLaMA-style, no mean subtraction / bias)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return rms_norm_fn(x, self.weight, self.eps)

    def extra_repr(self) -> str:
        return f"dim={self.dim}"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.1, seed: int = 0):
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, self._rng, training=self.training)

    def extra_repr(self) -> str:
        return f"p={self.p}"
