"""LUC policies: the per-layer (bit-width, prune-ratio, slice-ratio)
assignment.

A policy's *compute cost* models edge-accelerator effort per block:
``params x (bits / 16) x (1 - sparsity) x slice_ratio`` —
bit-serial/precision-scalable MACs are charged proportionally to operand
width, pruned weights cost nothing, and structural slicing
(:mod:`repro.nn.slicing`) shrinks every block GEMM along exactly one
residual-stream dimension, so its MACs scale linearly with the kept
fraction.  Budgets are expressed as a fraction of the uncompressed
model's cost, which is how the paper frames "cost-effective layer-wise
policies".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

BASELINE_BITS = 16


@dataclasses.dataclass(frozen=True)
class LayerCompression:
    """Compression assigned to one transformer block.

    ``slice_ratio`` is the *structural* residual-stream keep fraction
    (1.0 = no slicing, the back-compatible default) — unlike
    ``prune_ratio`` it genuinely shrinks the block's matmuls.
    """

    bits: int
    prune_ratio: float
    slice_ratio: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ValueError(f"prune ratio {self.prune_ratio} invalid")
        if not 0.0 < self.slice_ratio <= 1.0:
            raise ValueError(f"slice ratio {self.slice_ratio} invalid")

    def cost_factor(self) -> float:
        """Relative MAC cost vs an uncompressed (16-bit dense) layer."""
        return (
            (self.bits / BASELINE_BITS)
            * (1.0 - self.prune_ratio)
            * self.slice_ratio
        )


@dataclasses.dataclass
class LUCPolicy:
    """A full per-block compression assignment."""

    layers: List[LayerCompression]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def cost(self) -> float:
        """Mean relative compute cost across blocks (1.0 = uncompressed)."""
        return float(np.mean([blk.cost_factor() for blk in self.layers]))

    def average_bits(self) -> float:
        return float(np.mean([blk.bits for blk in self.layers]))

    def average_sparsity(self) -> float:
        return float(np.mean([blk.prune_ratio for blk in self.layers]))

    def bits_per_block(self) -> Dict[int, int]:
        return {i: blk.bits for i, blk in enumerate(self.layers)}

    def sparsity_per_block(self) -> Dict[int, float]:
        return {i: blk.prune_ratio for i, blk in enumerate(self.layers)}

    def slice_per_block(self) -> Dict[int, float]:
        return {i: blk.slice_ratio for i, blk in enumerate(self.layers)}

    def slice_ratios(self) -> List[float]:
        """Per-block structural keep fractions, in block order — the
        argument :func:`repro.nn.slicing.rotate_and_slice` takes."""
        return [blk.slice_ratio for blk in self.layers]

    def has_slicing(self) -> bool:
        return any(blk.slice_ratio < 1.0 for blk in self.layers)

    @classmethod
    def uniform(cls, num_layers: int, bits: int, prune_ratio: float) -> "LUCPolicy":
        """The paper's uniform-compression baseline."""
        return cls([LayerCompression(bits, prune_ratio)] * num_layers)

    @classmethod
    def uncompressed(cls, num_layers: int) -> "LUCPolicy":
        return cls.uniform(num_layers, BASELINE_BITS, 0.0)

    def describe(self) -> str:
        rows = [
            f"  block {i:2d}: {blk.bits:2d}-bit, {blk.prune_ratio:.0%} pruned"
            + (
                f", {blk.slice_ratio:.0%} sliced width"
                if blk.slice_ratio < 1.0
                else ""
            )
            for i, blk in enumerate(self.layers)
        ]
        header = (
            f"LUCPolicy(avg_bits={self.average_bits():.1f}, "
            f"avg_sparsity={self.average_sparsity():.0%}, cost={self.cost():.3f})"
        )
        return "\n".join([header] + rows)


# The menus the policy search draws from (the paper's LUC search space —
# per-layer bit-widths and pruning ratios — extended with structural
# slice ratios; the default keeps slicing off).
DEFAULT_BIT_OPTIONS: Tuple[int, ...] = (2, 4, 8)
DEFAULT_PRUNE_OPTIONS: Tuple[float, ...] = (0.0, 0.3, 0.5)
DEFAULT_SLICE_OPTIONS: Tuple[float, ...] = (1.0,)


def enumerate_layer_options(
    bit_options: Sequence[int] = DEFAULT_BIT_OPTIONS,
    prune_options: Sequence[float] = DEFAULT_PRUNE_OPTIONS,
    slice_options: Sequence[float] = DEFAULT_SLICE_OPTIONS,
) -> List[LayerCompression]:
    """All (bits, prune, slice) combinations a single layer may receive."""
    return [
        LayerCompression(bits, ratio, slice_ratio)
        for bits in bit_options
        for ratio in prune_options
        for slice_ratio in slice_options
    ]
