"""Gradcheck sweep over the fused kernels and their composed chains.

Each hand-fused kernel (silu·mul, RMSNorm, RoPE at both table layouts)
must pass finite-difference gradient checks at odd shapes in both float32
and float64 — and so must the composed op chain it replaces (the
``composed`` variants, written in the tests, are the references the
kernels are bit-identical to).  Every loss weights the kernel's output
with a fixed non-uniform gradient: an all-ones one (``.sum()``) would
hide a VJP that reassociates a product.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, rms_norm, rope, silu, silu_mul

from .test_fused_kernels import composed_rope, rope_operands

ODD_SHAPES = [(3, 5), (1, 7), (2, 3, 5)]
DTYPES = [np.float32, np.float64]
EPS = 1e-5


def randt(shape, seed, dtype, scale=1.0, shift=0.0):
    data = np.random.default_rng(seed).standard_normal(shape) * scale + shift
    return Tensor(data.astype(dtype), requires_grad=True)


def _feature_param(shape, seed, dtype, shift=0.0):
    return randt(shape[-1:], seed, dtype, scale=0.3, shift=shift)


def _composed_rms(x, w):
    # The chain ``rms_norm`` fuses.
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + EPS) ** -0.5) * w


def _weighted_sum(out):
    """``out`` contracted with a fixed non-uniform gradient."""
    g = np.random.default_rng(11).standard_normal(out.shape)
    return (out * Tensor(g.astype(out.dtype), dtype=out.dtype)).sum()


def _rope_shape(shape):
    """A RoPE operand ``(batch, heads, seq, head_dim)`` for an odd sweep
    shape: batch from a leading third axis, two heads, the shape's rows
    as positions and twice its last axis as the (even) head dim."""
    batch = shape[0] if len(shape) == 3 else 1
    return (batch, 2, shape[-2], 2 * shape[-1])


def _case(kernel, shape, dtype, fused):
    """Return (loss_fn, inputs) for one kernel in one dispatch mode."""
    if kernel == "silu_mul":
        fn = silu_mul if fused else (lambda a, b: silu(a) * b)
        return (
            lambda a, b: _weighted_sum(fn(a, b)),
            [randt(shape, 0, dtype), randt(shape, 1, dtype)],
        )
    if kernel == "rms_norm":
        fn = (lambda x, w: rms_norm(x, w, EPS)) if fused else _composed_rms
        return (
            lambda x, w: _weighted_sum(fn(x, w)),
            [randt(shape, 4, dtype), _feature_param(shape, 5, dtype, shift=1.0)],
        )
    if kernel.startswith("rope-"):
        layout = kernel[len("rope-"):]
        data, cos, sin = rope_operands(_rope_shape(shape), layout, dtype, seed=6)
        fn = rope if fused else composed_rope
        return (
            lambda x: _weighted_sum(fn(x, cos, sin)),
            [Tensor(data, requires_grad=True, dtype=dtype)],
        )
    raise AssertionError(kernel)


KERNELS = ["silu_mul", "rms_norm", "rope-offset", "rope-rows"]


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", ODD_SHAPES, ids=str)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_gradcheck(kernel, shape, dtype, fused):
    fn, inputs = _case(kernel, shape, dtype, fused)
    check_gradients(fn, inputs)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("shape", ODD_SHAPES, ids=str)
def test_fused_matches_composed_bitwise(kernel, shape):
    for dtype in DTYPES:
        sides = []
        for fused in (True, False):
            fn, inputs = _case(kernel, shape, dtype, fused)
            loss = fn(*inputs)
            loss.backward()
            sides.append((loss.data, [t.grad for t in inputs]))
        assert sides[0][0].tobytes() == sides[1][0].tobytes()
        for fused_grad, composed_grad in zip(sides[0][1], sides[1][1]):
            assert fused_grad.dtype == composed_grad.dtype
            assert fused_grad.tobytes() == composed_grad.tobytes()
