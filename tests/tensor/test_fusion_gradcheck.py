"""Gradcheck sweep over the fused kernels and their composed chains.

Each hand-fused kernel (silu·mul, RMSNorm) must pass finite-difference
gradient checks at odd shapes in both float32 and float64 — and so must
the composed op chain it replaces (the ``composed`` variants, written
below, are the references the kernels are bit-identical to).
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, rms_norm, silu, silu_mul

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


def _case(kernel, shape, dtype, fused):
    """Return (loss_fn, inputs) for one kernel in one dispatch mode."""
    if kernel == "silu_mul":
        fn = silu_mul if fused else (lambda a, b: silu(a) * b)
        return (
            lambda a, b: fn(a, b).sum(),
            [randt(shape, 0, dtype), randt(shape, 1, dtype)],
        )
    if kernel == "rms_norm":
        fn = (lambda x, w: rms_norm(x, w, EPS)) if fused else _composed_rms
        return (
            lambda x, w: (fn(x, w) * 0.5).sum(),
            [randt(shape, 4, dtype), _feature_param(shape, 5, dtype, shift=1.0)],
        )
    raise AssertionError(kernel)


KERNELS = ["silu_mul", "rms_norm"]


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
    sides = []
    for fused in (True, False):
        fn, inputs = _case(kernel, shape, np.float32, fused)
        loss = fn(*inputs)
        loss.backward()
        sides.append((loss.data, [t.grad for t in inputs]))
    np.testing.assert_array_equal(sides[0][0], sides[1][0])
    for fused_grad, composed_grad in zip(sides[0][1], sides[1][1]):
        np.testing.assert_array_equal(fused_grad, composed_grad)
