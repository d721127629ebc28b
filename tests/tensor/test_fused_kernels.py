"""Fused kernels must be *bit-identical* to the op chains they replace.

The fast path's contract is "same numbers, less dispatch": each fused
forward mirrors the exact numpy op sequence of the composed trace, and
each fused backward mirrors the per-input accumulation order.  The layers
always call the fused kernels, so the composed chains live here, as the
references the kernels are held to bit for bit.
"""

import numpy as np

from repro.nn.layers import RMSNorm
from repro.tensor import Tensor, check_gradients, silu, silu_mul

EPS = 1e-5


def randt(shape, seed, scale=1.0):
    data = np.random.default_rng(seed).standard_normal(shape) * scale
    return Tensor(data.astype(np.float32), requires_grad=True)


def backward_weighted(out, seed=7):
    """Backprop a non-uniform output gradient, so that every VJP term
    shows in the bits (an all-ones gradient hides reassociations)."""
    g = np.random.default_rng(seed).standard_normal(out.shape)
    (out * Tensor(g.astype(np.float32))).sum().backward()


def composed_rms_norm(x, weight, eps=EPS):
    """The RMSNorm chain ``rms_norm`` fuses, written with tensor ops."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + eps) ** -0.5) * weight


class TestBitIdentity:
    def _weighted_norm(self):
        norm = RMSNorm(16, eps=EPS)
        norm.weight.data = (
            np.random.default_rng(9).standard_normal(16).astype(np.float32)
        )
        return norm

    def test_rms_norm(self):
        norm = self._weighted_norm()
        weight_ref = Tensor(norm.weight.data.copy(), requires_grad=True)
        x_mod, x_ref = randt((4, 16), 0), randt((4, 16), 0)
        out = norm(x_mod)
        ref = composed_rms_norm(x_ref, weight_ref)
        assert np.array_equal(out.data, ref.data)
        backward_weighted(out)
        backward_weighted(ref)
        assert np.array_equal(x_mod.grad, x_ref.grad)

    def test_rms_norm_weight_grad(self):
        norm = self._weighted_norm()
        weight_ref = Tensor(norm.weight.data.copy(), requires_grad=True)
        backward_weighted(norm(randt((4, 16), 0)))
        backward_weighted(composed_rms_norm(randt((4, 16), 0), weight_ref))
        assert np.array_equal(norm.weight.grad, weight_ref.grad)

    def test_silu_mul(self):
        def composed(a, b):
            return silu(a) * b

        fused_in = [randt((4, 16), 2), randt((4, 16), 3)]
        comp_in = [randt((4, 16), 2), randt((4, 16), 3)]
        out_f = silu_mul(*fused_in)
        out_c = composed(*comp_in)
        assert np.array_equal(out_f.data, out_c.data)
        out_f.sum().backward()
        out_c.sum().backward()
        for f, c in zip(fused_in, comp_in):
            assert np.array_equal(f.grad, c.grad)


class TestGradcheck:
    def test_rms_norm_gradcheck(self):
        from repro.tensor import rms_norm

        x = randt((3, 8), 0)
        w = randt((8,), 1)
        check_gradients(lambda x, w: rms_norm(x, w), [x, w])

    def test_silu_mul_gradcheck(self):
        a, b = randt((3, 8), 5), randt((3, 8), 6)
        check_gradients(silu_mul, [a, b])
