"""Fused kernels must be *bit-identical* to the op chains they replace.

The fast path's contract is "same numbers, less dispatch": each fused
forward mirrors the exact numpy op sequence of the composed trace, and
each fused backward mirrors the per-input accumulation order.  The layers
always call the fused kernels, so the composed chains live here, as the
references the kernels are held to bit for bit.
"""

import numpy as np
import pytest

from repro.nn import rope_tables
from repro.nn.layers import RMSNorm
from repro.tensor import (
    GraphRecorder,
    Tensor,
    check_gradients,
    concat,
    rope,
    silu,
    silu_mul,
)

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


def composed_rope(x, cos, sin):
    """The RoPE chain ``rope`` fuses, written with tensor ops: rotate the
    channel pairs of ``x``, then interleave the halves back."""
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    rot1 = x1 * cos - x2 * sin
    rot2 = x1 * sin + x2 * cos
    stacked = concat(
        [rot1.reshape(*rot1.shape, 1), rot2.reshape(*rot2.shape, 1)], axis=-1
    )
    return stacked.reshape(*x.shape)


ROPE_LAYOUTS = ["offset", "rows"]


def rope_operands(shape, layout, dtype, seed):
    """``x`` of ``shape`` (batch, heads, seq, head_dim), with signed zeros
    among its entries, and float32 cos/sin tables in one of the two
    layouts attention uses: ``offset`` slices ``(seq, head_dim // 2)`` of
    the module tables (training and prefill), or per-row ``(batch, 1,
    seq, head_dim // 2)`` tables gathered at each row's own positions (a
    captured decode graph's inputs).  Position 0 is in both, where sin is
    exactly 0."""
    batch, _, seq, head_dim = shape
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(dtype)
    data.reshape(-1)[::5] = 0.0
    data.reshape(-1)[2::7] = -0.0
    cos, sin = rope_tables(head_dim, 64)
    if layout == "offset":
        return data, cos[:seq], sin[:seq]
    pos = (np.arange(batch) * 9)[:, None] + np.arange(seq)
    return data, cos[pos][:, None], sin[pos][:, None]


def signed_zero_grad(shape, dtype, seed=3):
    """A non-uniform backward gradient with +0.0 and -0.0 entries,
    including channel pairs that are -0.0 in both halves (whose input
    gradient sums two -0.0 products)."""
    g = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    flat = g.reshape(-1)
    flat[0::6] = -0.0
    flat[1::6] = -0.0
    flat[3::6] = 0.0
    return g


def assert_same_bytes(a, b):
    """Bitwise equality, signed zeros included (``np.array_equal`` treats
    +0.0 and -0.0 as equal)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("layout", ROPE_LAYOUTS)
    def test_rope(self, layout, dtype):
        data, cos, sin = rope_operands((3, 2, 5, 12), layout, dtype, seed=0)
        g = signed_zero_grad(data.shape, dtype)
        sides = []
        for fn in (rope, composed_rope):
            x = Tensor(data.copy(), requires_grad=True, dtype=dtype)
            out = fn(x, cos, sin)
            out.backward(g)
            sides.append((out.data, x.grad))
        (out_f, grad_f), (out_c, grad_c) = sides
        assert out_f.dtype == dtype  # float32 tables do not demote x
        assert_same_bytes(out_f, out_c)
        assert_same_bytes(grad_f, grad_c)
        # The chain's zero-filled slice VJPs leave no -0.0 in the gradient.
        assert not np.signbit(grad_f[grad_f == 0]).any()

    def test_rope_replay_matches_trace(self):
        """A captured graph replays ``rope`` into its step slab, with the
        per-row tables as graph inputs, bitwise equal to a fresh trace."""
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        g = Tensor(signed_zero_grad((2, 2, 3, 8), np.float32))
        data, cos, sin = rope_operands((2, 2, 3, 8), "rows", np.float32, seed=1)
        inputs = [Tensor(data), Tensor(cos), Tensor(sin)]
        with GraphRecorder(mutable=[w]) as rec:
            for t in inputs:
                rec.add_input(t)
            y = rope(inputs[0] @ w, inputs[1], inputs[2])
            graph = rec.finalize([y], loss=(y * g).sum())
        assert "rope" in [step.op.name for step in graph.steps]

        fresh = rope_operands((2, 2, 3, 8), "rows", np.float32, seed=2)
        w.zero_grad()
        (replayed,) = graph.replay(list(fresh), run_backward=True)
        replay_grad = w.grad.copy()
        w.zero_grad()
        traced = rope(Tensor(fresh[0]) @ w, fresh[1], fresh[2])
        (traced * g).sum().backward()
        assert_same_bytes(replayed, traced.data)
        assert_same_bytes(replay_grad, w.grad)

    def test_rope_rejects_a_table_that_requires_grad(self):
        data, cos, sin = rope_operands((1, 1, 2, 4), "offset", np.float32, seed=0)
        with pytest.raises(ValueError, match="requires grad"):
            rope(Tensor(data), Tensor(cos, requires_grad=True), sin)
        with pytest.raises(ValueError, match="requires grad"):
            rope(Tensor(data), cos, Tensor(sin, requires_grad=True))

    def test_rope_rejects_an_odd_head_dim(self):
        cos, sin = rope_tables(4, 8)
        with pytest.raises(ValueError, match="even head dim"):
            rope(Tensor(np.ones((1, 1, 2, 5), np.float32)), cos[:2], sin[:2])


class TestGradcheck:
    def test_rms_norm_gradcheck(self):
        from repro.tensor import rms_norm

        x = randt((3, 8), 0)
        w = randt((8,), 1)
        check_gradients(lambda x, w: rms_norm(x, w), [x, w])

    def test_silu_mul_gradcheck(self):
        a, b = randt((3, 8), 5), randt((3, 8), 6)
        check_gradients(silu_mul, [a, b])

    @pytest.mark.parametrize("layout", ROPE_LAYOUTS)
    def test_rope_gradcheck(self, layout):
        data, cos, sin = rope_operands((2, 2, 3, 6), layout, np.float64, seed=5)
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        check_gradients(lambda x: rope(x, cos, sin), [x], atol=1e-6, rtol=1e-6)
