"""Tests for primitive layers (Linear, Embedding, RMSNorm, Dropout)."""

import numpy as np

from repro.nn import Dropout, Embedding, Linear, RMSNorm
from repro.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLinear:
    def test_forward_matches_numpy(self):
        layer = Linear(4, 3, rng=rng())
        x = rng(1).standard_normal((5, 4)).astype(np.float32)
        out = layer(Tensor(x))
        assert np.allclose(out.data, x @ layer.weight.data + layer.bias.data, rtol=1e-5)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=rng())
        assert layer.bias is None
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight"]

    def test_batched_3d_input(self):
        layer = Linear(4, 3, rng=rng())
        out = layer(Tensor(np.ones((2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_gradients_flow(self):
        layer = Linear(4, 3, rng=rng())
        layer(Tensor(np.ones((2, 4)))).sum().backward()
        assert layer.weight.grad.shape == (4, 3)
        assert np.allclose(layer.bias.grad, np.full(3, 2.0))


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6, rng=rng())
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 6)

    def test_grad_sparse_rows(self):
        emb = Embedding(10, 6, rng=rng())
        emb(np.array([2, 2])).sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestRMSNorm:
    def test_unit_rms(self):
        norm = RMSNorm(16)
        x = Tensor(rng(0).standard_normal((4, 16)) * 3)
        out = norm(x)
        ms = (out.data**2).mean(axis=-1)
        assert np.allclose(ms, 1.0, atol=1e-2)

    def test_no_bias_param(self):
        norm = RMSNorm(8)
        names = [n for n, _ in norm.named_parameters()]
        assert names == ["weight"]

    def test_scale_invariance_direction(self):
        norm = RMSNorm(8)
        x = rng(0).standard_normal((2, 8)).astype(np.float32)
        out1 = norm(Tensor(x)).data
        out2 = norm(Tensor(x * 10)).data
        assert np.allclose(out1, out2, atol=1e-3)


class TestDropout:
    def test_training_mode_drops(self):
        drop = Dropout(0.5, seed=0)
        out = drop(Tensor(np.ones(1000)))
        assert (out.data == 0).sum() > 300

    def test_eval_mode_identity(self):
        drop = Dropout(0.5, seed=0)
        drop.eval()
        x = Tensor(np.ones(100))
        assert np.allclose(drop(x).data, 1.0)

    def test_p_zero_noop(self):
        drop = Dropout(0.0)
        x = Tensor(np.ones(10))
        assert drop(x) is x
