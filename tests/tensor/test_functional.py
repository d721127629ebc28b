"""Unit tests for fused composite ops (softmax, cross-entropy, activations)."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    cross_entropy,
    dropout,
    embedding,
    gelu,
    kv_write,
    log_softmax,
    masked_fill,
    nll_from_logits,
    no_grad,
    silu,
    softmax,
)


def randt(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        s = softmax(randt(4, 7))
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]), requires_grad=True)
        s = softmax(x)
        assert np.all(np.isfinite(s.data))

    def test_grad_sums_to_zero_per_row(self):
        x = randt(3, 5)
        (softmax(x) * randt(3, 5, seed=9).data).sum().backward()
        assert np.allclose(x.grad.sum(axis=-1), 0.0, atol=1e-5)

    def test_matches_manual(self):
        x = randt(2, 4)
        e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
        assert np.allclose(softmax(x).data, e / e.sum(-1, keepdims=True), rtol=1e-5)

    def test_axis_argument(self):
        x = randt(3, 4)
        assert np.allclose(softmax(x, axis=0).data.sum(axis=0), 1.0, atol=1e-6)


class TestLogSoftmax:
    def test_exp_matches_softmax(self):
        x = randt(4, 6)
        assert np.allclose(np.exp(log_softmax(x).data), softmax(x).data, rtol=1e-5)

    def test_grad(self):
        x = randt(2, 3)
        log_softmax(x).sum().backward()
        s = softmax(Tensor(x.data)).data
        assert np.allclose(x.grad, 1.0 - 3 * s, atol=1e-5)


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = Tensor(np.zeros((5, 8)), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert np.isclose(loss.item(), np.log(8), rtol=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 4), -20.0)
        targets = np.array([0, 1, 2])
        for i, t in enumerate(targets):
            logits[i, t] = 20.0
        loss = cross_entropy(Tensor(logits, requires_grad=True), targets)
        assert loss.item() < 1e-4

    def test_gradient_is_probs_minus_onehot(self):
        logits = randt(6, 5)
        targets = np.array([0, 1, 2, 3, 4, 0])
        loss = cross_entropy(logits, targets)
        loss.backward()
        probs = softmax(Tensor(logits.data)).data
        onehot = np.eye(5)[targets]
        assert np.allclose(logits.grad, (probs - onehot) / 6, atol=1e-5)

    def test_ignore_index_masks_positions(self):
        logits = randt(4, 5)
        targets = np.array([1, -1, 2, -1])
        loss = cross_entropy(logits, targets, ignore_index=-1)
        loss.backward()
        assert np.allclose(logits.grad[1], 0.0)
        assert np.allclose(logits.grad[3], 0.0)
        assert not np.allclose(logits.grad[0], 0.0)

    def test_3d_logits(self):
        logits = randt(2, 3, 5)
        targets = np.zeros((2, 3), dtype=np.int64)
        loss = cross_entropy(logits, targets)
        loss.backward()
        assert logits.grad.shape == (2, 3, 5)

    def test_all_ignored_no_nan(self):
        logits = randt(2, 5)
        loss = cross_entropy(logits, np.array([-1, -1]), ignore_index=-1)
        assert np.isfinite(loss.item())
        assert loss.item() == 0.0

    def test_matches_log_softmax_composition(self):
        logits = randt(7, 9)
        targets = np.arange(7) % 9
        fused = cross_entropy(logits, targets).item()
        lp = log_softmax(Tensor(logits.data)).data
        manual = -lp[np.arange(7), targets].mean()
        assert np.isclose(fused, manual, rtol=1e-5)


class TestNLLHelper:
    def test_shape_and_values(self):
        logits = randt(2, 3, 5)
        targets = np.zeros((2, 3), dtype=np.int64)
        nll = nll_from_logits(logits, targets)
        assert nll.shape == (2, 3)
        assert np.isclose(nll.mean(), cross_entropy(logits, targets).item(), rtol=1e-5)


class TestActivations:
    def test_gelu_known_values(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        assert np.isclose(gelu(x).item(), 0.0, atol=1e-7)

    def test_gelu_monotone_tail(self):
        x = Tensor(np.array([3.0, 5.0]))
        out = gelu(x).data
        assert np.allclose(out, [3.0, 5.0], atol=0.01)

    def test_gelu_grad_finite_diff(self):
        x = randt(6)
        gelu(x).sum().backward()
        eps = 1e-3
        num = (gelu(Tensor(x.data + eps)).data - gelu(Tensor(x.data - eps)).data) / (2 * eps)
        assert np.allclose(x.grad, num, atol=1e-2)

    def test_silu_matches_definition(self):
        x = randt(5)
        assert np.allclose(silu(x).data, x.data / (1 + np.exp(-x.data)), rtol=1e-5)

    def test_silu_grad_finite_diff(self):
        x = randt(6, seed=3)
        silu(x).sum().backward()
        eps = 1e-3
        num = (silu(Tensor(x.data + eps)).data - silu(Tensor(x.data - eps)).data) / (2 * eps)
        assert np.allclose(x.grad, num, atol=1e-2)


class TestEmbedding:
    def test_lookup(self):
        w = randt(10, 4)
        ids = np.array([[1, 2], [3, 1]])
        out = embedding(w, ids)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 0], w.data[1])

    def test_grad_accumulates_repeated_ids(self):
        w = randt(5, 3)
        ids = np.array([0, 0, 2])
        embedding(w, ids).sum().backward()
        assert np.allclose(w.grad[0], np.full(3, 2.0))
        assert np.allclose(w.grad[2], np.ones(3))
        assert np.allclose(w.grad[1], 0.0)


class TestDropout:
    def test_eval_mode_identity(self):
        x = randt(10)
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_p_zero_identity(self):
        x = randt(10)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            dropout(randt(3), 1.5, np.random.default_rng(0))

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones(20000), requires_grad=True)
        out = dropout(x, 0.25, np.random.default_rng(0))
        assert np.isclose(out.data.mean(), 1.0, atol=0.02)

    def test_grad_matches_mask(self):
        x = randt(100)
        out = dropout(x, 0.5, np.random.default_rng(7))
        out.sum().backward()
        kept = out.data != 0
        assert np.allclose(x.grad[kept], 2.0)
        assert np.allclose(x.grad[~kept], 0.0)


class TestMaskedFill:
    def test_values_replaced(self):
        x = randt(2, 3)
        mask = np.array([[True, False, False], [False, True, False]])
        out = masked_fill(x, mask, -1e9)
        assert out.data[0, 0] == pytest.approx(-1e9)
        assert out.data[0, 1] == pytest.approx(x.data[0, 1])

    def test_grad_blocked_at_mask(self):
        x = randt(2, 2)
        mask = np.array([[True, False], [False, False]])
        masked_fill(x, mask, 0.0).sum().backward()
        assert x.grad[0, 0] == 0.0
        assert x.grad[1, 1] == 1.0


class TestKvWrite:
    def test_writes_in_place_and_returns_the_store(self):
        store = np.zeros((2, 1, 6, 2), dtype=np.float32)
        new = np.arange(2 * 1 * 2 * 2, dtype=np.float32).reshape(2, 1, 2, 2) + 1
        with no_grad():
            out = kv_write(store, Tensor(new), np.array([1, 3]))
        assert out.data is store
        np.testing.assert_array_equal(store[0, :, 1:3], new[0])
        np.testing.assert_array_equal(store[1, :, 3:5], new[1])
        assert not store[0, :, [0, 3, 4, 5]].any()
        assert not store[1, :, [0, 1, 2, 5]].any()
        with no_grad():  # one position per row: the scatter path
            kv_write(store, Tensor(new[:, :, :1] * 10), np.array([5, 0]))
        np.testing.assert_array_equal(store[0, :, 5], new[0, :, 0] * 10)
        np.testing.assert_array_equal(store[1, :, 0], new[1, :, 0] * 10)

    def test_asking_for_a_gradient_raises(self):
        new = Tensor(np.ones((1, 1, 1, 2), dtype=np.float32), requires_grad=True)
        out = kv_write(np.zeros((1, 1, 4, 2), dtype=np.float32), new, np.array([0]))
        with pytest.raises(RuntimeError, match="forward-only"):
            out.sum().backward()
