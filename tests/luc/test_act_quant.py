"""Tests for activation quantization in the LUC compression path."""

import numpy as np
import pytest

from repro.eval import model_perplexity
from repro.luc import CompressedLinear, LUCPolicy, apply_luc, remove_luc
from repro.nn import Linear, TransformerConfig, TransformerLM
from repro.nn.transforms import InputQuant
from repro.serve.api import Request, serve_batch
from repro.tensor import Tensor, graph_capture


class TestActivationQuant:
    def make(self, act_bits=8):
        return CompressedLinear(
            Linear(16, 8, rng=np.random.default_rng(0)),
            bits=8,
            prune_ratio=0.0,
            act_bits=act_bits,
        )

    def test_act16_is_noop(self):
        layer = self.make(act_bits=16)
        assert layer.act_spec is None

    def test_act_quant_changes_output(self):
        base = self.make(act_bits=None)
        quant = self.make(act_bits=2)
        x = Tensor(np.random.default_rng(1).standard_normal((4, 16)))
        assert not np.allclose(base(x).data, quant(x).data, atol=1e-4)

    def test_act8_close_to_fp(self):
        base = self.make(act_bits=None)
        quant = self.make(act_bits=8)
        x = Tensor(np.random.default_rng(1).standard_normal((4, 16)))
        assert np.allclose(base(x).data, quant(x).data, atol=0.15)

    def test_gradients_flow_through_act_quant(self):
        layer = self.make(act_bits=8)
        x = Tensor(np.random.default_rng(1).standard_normal((4, 16)),
                   requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.inner.weight.grad is not None

    def test_repr_mentions_act_bits(self):
        assert "act=8b" in self.make(act_bits=8).extra_repr()

    def test_apply_luc_with_act_bits(self, pretrained_model, pretrain_corpus):
        policy = LUCPolicy.uniform(pretrained_model.num_layers, 8, 0.0)
        undo = apply_luc(pretrained_model, policy, act_bits=8)
        first = pretrained_model.blocks[0].attn.q_proj
        assert isinstance(first, CompressedLinear)
        assert first.act_bits == 8
        ppl = model_perplexity(pretrained_model, pretrain_corpus, num_batches=2)
        remove_luc(undo)
        base = model_perplexity(pretrained_model, pretrain_corpus, num_batches=2)
        # W8A8 should be close to lossless on this model.
        assert ppl < base * 1.2


class TestFrozenActivationRangeUnderCapture:
    def test_capture_serves_the_traced_tokens(self):
        """A frozen activation range quantizes through the fake-quant op
        even without gradients, so decode capture is refused instead of
        baking the first step's quantized activations into the graph."""
        model = TransformerLM(TransformerConfig(
            vocab_size=32, dim=32, num_layers=2, num_heads=4, max_len=64, seed=0,
        ))
        apply_luc(model, LUCPolicy.uniform(2, 8, 0.0), act_bits=8)
        rng = np.random.default_rng(0)
        for module in model.modules():
            if isinstance(module, InputQuant):
                module.calibrate(rng.standard_normal((16, 32)).astype(np.float32))
        model.eval()
        tokens = {}
        for capture in (True, False):
            prompts = np.random.default_rng(1).integers(0, 32, (3, 5))
            requests = [
                Request(request_id=str(i), prompt=list(p), max_new_tokens=12)
                for i, p in enumerate(prompts)
            ]
            with graph_capture(capture):
                tokens[capture] = [r.tokens for r in serve_batch(model, requests)]
        assert tokens[True] == tokens[False]
