"""LLaMA-style decoder-only transformer language model.

The model exposes its internals deliberately: ``embed``, ``blocks``,
``norm`` and ``lm_head`` are public because the Edge-LLM algorithms operate
*between* them — adaptive layer tuning runs a prefix of blocks without
gradients, early-exit heads tap intermediate hidden states, and the
compression passes rewrite individual block sublayers.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..tensor import Tensor, checkpoint, fused_kernels_enabled, no_grad, silu, silu_mul
from ..tensor.tensor import _active_recorder
from .attention import KVCache, MultiHeadAttention
from .layers import Dropout, Embedding, Linear, RMSNorm
from .module import Module, ModuleList


@dataclasses.dataclass
class TransformerConfig:
    """Hyper-parameters of the decoder stack."""

    vocab_size: int = 256
    dim: int = 128
    num_layers: int = 8
    num_heads: int = 4
    num_kv_heads: Optional[int] = None  # < num_heads enables GQA
    mlp_hidden: Optional[int] = None  # default: ceil(8/3 * dim) rounded to 8
    max_len: int = 256
    dropout: float = 0.0
    tie_embeddings: bool = True
    rope_base: float = 10000.0
    seed: int = 0

    def resolved_mlp_hidden(self) -> int:
        if self.mlp_hidden is not None:
            return self.mlp_hidden
        hidden = int(np.ceil(self.dim * 8 / 3 / 8) * 8)
        return hidden

    def resolved_kv_dim(self) -> int:
        """Width of the k/v projections (smaller than dim under GQA)."""
        kv_heads = self.num_kv_heads or self.num_heads
        return (self.dim // self.num_heads) * kv_heads


class SwiGLUMLP(Module):
    """Gated MLP: ``down( silu(gate(x)) * up(x) )`` as in LLaMA."""

    def __init__(self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gate_proj = Linear(dim, hidden, bias=False, rng=rng)
        self.up_proj = Linear(dim, hidden, bias=False, rng=rng)
        self.down_proj = Linear(hidden, dim, bias=False, rng=rng)

    @staticmethod
    def tp_shardable():
        """Projections ``repro.dist.tp`` may shard: gate/up partition
        the hidden dim ("col") so the SiLU gating stays rank-local,
        down partitions the contraction ("row") — one reduction per
        sublayer."""
        return (
            ("gate_proj", "col"),
            ("up_proj", "col"),
            ("down_proj", "row"),
        )

    def forward(self, x: Tensor) -> Tensor:
        if fused_kernels_enabled():
            return self.down_proj(silu_mul(self.gate_proj(x), self.up_proj(x)))
        return self.down_proj(silu(self.gate_proj(x)) * self.up_proj(x))


class TransformerBlock(Module):
    """Pre-norm decoder block: RMSNorm → attention → RMSNorm → SwiGLU."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.attn_norm = RMSNorm(config.dim)
        self.attn = MultiHeadAttention(
            config.dim,
            config.num_heads,
            max_len=config.max_len,
            dropout=config.dropout,
            rng=rng,
            rope_base=config.rope_base,
            num_kv_heads=config.num_kv_heads,
        )
        self.mlp_norm = RMSNorm(config.dim)
        self.mlp = SwiGLUMLP(config.dim, config.resolved_mlp_hidden(), rng=rng)
        self.dropout = Dropout(config.dropout)

    def tp_shardable(self):
        """All (submodule, attribute, orientation) projection sites
        tensor parallelism may shard in this block — the contract
        ``repro.dist.tp.tp_enable`` walks.  Widths are read from the
        live Linears, so structurally sliced blocks shard their sliced
        dims."""
        return tuple(
            ("attn", attr, mode) for attr, mode in self.attn.tp_shardable()
        ) + tuple(
            ("mlp", attr, mode) for attr, mode in self.mlp.tp_shardable()
        )

    def forward(
        self,
        x: Tensor,
        cache: Optional[KVCache] = None,
        key_padding_mask=None,
    ) -> Tensor:
        # Sliced blocks (see repro.nn.slicing) carry shortcut rotations
        # that map the incoming residual into the sublayer-output basis;
        # unsliced blocks have no such buffers and pay nothing.
        attn_out = self.dropout(
            self.attn(
                self.attn_norm(x), cache=cache, key_padding_mask=key_padding_mask
            )
        )
        shortcut = getattr(self, "attn_shortcut_Q", None)
        x = (x if shortcut is None else x @ shortcut) + attn_out
        mlp_out = self.dropout(self.mlp(self.mlp_norm(x)))
        shortcut = getattr(self, "mlp_shortcut_Q", None)
        return (x if shortcut is None else x @ shortcut) + mlp_out

    def forward_decode(self, x, k_prefix, v_prefix, mask, cos_t, sin_t):
        """Capture-friendly decode step (see ``MultiHeadAttention.forward_decode``).

        Returns ``(x_out, k_new, v_new)``.  Sliced-block shortcut
        rotations are identity-guarded into any in-flight graph capture:
        replacing the buffer array invalidates captured graphs instead of
        silently replaying the stale rotation."""
        attn_out, k_new, v_new = self.attn.forward_decode(
            self.attn_norm(x), k_prefix, v_prefix, mask, cos_t, sin_t
        )
        attn_out = self.dropout(attn_out)
        shortcut = self._guarded_shortcut("attn_shortcut_Q")
        x = (x if shortcut is None else x @ shortcut) + attn_out
        mlp_out = self.dropout(self.mlp(self.mlp_norm(x)))
        shortcut = self._guarded_shortcut("mlp_shortcut_Q")
        return (x if shortcut is None else x @ shortcut) + mlp_out, k_new, v_new

    def _guarded_shortcut(self, name: str):
        shortcut = getattr(self, name, None)
        recorder = _active_recorder()
        if recorder is not None:
            # Guard the None case too: slicing an unsliced block *adds*
            # the shortcut, which must invalidate graphs captured before.
            block = self
            recorder.add_guard(lambda: getattr(block, name, None) is shortcut)
        return shortcut


class TransformerLM(Module):
    """Decoder-only language model over integer token ids."""

    def __init__(self, config: TransformerConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embed = Embedding(config.vocab_size, config.dim, rng=rng)
        self.blocks = ModuleList(
            [TransformerBlock(config, rng) for _ in range(config.num_layers)]
        )
        self.norm = RMSNorm(config.dim)
        if config.tie_embeddings:
            self.lm_head = None
        else:
            self.lm_head = Linear(config.dim, config.vocab_size, bias=False, rng=rng)

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------------
    # staged forward pieces (used by adaptive tuning / exit heads)
    # ------------------------------------------------------------------
    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        """Token embedding only (stage 0 of the pipeline)."""
        return self.embed(ids)

    def run_blocks(
        self,
        hidden: Tensor,
        start: int = 0,
        stop: Optional[int] = None,
        caches: Optional[List[KVCache]] = None,
        checkpoint_blocks: bool = False,
    ) -> Tensor:
        """Apply blocks ``start:stop`` to ``hidden``.

        With ``checkpoint_blocks=True`` each block is gradient-checkpointed
        (interior activations recomputed during backward) — the classic
        memory/compute trade, used as a baseline against adaptive layer
        tuning.  Incompatible with KV caches and with active dropout.
        """
        stop = self.num_layers if stop is None else stop
        if checkpoint_blocks and caches is not None:
            raise ValueError("checkpointing does not support KV caches")
        for i in range(start, stop):
            if checkpoint_blocks:
                block = self.blocks[i]
                hidden = checkpoint(block, hidden)
            else:
                cache = caches[i] if caches is not None else None
                hidden = self.blocks[i](hidden, cache=cache)
        return hidden

    def run_blocks_decode(
        self,
        hidden,
        k_prefixes,
        v_prefixes,
        mask,
        cos_t,
        sin_t,
        start: int = 0,
        stop: Optional[int] = None,
    ):
        """Apply blocks ``start:stop`` in capture-friendly decode form.

        ``k_prefixes``/``v_prefixes`` hold one prefix Tensor per applied
        block (length ``stop - start``).  Returns ``(hidden, new_ks,
        new_vs)`` with the per-block suffix cache entries."""
        stop = self.num_layers if stop is None else stop
        new_ks, new_vs = [], []
        for i in range(start, stop):
            hidden, k_new, v_new = self.blocks[i].forward_decode(
                hidden,
                k_prefixes[i - start],
                v_prefixes[i - start],
                mask,
                cos_t,
                sin_t,
            )
            new_ks.append(k_new)
            new_vs.append(v_new)
        return hidden, new_ks, new_vs

    def head(self, hidden: Tensor) -> Tensor:
        """Final norm + (tied or separate) unembedding."""
        hidden = self.norm(hidden)
        if self.lm_head is not None:
            return self.lm_head(hidden)
        return hidden @ self.embed.weight.T

    # ------------------------------------------------------------------
    def forward(
        self,
        ids: np.ndarray,
        caches: Optional[List[KVCache]] = None,
        return_hidden_states: bool = False,
        key_padding_mask: Optional[np.ndarray] = None,
    ):
        """Compute logits ``(batch, seq, vocab)`` for token ids.

        With ``return_hidden_states=True`` also returns the list of hidden
        states *after* each block (length ``num_layers``) — the tap points
        for early-exit heads.  ``key_padding_mask`` (True=PAD; ``(batch,
        seq)``, or ``(batch, cache_len + seq)`` with caches) excludes
        padded keys from attention for batched variable-length inputs.
        """
        hidden = self.embed_tokens(ids)
        hidden_states: List[Tensor] = []
        for i, block in enumerate(self.blocks):
            cache = caches[i] if caches is not None else None
            hidden = block(hidden, cache=cache, key_padding_mask=key_padding_mask)
            if return_hidden_states:
                hidden_states.append(hidden)
        logits = self.head(hidden)
        if return_hidden_states:
            return logits, hidden_states
        return logits

    def new_caches(self) -> List[KVCache]:
        return [KVCache() for _ in range(self.num_layers)]

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        greedy: bool = False,
        top_k: Optional[int] = None,
        top_p: Optional[float] = None,
    ) -> List[int]:
        """Sample a continuation of ``prompt`` using the KV cache.

        ``greedy=True`` decodes deterministically; otherwise temperature
        sampling, optionally restricted by ``top_k`` or ``top_p``.
        """
        from .sampling import sample_token

        rng = rng or np.random.default_rng(0)
        was_training = self.training
        self.eval()
        caches = self.new_caches()
        ids = np.asarray(list(prompt), dtype=np.int64)[None, :]
        out: List[int] = []
        with no_grad():
            logits = self.forward(ids, caches=caches)
            for _ in range(max_new_tokens):
                last = logits.data[0, -1]
                if greedy:
                    token = int(last.argmax())
                else:
                    token = sample_token(
                        last, rng, temperature=temperature,
                        top_k=top_k, top_p=top_p,
                    )
                out.append(token)
                logits = self.forward(
                    np.array([[token]], dtype=np.int64), caches=caches
                )
        self.train(was_training)
        return out
