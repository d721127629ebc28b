"""Per-layer compression sensitivity profiling.

LUC's policy search needs to know how much each block's output quality
degrades under each candidate (bits, prune-ratio).  This module measures
that by temporarily compressing one block at a time and scoring the model
on a calibration batch.

Metrics
-------
``loss_delta``  increase in calibration cross-entropy (the paper-standard
                proxy; needs one forward pass per candidate).
``kl``          KL divergence between the base and compressed output
                distributions (label-free).
``weight_error`` relative weight reconstruction error (no forward pass;
                the cheap proxy used in the R-A3 ablation).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import surgery
from ..nn.layers import Linear
from ..nn.slicing import block_slice_trial
from ..nn.transformer import TransformerLM
from ..obs import get_registry
from ..parallel import EvalCache, WorkerPool, stable_key
from ..quant.formats import QuantSpec
from ..quant.quantizer import fake_quantize
from ..prune.masks import unstructured_mask
from ..tensor import Tensor, no_grad, nll_from_logits, softmax
from .compressed_linear import CompressedLinear
from .policy import LayerCompression

# Linear sublayers of one TransformerBlock, addressed by dotted path.
BLOCK_LINEAR_PATHS: Tuple[str, ...] = (
    "attn.q_proj",
    "attn.k_proj",
    "attn.v_proj",
    "attn.o_proj",
    "mlp.gate_proj",
    "mlp.up_proj",
    "mlp.down_proj",
)


def _resolve(block, path: str):
    """Back-compat helper: (parent, attr) of a dotted path's site."""
    site = surgery.resolve(block, path)
    return site.parent, site.attr


def compress_block(
    block, compression: LayerCompression, structured: bool = False
) -> List[Tuple[object, str, Linear]]:
    """Replace every Linear in ``block`` with a CompressedLinear.

    Returns an undo list for :func:`restore_block`.  An already-compressed
    site is unwrapped first, and (as before the surgery refactor) its raw
    inner Linear is what restore puts back.
    """
    undo = []
    for path in BLOCK_LINEAR_PATHS:
        site = surgery.resolve(block, path)
        original = site.module
        if isinstance(original, CompressedLinear):
            original = original.inner
        wrapped = CompressedLinear(
            original,
            bits=compression.bits,
            prune_ratio=compression.prune_ratio,
            structured=structured,
        )
        surgery.swap(site.parent, site.attr, wrapped)
        undo.append((site.parent, site.attr, original))
    return undo


def restore_block(undo: List[Tuple[object, str, Linear]]) -> None:
    surgery.restore(undo)


@contextlib.contextmanager
def block_compressed(block, compression: LayerCompression, structured: bool = False):
    undo = compress_block(block, compression, structured=structured)
    try:
        yield
    finally:
        restore_block(undo)


@dataclasses.dataclass
class SensitivityProfile:
    """Measured degradation per (block index, candidate compression)."""

    scores: Dict[Tuple[int, LayerCompression], float]
    metric: str

    def score(self, block_index: int, compression: LayerCompression) -> float:
        return self.scores[(block_index, compression)]

    def block_ranking(self, compression: LayerCompression) -> List[int]:
        """Blocks ordered least-sensitive first for one candidate."""
        blocks = sorted({b for b, _ in self.scores})
        return sorted(blocks, key=lambda b: self.scores[(b, compression)])

    def predicted_degradation(self, policy) -> float:
        """Additive degradation estimate for a full policy (the search
        objective): sum of per-block scores."""
        total = 0.0
        for i, layer in enumerate(policy.layers):
            key = (i, layer)
            if key in self.scores:
                total += self.scores[key]
            elif layer.bits >= 16 and layer.prune_ratio == 0.0:
                continue  # uncompressed layers cost nothing
            else:
                raise KeyError(f"no sensitivity measured for block {i} / {layer}")
        return total


def _pair_score(
    pair: Tuple[int, LayerCompression],
    model: TransformerLM,
    inputs: np.ndarray,
    targets: np.ndarray,
    metric: str,
    structured: bool,
    base_loss: Optional[float],
    base_probs: Optional[np.ndarray],
) -> float:
    """Measure one (block, option) pair — the pool's unit of work.

    Pure given its arguments: the block is compressed (sliced first when
    the option carries a structural ratio, then mask/quant wrapped),
    scored, and restored, so pair order (and which process runs which
    pair) cannot change any result.
    """
    block_index, option = pair
    block = model.blocks[block_index]
    if metric == "weight_error":
        return _weight_error(block, option)
    with contextlib.ExitStack() as stack:
        if option.slice_ratio < 1.0:
            # Restorable local trial: only this block's post-attention
            # junction is sliced, mapped back to the full basis on exit.
            stack.enter_context(
                block_slice_trial(
                    model, block_index, option.slice_ratio, inputs
                )
            )
        stack.enter_context(
            block_compressed(block, option, structured=structured)
        )
        with no_grad():
            logits = model(inputs).data
    if metric == "loss_delta":
        loss = float(nll_from_logits(logits, targets).mean())
        return max(loss - base_loss, 0.0)
    probs = softmax(Tensor(logits)).data
    kl = base_probs * (np.log(base_probs + 1e-9) - np.log(probs + 1e-9))
    return max(float(kl.sum(-1).mean()), 0.0)


def _calibration_fingerprint(
    model: TransformerLM,
    calib_inputs: np.ndarray,
    calib_targets: np.ndarray,
    metric: str,
    structured: bool,
) -> str:
    """Content hash of everything a sensitivity score depends on besides
    the (block, option) pair itself: the full parameter state (scores
    flow through every downstream block) and the calibration batch."""
    return stable_key(
        "luc/sensitivity", metric, structured,
        model.state_dict(), np.asarray(calib_inputs), np.asarray(calib_targets),
    )


def check_metric(metric: str, options: Sequence[LayerCompression]) -> None:
    """Raise ``ValueError`` unless ``metric`` can score every option."""
    if metric not in ("loss_delta", "kl", "weight_error"):
        raise ValueError(f"unknown sensitivity metric {metric!r}")
    if metric == "weight_error" and any(
        getattr(o, "slice_ratio", 1.0) < 1.0 for o in options
    ):
        raise ValueError(
            "weight_error is a forward-free proxy and cannot score "
            "structural slice ratios; use loss_delta or kl"
        )


def measure_sensitivity(
    model: TransformerLM,
    calib_inputs: np.ndarray,
    calib_targets: np.ndarray,
    options: Sequence[LayerCompression],
    metric: str = "loss_delta",
    structured: bool = False,
    workers: int = 1,
    cache: Optional[EvalCache] = None,
) -> SensitivityProfile:
    """Profile every (block, option) pair on a calibration batch.

    The per-pair sweep is embarrassingly parallel: ``workers > 1`` fans
    it out over a process pool (each worker compresses its own copy of
    the model), with scores identical to the serial sweep.  A persistent
    ``cache`` keyed on the parameter state and calibration batch lets a
    repeated profiling run skip every forward pass.
    """
    check_metric(metric, options)

    scores: Dict[Tuple[int, LayerCompression], float] = {}
    pairs = [
        (i, option) for i in range(len(model.blocks)) for option in options
    ]
    was_training = model.training
    model.eval()
    try:
        base_key = (
            _calibration_fingerprint(
                model, calib_inputs, calib_targets, metric, structured
            )
            if cache is not None
            else None
        )
        missing: List[Tuple[int, LayerCompression]] = []
        for pair in pairs:
            if cache is not None:
                hit, value = cache.lookup(
                    stable_key(base_key, pair[0], pair[1])
                )
                if hit:
                    scores[pair] = value
                    continue
            missing.append(pair)

        if missing:
            base_loss = None
            base_probs = None
            if metric != "weight_error":
                with no_grad():
                    base_logits = model(calib_inputs).data
                base_loss = float(nll_from_logits(base_logits, calib_targets).mean())
                base_probs = softmax(Tensor(base_logits)).data
            task = functools.partial(
                _pair_score,
                model=model,
                inputs=calib_inputs,
                targets=calib_targets,
                metric=metric,
                structured=structured,
                base_loss=base_loss,
                base_probs=base_probs,
            )
            with WorkerPool(workers) as pool:
                # One chunk per worker: the model payload bound into the
                # task is pickled once per chunk, not once per pair.
                measured = pool.map(
                    task, missing,
                    chunk_size=max(-(-len(missing) // pool.workers), 1),
                )
            for pair, value in zip(missing, measured):
                scores[pair] = value
                if cache is not None:
                    cache.store(stable_key(base_key, pair[0], pair[1]), value)
        reg = get_registry()
        reg.counter("luc/sensitivity/pairs_measured").inc(len(missing))
        reg.counter("luc/sensitivity/pairs_cached").inc(len(pairs) - len(missing))
        return SensitivityProfile(scores=scores, metric=metric)
    finally:
        model.train(was_training)


def _weight_error(block, option: LayerCompression) -> float:
    """Forward-free proxy: mean relative reconstruction error of the
    block's weights under the candidate compression."""
    spec = QuantSpec(bits=option.bits)
    errs = []
    for path in BLOCK_LINEAR_PATHS:
        parent, attr = _resolve(block, path)
        layer = getattr(parent, attr)
        if isinstance(layer, CompressedLinear):
            layer = layer.inner
        w = layer.weight.data
        mask = unstructured_mask(w, option.prune_ratio)
        recon = fake_quantize(w * mask, spec)
        denom = float((w**2).mean()) + 1e-12
        errs.append(float(((w - recon) ** 2).mean()) / denom)
    return float(np.mean(errs))
