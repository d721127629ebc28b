"""Autograd-aware quantized modules (fake-quant with straight-through
estimator), used both for post-training compression and for tuning the
compressed model.

``fake_quant_ste`` (dynamic range) and ``_requant_with_ste`` (frozen
range) are the primitive ops, both one explicit-VJP :class:`FakeQuantOp`
over the grid kernels of :mod:`repro.quant.quantizer`;
``QuantLinear`` is now a shim over
:class:`repro.nn.transforms.TransformedLinear` composing ``InputQuant``
(when activations are quantized) with ``FakeQuantSTE`` on the weight.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import Linear
from ..nn.transforms import FakeQuantSTE, InputQuant, TransformedLinear
from ..tensor import Op, Tensor, apply_op
from .formats import QuantSpec
from .quantizer import (
    calibrate,
    dequantize,
    minmax_range,
    quantize_grid,
    scale_zero_from_range,
)


_FLOAT32_TINY = float(np.finfo(np.float32).tiny)


class FakeQuantOp(Op):
    """Quantize-dequantize with a straight-through gradient.

    ``attrs`` is ``(spec, method, scale, zero)``; ``scale``/``zero`` are
    None for a range calibrated from the input itself, or a frozen range.
    The output is always float32.  Backward is the identity inside the
    representable range and zero outside (the standard STE with clipping);
    ``ctx`` is that in-range mask, or None where it is provably all True.
    """

    name = "fake_quant_ste"
    # Not cacheable: a LUC-compressed train step stays traced.  Captured,
    # every round-robin cycle would invalidate the graphs whose frozen
    # prefix it had just refolded (a folded weight is a version-pinned
    # leaf), which costs more memory and time than tracing.  A frozen
    # range also rides in ``attrs``, which no replay re-reads.
    cacheable = False

    def forward(self, inputs, attrs, out=None):
        x = inputs[0]
        spec, method, scale, zero = attrs
        frozen = scale is not None
        exact = False
        if not frozen and method == "minmax":
            lo, hi = minmax_range(x, spec)
            scale, zero = scale_zero_from_range(lo, hi, spec)
            # A finite symmetric min/max range never clips, and with a
            # normal (full-precision) scale each rounding error is at
            # most about scale/2, within the isclose tolerance below:
            # the mask is all True.  Check the range for finiteness,
            # not the scale, which maps a NaN range to 1e-8.
            exact = (
                spec.symmetric
                and bool(np.isfinite(lo).all())
                and bool(np.isfinite(hi).all())
                and float(scale.min()) >= _FLOAT32_TINY
            )
        elif not frozen:
            scale, zero = calibrate(x, spec, method=method)
        q = quantize_grid(x, scale, zero, spec)
        out_data = dequantize(q, scale, zero)
        if exact:
            return out_data, None
        mask = (q > spec.qmin) & (q < spec.qmax)
        if not frozen:
            # Include exact boundary hits that round-trip (not saturated).
            mask |= np.isclose(out_data, x, atol=float(np.max(scale)))
        return out_data, mask

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad if ctx is None else grad * ctx


_FAKE_QUANT = FakeQuantOp()


def fake_quant_ste(x: Tensor, spec: QuantSpec, method: str = "minmax") -> Tensor:
    """Fake-quantize a Tensor with a straight-through gradient.

    Forward: quantize-dequantize over a range calibrated from ``x``.
    Backward: identity inside the representable range, zero outside.
    """
    if spec.bits >= 16:
        return x
    return apply_op(_FAKE_QUANT, (x,), (spec, method, None, None))


class QuantLinear(TransformedLinear):
    """A Linear layer whose weight (and optionally activations) are
    fake-quantized on every forward pass.

    The underlying full-precision ``inner`` Linear remains the trainable
    master copy; quantization noise is injected in the forward pass and the
    STE routes gradients back to the master weights, which is what lets the
    compressed model be *tuned* (the Edge-LLM use case).
    """

    def __init__(
        self,
        inner: Linear,
        weight_spec: QuantSpec,
        act_spec: Optional[QuantSpec] = None,
        method: str = "minmax",
    ):
        pipeline = []
        if act_spec is not None:
            pipeline.append(InputQuant(act_spec, method=method))
        pipeline.append(FakeQuantSTE(weight_spec, method=method))
        super().__init__(inner, pipeline)
        self.weight_spec = weight_spec
        self.act_spec = act_spec
        self.method = method

    @property
    def _act_quant(self) -> Optional[InputQuant]:
        return self.find(InputQuant)

    @property
    def _act_scale(self) -> Optional[np.ndarray]:
        t = self._act_quant
        return None if t is None else t.scale

    @property
    def _act_zero(self) -> Optional[np.ndarray]:
        t = self._act_quant
        return None if t is None else t.zero

    def calibrate_activations(self, sample: np.ndarray) -> None:
        """Freeze activation quantization ranges from a calibration batch."""
        t = self._act_quant
        if t is None:
            raise ValueError("layer has no activation quantization spec")
        t.calibrate(sample)

    def extra_repr(self) -> str:
        act = self.act_spec.bits if self.act_spec else "fp"
        return f"w{self.weight_spec.bits}a{act}"


def _requant_with_ste(
    x: Tensor, scale: np.ndarray, zero: np.ndarray, spec: QuantSpec
) -> Tensor:
    """:func:`fake_quant_ste` over a frozen (scale, zero) range."""
    return apply_op(_FAKE_QUANT, (x,), (spec, None, scale, zero))


def quantize_linear(layer: Linear, bits: int, act_bits: Optional[int] = None,
                    method: str = "minmax") -> QuantLinear:
    """Wrap a Linear in a QuantLinear with the given weight bit-width."""
    weight_spec = QuantSpec(bits=bits)
    act_spec = QuantSpec(bits=act_bits, per_channel=False, symmetric=False) if act_bits else None
    return QuantLinear(layer, weight_spec, act_spec=act_spec, method=method)
