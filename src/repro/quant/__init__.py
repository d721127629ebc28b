"""Uniform quantization: formats, kernels, calibration, STE modules."""

from .formats import FP16, INT2, INT4, INT8, SUPPORTED_BITS, QuantSpec
from .quantizer import (
    calibrate,
    dequantize,
    fake_quantize,
    fake_quantize_grouped,
    minmax_range,
    percentile_range,
    quantization_mse,
    quantize,
    quantize_grid,
    scale_zero_from_range,
)
from .gptq import (
    gptq_quantize,
    gptq_quantize_linear,
    input_hessian,
    reconstruction_error,
)
from .qmodule import QuantLinear, fake_quant_ste, quantize_linear

__all__ = [
    "QuantSpec",
    "SUPPORTED_BITS",
    "FP16",
    "INT8",
    "INT4",
    "INT2",
    "quantize",
    "quantize_grid",
    "dequantize",
    "fake_quantize",
    "fake_quantize_grouped",
    "calibrate",
    "minmax_range",
    "percentile_range",
    "scale_zero_from_range",
    "quantization_mse",
    "QuantLinear",
    "fake_quant_ste",
    "quantize_linear",
    "gptq_quantize",
    "gptq_quantize_linear",
    "input_hessian",
    "reconstruction_error",
]
