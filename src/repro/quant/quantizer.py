"""Uniform quantization kernels and range calibration.

Everything here operates on raw numpy arrays; the autograd-aware wrappers
live in :mod:`repro.quant.qmodule`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .formats import QuantSpec


def _reduce_axes(data: np.ndarray, spec: QuantSpec) -> Optional[Tuple[int, ...]]:
    """Axes to reduce when computing ranges (all but the channel axis)."""
    if not spec.per_channel:
        return None
    axis = spec.channel_axis % data.ndim
    return tuple(i for i in range(data.ndim) if i != axis)


def minmax_range(data: np.ndarray, spec: QuantSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Full min/max range, per channel or per tensor."""
    axes = _reduce_axes(data, spec)
    lo = data.min(axis=axes, keepdims=True)
    hi = data.max(axis=axes, keepdims=True)
    return np.asarray(lo, dtype=np.float32), np.asarray(hi, dtype=np.float32)


def percentile_range(
    data: np.ndarray, spec: QuantSpec, pct: float = 99.9
) -> Tuple[np.ndarray, np.ndarray]:
    """Clipped range discarding the extreme ``(100-pct)%`` tails."""
    if not 50.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (50, 100], got {pct}")
    axes = _reduce_axes(data, spec)
    lo = np.percentile(data, 100.0 - pct, axis=axes, keepdims=True)
    hi = np.percentile(data, pct, axis=axes, keepdims=True)
    return lo.astype(np.float32), hi.astype(np.float32)


def scale_zero_from_range(
    lo: np.ndarray, hi: np.ndarray, spec: QuantSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Turn a real-valued range into (scale, zero_point) for ``spec``."""
    lo = np.minimum(lo, 0.0)
    hi = np.maximum(hi, 0.0)
    if spec.symmetric:
        amax = np.maximum(np.abs(lo), np.abs(hi))
        scale = amax / spec.qmax
        zero = np.zeros_like(scale)
    else:
        scale = (hi - lo) / (spec.qmax - spec.qmin)
        safe = np.where(scale > 0, scale, 1.0)
        zero = np.round(spec.qmin - lo / safe)
    scale = np.where(scale > 0, scale, 1e-8).astype(np.float32)
    return scale, zero.astype(np.float32)


def calibrate(
    data: np.ndarray, spec: QuantSpec, method: str = "minmax", **kwargs
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute (scale, zero) with the chosen calibration method.

    Methods: ``minmax``, ``percentile`` (kw ``pct``), ``mse`` (searches the
    clip ratio minimizing reconstruction MSE).
    """
    if method == "minmax":
        lo, hi = minmax_range(data, spec)
        return scale_zero_from_range(lo, hi, spec)
    if method == "percentile":
        lo, hi = percentile_range(data, spec, pct=kwargs.get("pct", 99.9))
        return scale_zero_from_range(lo, hi, spec)
    if method == "mse":
        return _mse_calibrate(data, spec, n_grid=kwargs.get("n_grid", 20))
    raise ValueError(f"unknown calibration method {method!r}")


def _mse_calibrate(
    data: np.ndarray, spec: QuantSpec, n_grid: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid-search the clipping ratio that minimizes quantization MSE."""
    lo_full, hi_full = minmax_range(data, spec)
    best_scale, best_zero = scale_zero_from_range(lo_full, hi_full, spec)
    best_err = _quant_mse(data, best_scale, best_zero, spec)
    for ratio in np.geomspace(0.05, 1.0, n_grid):
        scale, zero = scale_zero_from_range(lo_full * ratio, hi_full * ratio, spec)
        err = _quant_mse(data, scale, zero, spec)
        better = err < best_err
        best_scale = np.where(better, scale, best_scale)
        best_zero = np.where(better, zero, best_zero)
        best_err = np.where(better, err, best_err)
    return best_scale.astype(np.float32), best_zero.astype(np.float32)


def _quant_mse(
    data: np.ndarray, scale: np.ndarray, zero: np.ndarray, spec: QuantSpec
) -> np.ndarray:
    recon = dequantize(quantize_grid(data, scale, zero, spec), scale, zero)
    axes = _reduce_axes(data, spec)
    return ((data - recon) ** 2).mean(axis=axes, keepdims=True)


def quantize_grid(
    data: np.ndarray, scale: np.ndarray, zero: np.ndarray, spec: QuantSpec
) -> np.ndarray:
    """Real -> grid index held as float: the integer codes of
    :func:`quantize` without the int cast, so a NaN stays NaN.

    Round half to even and clip in place; ``+ 0.0`` turns rint's -0.0
    into the +0.0 an integer code dequantizes from.
    """
    q = data / scale + zero
    np.rint(q, out=q)
    np.clip(q, spec.qmin, spec.qmax, out=q)
    q += 0.0
    return q


def quantize(
    data: np.ndarray, scale: np.ndarray, zero: np.ndarray, spec: QuantSpec
) -> np.ndarray:
    """Real -> integer grid (stored in int32 regardless of bit-width)."""
    return quantize_grid(data, scale, zero, spec).astype(np.int32)


def dequantize(q: np.ndarray, scale: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Grid (integer codes or :func:`quantize_grid`'s floats) -> real float32."""
    out = (q.astype(np.float32, copy=False) - zero) * scale
    return out.astype(np.float32, copy=False)


def fake_quantize(
    data: np.ndarray,
    spec: QuantSpec,
    method: str = "minmax",
    scale: Optional[np.ndarray] = None,
    zero: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Quantize-dequantize in one shot (the simulation primitive).

    If ``scale``/``zero`` are omitted they are calibrated from ``data``.
    Bit-width 16 is treated as lossless and returns the input unchanged.
    """
    if spec.bits >= 16:
        return data.astype(np.float32)
    if scale is None or zero is None:
        scale, zero = calibrate(data, spec, method=method)
    return dequantize(quantize_grid(data, scale, zero, spec), scale, zero)


def quantization_mse(data: np.ndarray, spec: QuantSpec, method: str = "minmax") -> float:
    """Mean squared reconstruction error of quantizing ``data``."""
    recon = fake_quantize(data, spec, method=method)
    return float(((data - recon) ** 2).mean())


def fake_quantize_grouped(
    data: np.ndarray,
    spec: QuantSpec,
    group_size: int,
    axis: int = 0,
    method: str = "minmax",
) -> np.ndarray:
    """Per-group fake quantization along ``axis`` (GPTQ/AWQ-style).

    Each contiguous group of ``group_size`` entries along ``axis`` gets its
    own scale — finer than per-channel, the standard for low-bit LLM
    weights.  The axis length must be divisible by ``group_size``.
    """
    if spec.bits >= 16:
        return data.astype(np.float32)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    axis = axis % data.ndim
    size = data.shape[axis]
    if size % group_size != 0:
        raise ValueError(
            f"axis length {size} not divisible by group size {group_size}"
        )
    moved = np.moveaxis(data, axis, 0)
    grouped = moved.reshape(size // group_size, group_size, -1)
    # One scale per (group, column): reduce over the in-group axis.
    if method == "minmax":
        lo = grouped.min(axis=1, keepdims=True)
        hi = grouped.max(axis=1, keepdims=True)
    elif method == "percentile":
        lo = np.percentile(grouped, 0.1, axis=1, keepdims=True)
        hi = np.percentile(grouped, 99.9, axis=1, keepdims=True)
    else:
        raise ValueError(
            f"grouped quantization supports minmax/percentile, got {method!r}"
        )
    scale, zero = scale_zero_from_range(
        lo.astype(np.float32), hi.astype(np.float32), spec
    )
    recon = dequantize(quantize_grid(grouped, scale, zero, spec), scale, zero)
    restored = recon.reshape(moved.shape)
    return np.moveaxis(restored, 0, axis).astype(np.float32)
