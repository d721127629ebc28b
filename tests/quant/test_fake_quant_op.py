"""One quantize grid, bitwise the int32 round trip it replaced.

``old_quantize`` / ``old_dequantize`` are the former integer-code
kernels of :mod:`repro.quant.quantizer`, and ``reference_dynamic`` /
``reference_frozen`` the forward and mask of the former ``Tensor._make``
closures of ``fake_quant_ste`` and ``_requant_with_ste``, kept here
verbatim as the oracle.  On every finite input the fake-quant op (output
bytes, in-range mask, straight-through gradient) and the numpy kernels
built on :func:`quantize_grid` must match it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import QuantSpec, fake_quant_ste
from repro.quant.qmodule import _FAKE_QUANT, FakeQuantOp, _requant_with_ste
from repro.quant.quantizer import (
    _quant_mse,
    _reduce_axes,
    calibrate,
    fake_quantize,
    fake_quantize_grouped,
    quantization_mse,
    quantize,
    scale_zero_from_range,
)
from repro.tensor import Tensor

# Huge magnitudes overflow MSE calibration and non-finite inputs warn in
# the division; both sides of every comparison see the same warnings.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def old_quantize(data, scale, zero, spec):
    q = np.round(data / scale + zero)
    return np.clip(q, spec.qmin, spec.qmax).astype(np.int32)


def old_dequantize(q, scale, zero):
    return ((q.astype(np.float32) - zero) * scale).astype(np.float32)


def reference_dynamic(x, spec, method):
    scale, zero = calibrate(x, spec, method=method)
    q = old_quantize(x, scale, zero, spec)
    out = old_dequantize(q, scale, zero)
    in_range = (q > spec.qmin) & (q < spec.qmax)
    in_range |= np.isclose(out, x, atol=float(np.max(scale)))
    return out, in_range


def reference_frozen(x, scale, zero, spec):
    q = old_quantize(x, scale, zero, spec)
    out = old_dequantize(q, scale, zero)
    return out, (q > spec.qmin) & (q < spec.qmax)


@st.composite
def quant_cases(draw):
    """A spec, a calibration method and a finite input: 1-3 dims, any
    channel axis, float32/float64, magnitudes 1e-45..1e30 (subnormal
    float32 ranges included), with zero channels and exact grid values
    mixed in."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim)))
    spec = QuantSpec(
        bits=draw(st.sampled_from([2, 3, 4, 6, 8])),
        symmetric=draw(st.booleans()),
        per_channel=draw(st.booleans()),
        channel_axis=draw(st.integers(-ndim, ndim - 1)),
    )
    method = draw(st.sampled_from(["minmax", "percentile", "mse"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    magnitude = 10.0 ** draw(st.floats(-45, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    x = np.random.default_rng(seed).standard_normal(shape) * magnitude
    kind = draw(st.sampled_from(["normal", "zero_channel", "grid"]))
    if kind == "zero_channel":
        x[..., 0] = 0.0
    elif kind == "grid":
        x = np.round(x * 4 / magnitude) * magnitude / 4
    return spec, method, x.astype(dtype)


def _grad_seed(shape, seed=0):
    g = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    g.flat[:: 3] = -0.0
    return g


class TestDynamicRange:
    @settings(max_examples=300, deadline=None)
    @given(quant_cases())
    def test_output_and_mask_match_reference(self, case):
        spec, method, x = case
        ref_out, ref_mask = reference_dynamic(x, spec, method)
        out, mask = _FAKE_QUANT.forward((x,), (spec, method, None, None))
        assert out.dtype == np.float32 == ref_out.dtype
        assert out.tobytes() == ref_out.tobytes()
        if mask is None:
            assert ref_mask.all()
        else:
            assert np.array_equal(mask, ref_mask)

    @settings(max_examples=100, deadline=None)
    @given(quant_cases())
    def test_gradient_is_grad_times_mask(self, case):
        spec, method, data = case
        _, ref_mask = reference_dynamic(data, spec, method)
        x = Tensor(data, requires_grad=True, dtype=data.dtype)
        out = fake_quant_ste(x, spec, method=method)
        g = _grad_seed(out.shape)
        out.backward(g)
        expected = np.asarray(g * ref_mask, dtype=data.dtype)
        assert x.grad.tobytes() == expected.tobytes()

    def test_fast_path_only_for_finite_symmetric_minmax(self):
        x = np.random.default_rng(0).standard_normal((6, 5)).astype(np.float32)
        forward = _FAKE_QUANT.forward
        assert forward((x,), (QuantSpec(bits=4), "minmax", None, None))[1] is None
        for spec, method in [
            (QuantSpec(bits=4, symmetric=False), "minmax"),
            (QuantSpec(bits=4), "percentile"),
            (QuantSpec(bits=4), "mse"),
        ]:
            assert forward((x,), (spec, method, None, None))[1] is not None
        x[2, 3] = np.inf
        assert forward((x,), (QuantSpec(bits=4), "minmax", None, None))[1] is not None

    def test_subnormal_range_keeps_the_full_mask(self):
        """A subnormal scale has too few bits for the all-True proof: the
        mask is computed, and a value can fall outside it."""
        x = (np.array([91.0, 138.0, -130.0]) * 2.0**-149).astype(np.float32)
        spec = QuantSpec(bits=6, per_channel=False)
        _, ref_mask = reference_dynamic(x, spec, "minmax")
        out, mask = _FAKE_QUANT.forward((x,), (spec, "minmax", None, None))
        assert not ref_mask.all()
        assert mask is not None and np.array_equal(mask, ref_mask)

    def test_identity_vjp_passes_the_gradient_through(self):
        g = _grad_seed((3, 4))
        (idx, out), = list(FakeQuantOp().vjp(None, g, (True,)))
        assert idx == 0 and out is g

    def test_nan_propagates_with_zero_gradient(self):
        """A NaN input element gives a NaN output element and no gradient,
        as in :func:`fake_quantize` (an int32 code cannot hold NaN; the
        former round trip turned it into an arbitrary finite value)."""
        data = np.array([[0.5, -1.0, 2.0], [np.nan, 0.25, -0.75]], dtype=np.float32)
        for spec in (QuantSpec(bits=4), QuantSpec(bits=4, per_channel=False),
                     QuantSpec(bits=4, symmetric=False)):
            x = Tensor(data, requires_grad=True)
            out = fake_quant_ste(x, spec)
            assert np.isnan(out.data[1, 0])
            assert out.data.tobytes() == fake_quantize(data, spec).tobytes()
            out.backward(np.ones_like(out.data))
            assert x.grad[1, 0] == 0.0
        assert np.isnan(quantization_mse(data, QuantSpec(bits=4)))


class TestFrozenRange:
    @settings(max_examples=200, deadline=None)
    @given(quant_cases(), st.booleans())
    def test_requant_matches_reference(self, case, per_channel):
        spec, _, data = case
        calib = QuantSpec(bits=spec.bits, symmetric=spec.symmetric,
                          per_channel=per_channel, channel_axis=-1)
        scale, zero = calibrate(data.reshape(-1, data.shape[-1]), calib)
        ref_out, ref_mask = reference_frozen(data, scale, zero, spec)
        out, mask = _FAKE_QUANT.forward((data,), (spec, None, scale, zero))
        assert out.tobytes() == ref_out.tobytes()
        assert np.array_equal(mask, ref_mask)

        x = Tensor(data, requires_grad=True, dtype=data.dtype)
        y = _requant_with_ste(x, scale, zero, spec)
        assert y.data.tobytes() == ref_out.tobytes()
        g = _grad_seed(y.shape, seed=1)
        y.backward(g)
        expected = np.asarray(g * ref_mask, dtype=data.dtype)
        assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_zero_stays_positive_zero(bits):
    """rint gives -0.0 for small negatives; the int cast it replaced gave
    +0.0, and so must the Op."""
    x = np.array([[-1e-6, 1.0], [1.0, -1.0]], dtype=np.float32)
    out, _ = _FAKE_QUANT.forward((x,), (QuantSpec(bits=bits), "minmax", None, None))
    assert not np.signbit(out[0, 0]) and out[0, 0] == 0.0


class TestNumpyKernels:
    """``quantize``, ``fake_quantize``, MSE calibration's reconstruction
    error and grouped fake-quant share the op's grid and keep the bits
    of the integer round trip."""

    @settings(max_examples=200, deadline=None)
    @given(quant_cases())
    def test_codes_reconstruction_and_mse_match_reference(self, case):
        spec, method, x = case
        scale, zero = calibrate(x, spec, method=method)
        ref_q = old_quantize(x, scale, zero, spec)
        assert np.array_equal(quantize(x, scale, zero, spec), ref_q)
        ref = old_dequantize(ref_q, scale, zero)
        out = fake_quantize(x, spec, method=method)
        assert out.tobytes() == ref.tobytes()
        op_out, _ = _FAKE_QUANT.forward((x,), (spec, method, None, None))
        assert op_out.tobytes() == ref.tobytes()
        axes = _reduce_axes(x, spec)
        ref_mse = ((x - ref) ** 2).mean(axis=axes, keepdims=True)
        assert _quant_mse(x, scale, zero, spec).tobytes() == ref_mse.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(quant_cases(), st.integers(1, 3), st.data())
    def test_grouped_matches_reference(self, case, groups, data):
        spec, _, x = case
        axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
        x = np.concatenate([x] * groups, axis=axis)
        group_size = x.shape[axis] // groups
        moved = np.moveaxis(x, axis, 0)
        grouped = moved.reshape(groups, group_size, -1)
        lo = grouped.min(axis=1, keepdims=True).astype(np.float32)
        hi = grouped.max(axis=1, keepdims=True).astype(np.float32)
        scale, zero = scale_zero_from_range(lo, hi, spec)
        recon = old_dequantize(old_quantize(grouped, scale, zero, spec), scale, zero)
        ref = np.moveaxis(recon.reshape(moved.shape), 0, axis).astype(np.float32)
        out = fake_quantize_grouped(x, spec, group_size, axis=axis)
        assert out.tobytes() == ref.tobytes()
