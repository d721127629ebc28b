"""Composable Linear transforms with effective-weight folding.

This module replaces the old zoo of ad-hoc Linear wrappers
(``CompressedLinear``, ``PrunedLinear``, ``QuantLinear``, ``LoRALinear``,
``BottleneckAdapter``, ``_RecordingLinear``) with one engine:

* a :class:`Transform` is a small module that rewrites the layer's weight
  (``PruneMask``, ``FakeQuantSTE``), its input (``InputQuant``,
  ``InputCapture``), or its output (``LoRADelta``, ``AdapterDelta``);
* a :class:`TransformedLinear` owns an *ordered* pipeline of transforms
  and runs ``input transforms -> x @ effective_weight + bias -> output
  transforms`` on every forward.

Because LUC's weight transforms (mask -> fake-quant) are pure functions
of the master weight, their composition can be **folded** into a cached
effective weight whenever no gradient needs to flow back into the master
copy — i.e. during eval, sensitivity profiling, voting calibration, and
the frozen prefix below the adaptive tuning window.  The cache is keyed
on the master weight's :attr:`repro.tensor.Tensor.version` counter plus a
per-transform cache token, so optimizer steps, state-dict loads, and mask
swaps invalidate it automatically.  In-place ``.data[...]`` edits bypass
the counter and must call ``Tensor.bump_version()`` (or
:meth:`TransformedLinear.invalidate_fold_cache`).

Fold-cache hits and misses are counted on the active
:mod:`repro.obs` registry under ``nn/fold/hits`` and ``nn/fold/misses``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..obs import get_registry
from ..tensor import Tensor, is_grad_enabled, no_grad, silu
from ..tensor.tensor import _active_recorder
from .module import Module, ModuleList, Parameter

_FOLD_ENABLED = True


def fold_enabled() -> bool:
    """Whether effective-weight folding is globally enabled."""
    return _FOLD_ENABLED


def set_fold_enabled(flag: bool) -> bool:
    """Toggle folding process-wide; returns the previous setting."""
    global _FOLD_ENABLED
    previous = _FOLD_ENABLED
    _FOLD_ENABLED = bool(flag)
    return previous


@contextlib.contextmanager
def fold_disabled() -> Iterator[None]:
    """Force the unfolded (recompute-every-forward) path in a scope."""
    previous = set_fold_enabled(False)
    try:
        yield
    finally:
        set_fold_enabled(previous)


class Transform(Module):
    """One stage of a :class:`TransformedLinear` pipeline.

    Subclasses override any of the three hooks.  ``weight_transform``
    marks the transform as acting on the weight; ``folds`` additionally
    promises the weight hook is a pure function of ``(master weight,
    internal state)`` so its result may be cached (see the folding
    contract in the module docstring).
    """

    weight_transform = False
    folds = False

    def __init__(self):
        super().__init__()
        self._state_version = 0

    def invalidate(self) -> None:
        """Bump the state version after an in-place internal-state edit."""
        self._state_version += 1

    def cache_token(self) -> Tuple:
        """Hashable token folded into the effective-weight cache key."""
        return (id(self), self._state_version)

    # -- hooks ---------------------------------------------------------
    def transform_weight(self, w: Tensor) -> Tensor:
        return w

    def transform_input(self, x: Tensor) -> Tensor:
        return x

    def transform_output(self, y: Tensor, x: Tensor) -> Tensor:
        return y


class PruneMask(Transform):
    """Elementwise weight mask.  ``d(w*m)/dw = m``: pruned coordinates
    get zero gradient, so they stay pruned through subsequent tuning."""

    weight_transform = True
    folds = True

    def __init__(self, mask: np.ndarray):
        super().__init__()
        self.register_buffer("mask", np.asarray(mask, dtype=np.float32))

    def set_mask(self, mask: np.ndarray) -> None:
        self.register_buffer("mask", np.asarray(mask, dtype=np.float32))
        self.invalidate()

    @property
    def sparsity(self) -> float:
        return float(1.0 - self.mask.sum() / self.mask.size)

    def cache_token(self) -> Tuple:
        # id(mask) covers buffer replacement (e.g. load_state_dict);
        # _state_version covers explicit invalidation after in-place edits.
        return (id(self), id(self.mask), self._state_version)

    def transform_weight(self, w: Tensor) -> Tensor:
        return w * Tensor(self.mask)

    def extra_repr(self) -> str:
        return f"sparsity={self.sparsity:.2f}"


class FakeQuantSTE(Transform):
    """Straight-through fake weight quantization at a fixed spec."""

    weight_transform = True
    folds = True

    def __init__(self, spec, method: str = "minmax"):
        super().__init__()
        self.spec = spec
        self.method = method

    def cache_token(self) -> Tuple:
        return (id(self), self.spec, self.method, self._state_version)

    def transform_weight(self, w: Tensor) -> Tensor:
        from ..quant.qmodule import fake_quant_ste

        return fake_quant_ste(w, self.spec, method=self.method)

    def extra_repr(self) -> str:
        return f"bits={self.spec.bits}, method={self.method}"


class InputQuant(Transform):
    """Activation fake-quantization, dynamic per batch by default.

    :meth:`calibrate` freezes (scale, zero) from a calibration sample,
    after which forwards reuse the frozen range (the deployment-shaped
    path the old ``QuantLinear`` exposed).
    """

    def __init__(self, spec, method: str = "minmax"):
        super().__init__()
        self.spec = spec
        self.method = method
        self.scale: Optional[np.ndarray] = None
        self.zero: Optional[np.ndarray] = None

    def calibrate(self, sample: np.ndarray) -> None:
        from ..quant.quantizer import calibrate

        flat = sample.reshape(-1, sample.shape[-1])
        self.scale, self.zero = calibrate(flat, self.spec, method=self.method)

    def transform_input(self, x: Tensor) -> Tensor:
        if self.spec.bits >= 16:
            return x
        from ..quant.qmodule import _requant_with_ste, fake_quant_ste
        from ..quant.quantizer import dequantize, quantize

        if self.scale is not None:
            if x.requires_grad:
                return _requant_with_ste(x, self.scale, self.zero, self.spec)
            q = quantize(x.data, self.scale, self.zero, self.spec)
            return Tensor(dequantize(q, self.scale, self.zero))
        return fake_quant_ste(x, self.spec, method=self.method)

    def extra_repr(self) -> str:
        frozen = ", frozen" if self.scale is not None else ""
        return f"bits={self.spec.bits}{frozen}"


class LoRADelta(Transform):
    """Low-rank residual ``y + (x @ A @ B) * scaling`` (LoRA)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: int = 4,
        alpha: float = 8.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.rank = rank
        self.scaling = alpha / rank
        # A ~ N(0, 1/r), B = 0: the adapter starts as the identity update.
        self.lora_a = Parameter(
            (rng.standard_normal((in_features, rank)) / np.sqrt(rank)).astype(
                np.float32
            )
        )
        self.lora_b = Parameter(np.zeros((rank, out_features), dtype=np.float32))

    def transform_output(self, y: Tensor, x: Tensor) -> Tensor:
        update = (x @ self.lora_a) @ self.lora_b
        return y + update * self.scaling

    def merged_delta(self) -> np.ndarray:
        """The dense weight update this delta is equivalent to."""
        return self.scaling * (self.lora_a.data @ self.lora_b.data)

    def extra_repr(self) -> str:
        return f"rank={self.rank}, scaling={self.scaling:g}"


class AdapterDelta(Transform):
    """Houlsby-style bottleneck residual ``y + up(silu(y @ down))``."""

    def __init__(
        self,
        dim: int,
        bottleneck: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if bottleneck < 1:
            raise ValueError("bottleneck must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.bottleneck = bottleneck
        self.down = Parameter(
            (rng.standard_normal((dim, bottleneck)) / np.sqrt(dim)).astype(np.float32)
        )
        self.up = Parameter(np.zeros((bottleneck, dim), dtype=np.float32))

    def transform_output(self, y: Tensor, x: Tensor) -> Tensor:
        return y + (silu(y @ self.down) @ self.up)

    def extra_repr(self) -> str:
        return f"bottleneck={self.bottleneck}"


class InputCapture(Transform):
    """Pass-through that stashes every input it sees (GPTQ calibration)."""

    def __init__(self):
        super().__init__()
        self.captured: List[np.ndarray] = []

    def transform_input(self, x: Tensor) -> Tensor:
        self.captured.append(x.data.reshape(-1, x.shape[-1]).copy())
        return x

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.captured, axis=0)


class _TransformsUndo:
    """Undo token restoring a wrapper's exact previous transform list."""

    __slots__ = ("wrapper", "previous")

    def __init__(self, wrapper: "TransformedLinear", previous: List[Transform]):
        self.wrapper = wrapper
        self.previous = previous

    def restore(self) -> None:
        self.wrapper._set_transforms(self.previous)


class TransformedLinear(Module):
    """A Linear under an ordered, composable transform pipeline.

    Forward: input transforms (in list order) -> ``x @ effective_weight``
    -> ``+ bias`` -> output transforms (in list order).  Weight transforms
    compose in list order to build the effective weight; when every one
    of them folds and no gradient can reach the master weight, the folded
    weight is cached (see the module docstring for the invalidation
    contract).
    """

    def __init__(self, inner: Module, transforms: Sequence[Transform] = ()):
        super().__init__()
        self.inner = inner
        self.transforms = ModuleList(list(transforms))
        self._fold_key = None
        self._fold_weight: Optional[Tensor] = None

    # -- delegation ----------------------------------------------------
    @property
    def weight(self):
        return self.inner.weight

    @property
    def bias(self):
        return self.inner.bias

    @property
    def in_features(self) -> int:
        return self.inner.in_features

    @property
    def out_features(self) -> int:
        return self.inner.out_features

    # -- pipeline management -------------------------------------------
    def find(self, cls: Type[Transform]) -> Optional[Transform]:
        """First transform of (exactly or a subclass of) ``cls``, if any."""
        for t in self.transforms:
            if isinstance(t, cls):
                return t
        return None

    def _set_transforms(self, transforms: Sequence[Transform]) -> None:
        self.transforms = ModuleList(list(transforms))
        self.invalidate_fold_cache()

    def attach(
        self,
        *new: Transform,
        replace: bool = True,
        index: Optional[int] = None,
    ) -> _TransformsUndo:
        """Add transforms; with ``replace`` (default) an existing transform
        of the same concrete class is swapped out instead of stacked, which
        makes repeated ``apply_*`` calls idempotent.  Returns an undo token
        restoring the exact previous pipeline."""
        token = _TransformsUndo(self, list(self.transforms))
        kept = [
            t
            for t in self.transforms
            if not (replace and any(type(t) is type(n) for n in new))
        ]
        if index is None:
            final = kept + list(new)
        else:
            final = kept[:index] + list(new) + kept[index:]
        self._set_transforms(final)
        return token

    def replace_group(
        self,
        group: Tuple[Type[Transform], ...],
        new: Sequence[Transform],
        index: int = 0,
    ) -> _TransformsUndo:
        """Replace *every* transform of the given classes with ``new``
        (inserted at ``index``), keeping all others in place."""
        token = _TransformsUndo(self, list(self.transforms))
        kept = [t for t in self.transforms if not isinstance(t, tuple(group))]
        self._set_transforms(kept[:index] + list(new) + kept[index:])
        return token

    def detach(self, *targets) -> _TransformsUndo:
        """Remove transforms by instance or by class; returns undo token."""
        token = _TransformsUndo(self, list(self.transforms))

        def drop(t: Transform) -> bool:
            for sel in targets:
                if isinstance(sel, type):
                    if isinstance(t, sel):
                        return True
                elif t is sel:
                    return True
            return False

        self._set_transforms([t for t in self.transforms if not drop(t)])
        return token

    # -- effective weight + folding ------------------------------------
    def weight_transforms(self) -> List[Transform]:
        return [t for t in self.transforms if t.weight_transform]

    def effective_weight(self) -> Tensor:
        """Weight after all weight transforms (tape-recording when live)."""
        w = self.inner.weight
        for t in self.transforms:
            if t.weight_transform:
                w = t.transform_weight(w)
        return w

    def invalidate_fold_cache(self) -> None:
        self._fold_key = None
        self._fold_weight = None

    def _forward_weight(self) -> Tensor:
        wts = self.weight_transforms()
        if not wts:
            return self.inner.weight
        master = self.inner.weight
        if (
            not _FOLD_ENABLED
            or not all(t.folds for t in wts)
            or (is_grad_enabled() and master.requires_grad)
        ):
            self._guard_capture(None)
            return self.effective_weight()
        key = (id(master), master.version, tuple(t.cache_token() for t in wts))
        if key == self._fold_key and self._fold_weight is not None:
            get_registry().counter("nn/fold/hits").inc()
        else:
            get_registry().counter("nn/fold/misses").inc()
            with no_grad():
                self._fold_weight = Tensor(self.effective_weight().data)
            self._fold_key = key
        self._guard_capture(self._fold_weight)
        return self._fold_weight

    def _pipeline_token(self) -> Tuple:
        """The master weight's identity plus every transform's cache token."""
        return (id(self.inner.weight), tuple(t.cache_token() for t in self.transforms))

    def _guard_capture(self, folded: Optional[Tensor]) -> None:
        """If a graph capture is in flight, pin what this forward baked in.

        A replay re-reads leaf arrays but never re-runs this method, so
        the graph must fail validation once the pipeline or any
        transform's state changes (``set_mask``, a new quant spec): the
        unfolded path's transform constants are leaves of the capture.
        With ``folded`` (the folded weight entered the capture as a
        leaf), the graph must also fail once the master weight moves or
        the fold cache is dropped, or a replay would serve the stale
        fold."""
        recorder = _active_recorder()
        if recorder is None:
            return
        token = self._pipeline_token()
        if folded is None:
            recorder.add_guard(lambda: self._pipeline_token() == token)
            return
        version = self.inner.weight.version
        recorder.add_guard(
            lambda: self._fold_weight is folded
            and self.inner.weight.version == version
            and self._pipeline_token() == token
        )

    # -- convenience views ---------------------------------------------
    @property
    def prune_mask(self) -> Optional[np.ndarray]:
        t = self.find(PruneMask)
        return None if t is None else t.mask

    @property
    def sparsity(self) -> float:
        mask = self.prune_mask
        if mask is None:
            return 0.0
        return float(1.0 - mask.sum() / mask.size)

    @property
    def quant_bits(self) -> int:
        t = self.find(FakeQuantSTE)
        return 16 if t is None else t.spec.bits

    # -- forward -------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        for t in self.transforms:
            x = t.transform_input(x)
        out = x @ self._forward_weight()
        if self.inner.bias is not None:
            out = out + self.inner.bias
        for t in self.transforms:
            out = t.transform_output(out, x)
        return out

    def extra_repr(self) -> str:
        names = ", ".join(type(t).__name__ for t in self.transforms)
        return f"transforms=[{names}]"
