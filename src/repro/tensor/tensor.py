"""Reverse-mode automatic differentiation on top of numpy.

This module is the computational substrate for the whole reproduction: the
paper's framework (layer-wise compression, truncated-backprop adaptation,
exit voting) needs a real deep-learning stack, and no GPU framework is
available offline, so we build one.  The design is a define-by-run tape of
*explicit VJP nodes*: every operation is an :class:`Op` with a pure
``forward`` and an explicit ``vjp`` (vector-Jacobian product), applied
through :func:`apply_op`, which records the node's parents, op, and saved
context on the output tensor.  :meth:`Tensor.backward` topologically sorts
the tape and runs the VJPs in reverse.

Because ops are explicit objects (not closures), the tape is inspectable:
:mod:`repro.tensor.graph` hooks :func:`apply_op` through a recorder to
capture whole forward+backward programs and replay them without re-tracing,
:mod:`repro.tensor.fusion` pattern-matches op chains, and
:mod:`repro.tensor.arena` lays replayed step outputs into slab views for
ops that support ``out=``.  Two closure node kinds remain: dropout
(:meth:`Tensor._make`; its forward draws from an external RNG), which
marks a capture in progress uncacheable, and gradient checkpointing,
whose backward re-runs its forward and which callers never capture.

Only float64/float32 numpy arrays are supported as differentiable data;
integer tensors (token ids, masks) flow through as constants.  Grad mode
and the graph recorder live in :mod:`contextvars`, so concurrent threads
(the serve scheduler, threaded test runs) cannot race each other's
``no_grad()`` scopes.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Thread/context-local grad mode (was a module global; contextvars make
# nested no_grad() scopes safe under concurrency).
_GRAD_ENABLED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)

# Active graph recorder (see repro.tensor.graph): observes every apply_op
# call in its context so forward+backward programs can be captured and
# replayed.  None when no capture is in progress.
_RECORDER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_graph_recorder", default=None
)

# Sentinel payload installed in place of a reclaimed activation buffer so
# stale reads fail loudly instead of returning garbage (see
# ``Tensor.backward(reclaim=True)``).
_RECLAIMED = np.empty(0, dtype=np.float32)

# Active tape observer (``repro.tensor.profiler``): notified when a node
# joins the tape and when its buffer is eagerly reclaimed during backward.
_TAPE_OBSERVER = None


def _set_tape_observer(observer):
    """Install ``observer`` (or None); returns the previous observer."""
    global _TAPE_OBSERVER
    previous = _TAPE_OBSERVER
    _TAPE_OBSERVER = observer
    return previous


def _set_recorder(recorder):
    """Install a graph recorder for this context; returns a reset token."""
    return _RECORDER.set(recorder)


def _reset_recorder(token) -> None:
    _RECORDER.reset(token)


def _active_recorder():
    """The graph recorder observing this context, or None."""
    return _RECORDER.get()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record to the autograd tape."""
    return _GRAD_ENABLED.get()


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Broadcasting may have (a) prepended axes and (b) stretched size-1 axes;
    the adjoint of a broadcast is a sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# explicit VJP ops
# ---------------------------------------------------------------------------
class Op:
    """One differentiable operation: a pure forward plus an explicit VJP.

    ``forward(inputs, attrs, out=None)`` consumes raw numpy arrays and
    returns ``(out_data, ctx)`` where ``ctx`` carries whatever the backward
    pass needs (saved activations, shapes).  ``vjp(ctx, grad, needs)``
    yields ``(parent_index, grad_array)`` pairs **in the exact order the
    historical closure implementations accumulated them**, so replacing the
    closures with ops is bitwise-invisible to training trajectories.

    Class flags drive the engine layers built on top:

    * ``differentiable`` — False for ops that always produce constants
      (comparisons); their outputs never join the tape.
    * ``elementwise`` — pure elementwise map; a candidate for chain fusion
      (see :mod:`repro.tensor.fusion`).
    * ``supports_out`` — ``forward`` can write into a caller-provided
      buffer (a step-slab view; see :mod:`repro.tensor.arena`) with
      bit-identical results.
    * ``cacheable`` — worth replaying from a captured graph; a recorder
      that sees a non-cacheable op refuses to store the capture (the
      fake-quant op of :mod:`repro.quant.qmodule`).
    """

    name = "op"
    differentiable = True
    elementwise = False
    supports_out = False
    cacheable = True

    def forward(self, inputs, attrs, out=None):
        raise NotImplementedError

    def vjp(self, ctx, grad, needs):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Op {self.name}>"


def _maybe_downcast(arr: np.ndarray, inputs) -> np.ndarray:
    """Mirror ``Tensor.__init__``'s float64→float32 coercion for op outputs.

    Historically every op output passed through ``Tensor(data)`` which
    downcast float64; we preserve that exactly *unless* a float64 parent is
    present (explicit ``dtype=np.float64`` tensors propagate, which the
    float64 gradcheck sweeps rely on).  Graph replay applies the same rule
    so replayed values stay bitwise identical to traced ones.
    """
    if arr.dtype == np.float64 and not any(
        d.dtype == np.float64 for d in inputs
    ):
        return arr.astype(np.float32)
    return arr


def apply_op(op: Op, parents: Sequence["Tensor"], attrs=None) -> "Tensor":
    """Run ``op`` on ``parents`` and tape an explicit VJP node if needed."""
    datas = tuple(p.data for p in parents)
    out_data, ctx = op.forward(datas, attrs)
    arr = _maybe_downcast(np.asarray(out_data), datas)
    out = Tensor(arr, dtype=arr.dtype)
    taped = (
        op.differentiable
        and _GRAD_ENABLED.get()
        and any(p.requires_grad for p in parents)
    )
    if taped:
        out.requires_grad = True
        out._parents = tuple(parents)
        out._op = op
        out._ctx = ctx
        if _TAPE_OBSERVER is not None:
            _TAPE_OBSERVER.on_record(out._data.nbytes)
    recorder = _RECORDER.get()
    if recorder is not None:
        recorder.record_op(op, attrs, parents, out, taped)
    return out


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Floating data defaults to float32.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    dtype:
        Optional explicit dtype.  When given, the payload is kept in (or
        cast to) exactly this dtype — in particular ``dtype=np.float64``
        suppresses the default float64→float32 coercion, which the
        numerical gradient checks use for high-precision sweeps.
    """

    __slots__ = (
        "_data",
        "_grad",
        "_grad_owned",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_op",
        "_ctx",
        "name",
        "_version",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
        dtype=None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            if arr.dtype != dtype:
                arr = arr.astype(dtype)
        elif arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        self._version = 0
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED.get()
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._op: Optional[Op] = None
        self._ctx = None
        self.name = name
        if self.requires_grad and not np.issubdtype(arr.dtype, np.floating):
            raise TypeError(
                f"only floating tensors can require grad, got dtype {arr.dtype}"
            )

    # ------------------------------------------------------------------
    # payload + version counter
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        if self._data is _RECLAIMED:
            raise RuntimeError(
                "tensor buffer was reclaimed by backward(reclaim=True); "
                "read the value before backward or keep eager reclamation off"
            )
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        # Every rebind of the payload (optimizer steps, state-dict loads,
        # GPTQ rewrites) bumps the version, which is what invalidates
        # folded effective-weight caches (see repro.nn.transforms) and
        # captured graphs (see repro.tensor.graph).
        self._data = value
        self._version += 1

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        # Externally assigned buffers have unknown aliasing, so the next
        # accumulation must not mutate them in place.
        self._grad = value
        self._grad_owned = False

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every ``.data`` rebind."""
        return self._version

    def bump_version(self) -> int:
        """Manually advance the version after an *in-place* ``.data`` edit.

        Assignments (``t.data = ...``) bump automatically; slicing edits
        (``t.data[...] = ...``) bypass the setter and must call this to
        invalidate any fold caches or captured graphs keyed on the tensor.
        """
        self._version += 1
        return self._version

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the tape."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), dtype=dtype)

    # ------------------------------------------------------------------
    # tape plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a legacy *closure* tape node.

        Kept for dropout, whose forward draws from an external RNG rather
        than a replayable input.  Closure nodes are opaque to graph
        capture: a recorder seeing one marks the graph uncacheable.
        """
        needs = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if needs:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            if _TAPE_OBSERVER is not None:
                _TAPE_OBSERVER.on_record(out._data.nbytes)
        recorder = _RECORDER.get()
        if recorder is not None:
            recorder.record_opaque(parents, out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self._data.dtype)
        if self._grad is None:
            if grad.base is not None:
                self._grad = grad.copy()
                self._grad_owned = True
            else:
                # Steal the buffer.  A sibling parent may have stolen the
                # very same array (e.g. ``z = x + y`` hands both parents the
                # identical grad), so it must never be mutated in place.
                self._grad = grad
                self._grad_owned = False
            if _TAPE_OBSERVER is not None:
                _TAPE_OBSERVER.on_grad_alloc(self._grad.nbytes)
        elif self._grad_owned:
            self._grad += grad
        else:
            self._grad = self._grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[np.ndarray] = None, reclaim: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be supplied for non-scalar
        outputs only if a non-trivial seed is wanted).

        With ``reclaim=True`` every interior node's forward buffer is
        dropped as soon as its VJP has consumed it, so peak memory during
        backward stays near the deepest live frontier rather than the
        whole tape.  Reading ``.data`` of a reclaimed node afterwards
        raises; leaves and the root are never reclaimed.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        observer = _TAPE_OBSERVER
        for node in reversed(topo):
            op = node._op
            if (op is not None or node._backward_fn is not None) and node._grad is not None:
                if op is not None:
                    parents = node._parents
                    needs = tuple(p.requires_grad for p in parents)
                    for idx, g in op.vjp(node._ctx, node._grad, needs):
                        parents[idx]._accumulate(g)
                else:
                    node._backward_fn(node._grad)
                # Free interior gradients and the node's saved state to
                # bound memory.
                if node is not self:
                    if observer is not None:
                        observer.on_grad_free(node._grad.nbytes)
                    node.grad = None
                    if reclaim:
                        # The saved ctx (dropped below) held the last use of
                        # this node's forward output; parents still pending
                        # only ever read their *own* parents' buffers.
                        if observer is not None:
                            observer.on_free(node._data.nbytes)
                        node._data = _RECLAIMED
                node._backward_fn = None
                node._op = None
                node._ctx = None
                node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_ADD, (self, _ensure_tensor(other)))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_SUB, (self, _ensure_tensor(other)))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_MUL, (self, _ensure_tensor(other)))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_DIV, (self, _ensure_tensor(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return apply_op(_NEG, (self,))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        return apply_op(_POW, (self,), exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_MATMUL, (self, _ensure_tensor(other)))

    # comparisons produce constant (non-differentiable) tensors
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_COMPARE, (self, _ensure_tensor(other)), "gt")

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_COMPARE, (self, _ensure_tensor(other)), "lt")

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_COMPARE, (self, _ensure_tensor(other)), "ge")

    def __le__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_COMPARE, (self, _ensure_tensor(other)), "le")

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_RESHAPE, (self,), tuple(shape))

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_t = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        return apply_op(_TRANSPOSE, (self,), axes_t)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        return apply_op(_SWAPAXES, (self,), (axis1, axis2))

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        return apply_op(_GETITEM, (self,), index)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_SUM, (self,), (axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_MAX, (self,), (axis, keepdims))

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply_op(_EXP, (self,))

    def log(self) -> "Tensor":
        return apply_op(_LOG, (self,))

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        return apply_op(_TANH, (self,))

    def sigmoid(self) -> "Tensor":
        return apply_op(_SIGMOID, (self,))

    def relu(self) -> "Tensor":
        return apply_op(_RELU, (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        return apply_op(_CLIP, (self,), (low, high))


# ---------------------------------------------------------------------------
# op implementations
#
# Each vjp yields (parent_index, grad) pairs in the exact order the former
# closure implementation called ``_accumulate``, computing the same numpy
# expressions — the refactor is bitwise-invisible to gradients.
# ---------------------------------------------------------------------------
class AddOp(Op):
    name = "add"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a, b = inputs
        return np.add(a, b, out=out), (a.shape, b.shape)

    def vjp(self, ctx, grad, needs):
        sa, sb = ctx
        if needs[0]:
            yield 0, _unbroadcast(grad, sa)
        if needs[1]:
            yield 1, _unbroadcast(grad, sb)


class SubOp(Op):
    name = "sub"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a, b = inputs
        return np.subtract(a, b, out=out), (a.shape, b.shape)

    def vjp(self, ctx, grad, needs):
        sa, sb = ctx
        if needs[0]:
            yield 0, _unbroadcast(grad, sa)
        if needs[1]:
            yield 1, _unbroadcast(-grad, sb)


class MulOp(Op):
    name = "mul"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a, b = inputs
        return np.multiply(a, b, out=out), (a, b)

    def vjp(self, ctx, grad, needs):
        a, b = ctx
        if needs[0]:
            yield 0, _unbroadcast(grad * b, a.shape)
        if needs[1]:
            yield 1, _unbroadcast(grad * a, b.shape)


class DivOp(Op):
    name = "div"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a, b = inputs
        return np.divide(a, b, out=out), (a, b)

    def vjp(self, ctx, grad, needs):
        a, b = ctx
        if needs[0]:
            yield 0, _unbroadcast(grad / b, a.shape)
        if needs[1]:
            yield 1, _unbroadcast(-grad * a / (b**2), b.shape)


class NegOp(Op):
    name = "neg"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        return np.negative(inputs[0], out=out), None

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, -grad


class PowOp(Op):
    # ``a ** e`` keeps the ndarray.__pow__ fast paths (e.g. sqrt for 0.5),
    # which np.power(..., out=) would not hit bit-identically.
    name = "pow"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        a = inputs[0]
        return a**attrs, (a, attrs)

    def vjp(self, ctx, grad, needs):
        a, exponent = ctx
        if needs[0]:
            yield 0, grad * exponent * a ** (exponent - 1)


class MatmulOp(Op):
    name = "matmul"
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a, b = inputs
        if out is not None and a.ndim >= 2 and b.ndim >= 2:
            return np.matmul(a, b, out=out), (a, b)
        return a @ b, (a, b)

    def vjp(self, ctx, grad, needs):
        a, b = ctx
        if needs[0]:
            if b.ndim == 1:
                ga = np.outer(grad, b) if grad.ndim == 1 else np.expand_dims(
                    grad, -1
                ) * b
                if a.ndim == 1:
                    ga = grad * b
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
            yield 0, _unbroadcast(np.asarray(ga), a.shape)
        if needs[1]:
            if a.ndim == 1:
                gb = np.outer(a, grad)
                if b.ndim == 1:
                    gb = a * grad
            else:
                gb = np.swapaxes(a, -1, -2) @ grad
            yield 1, _unbroadcast(np.asarray(gb), b.shape)


class CompareOp(Op):
    name = "compare"
    differentiable = False
    elementwise = True

    _FNS = {
        "gt": np.greater,
        "lt": np.less,
        "ge": np.greater_equal,
        "le": np.less_equal,
    }

    def forward(self, inputs, attrs, out=None):
        return self._FNS[attrs](inputs[0], inputs[1]), None

    def vjp(self, ctx, grad, needs):
        return ()


class ReshapeOp(Op):
    name = "reshape"

    def forward(self, inputs, attrs, out=None):
        a = inputs[0]
        return a.reshape(attrs), a.shape

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad.reshape(ctx)


_INVERSE_PERMS: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


class TransposeOp(Op):
    name = "transpose"

    def forward(self, inputs, attrs, out=None):
        inverse = _INVERSE_PERMS.get(attrs)
        if inverse is None:
            inverse = _INVERSE_PERMS[attrs] = tuple(np.argsort(attrs))
        return inputs[0].transpose(attrs), inverse

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad.transpose(ctx)


class SwapaxesOp(Op):
    name = "swapaxes"

    def forward(self, inputs, attrs, out=None):
        axis1, axis2 = attrs
        return np.swapaxes(inputs[0], axis1, axis2), attrs

    def vjp(self, ctx, grad, needs):
        axis1, axis2 = ctx
        if needs[0]:
            yield 0, np.swapaxes(grad, axis1, axis2)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is a numpy *basic* index (ints, slices, Ellipsis,
    None), which addresses each element at most once."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        i is None
        or i is Ellipsis
        or isinstance(i, slice)
        or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
        for i in items
    )


class GetitemOp(Op):
    name = "getitem"

    def forward(self, inputs, attrs, out=None):
        a = inputs[0]
        return a[attrs], (attrs, a.shape, a.dtype)

    def vjp(self, ctx, grad, needs):
        index, shape, dtype = ctx
        if needs[0]:
            full = np.zeros(shape, dtype=dtype)
            if _is_basic_index(index):
                # No element repeats, so an in-place add into the view
                # computes exactly the 0.0 + g that add.at would.
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            yield 0, full


class SumOp(Op):
    name = "sum"

    def forward(self, inputs, attrs, out=None):
        axis, keepdims = attrs
        a = inputs[0]
        out_data = a.sum(axis=axis, keepdims=keepdims)
        return out_data, (a.shape, a.dtype, axis, keepdims)

    def vjp(self, ctx, grad, needs):
        shape, dtype, axis, keepdims = ctx
        if needs[0]:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            yield 0, np.broadcast_to(g, shape).astype(dtype)


class MaxOp(Op):
    name = "max"

    def forward(self, inputs, attrs, out=None):
        axis, keepdims = attrs
        a = inputs[0]
        out_data = a.max(axis=axis, keepdims=keepdims)
        return out_data, (a, out_data, axis, keepdims)

    def vjp(self, ctx, grad, needs):
        a, out_data, axis, keepdims = ctx
        if needs[0]:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (a == out).astype(a.dtype)
            # Split gradient evenly across ties for a well-defined adjoint.
            counts = (
                mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            )
            yield 0, mask * g / counts


class ExpOp(Op):
    name = "exp"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        out_data = np.exp(inputs[0], out=out)
        return out_data, out_data

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad * ctx


class LogOp(Op):
    name = "log"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a = inputs[0]
        return np.log(a, out=out), a

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad / ctx


class TanhOp(Op):
    name = "tanh"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        out_data = np.tanh(inputs[0], out=out)
        return out_data, out_data

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad * (1.0 - ctx**2)


class SigmoidOp(Op):
    name = "sigmoid"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        # tanh-based form avoids exp overflow for large |x|.
        out_data = 0.5 * (1.0 + np.tanh(0.5 * inputs[0]))
        return out_data, out_data

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad * ctx * (1.0 - ctx)


class ReluOp(Op):
    name = "relu"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        a = inputs[0]
        mask = a > 0
        return np.multiply(a, mask, out=out), mask

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad * ctx


class ClipOp(Op):
    name = "clip"
    elementwise = True
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        low, high = attrs
        a = inputs[0]
        out_data = np.clip(a, low, high, out=out)
        mask = ((a >= low) & (a <= high)).astype(a.dtype)
        return out_data, mask

    def vjp(self, ctx, grad, needs):
        if needs[0]:
            yield 0, grad * ctx


class ConcatOp(Op):
    name = "concat"
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        axis = attrs
        if out is not None:
            out_data = np.concatenate(inputs, axis=axis, out=out)
        else:
            out_data = np.concatenate(inputs, axis=axis)
        sizes = [a.shape[axis] for a in inputs]
        offsets = np.cumsum([0] + sizes)
        return out_data, (axis, offsets)

    def vjp(self, ctx, grad, needs):
        axis, offsets = ctx
        for i, need in enumerate(needs):
            if need:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
                yield i, grad[tuple(slicer)]


class StackOp(Op):
    name = "stack"

    def forward(self, inputs, attrs, out=None):
        return np.stack(inputs, axis=attrs), attrs

    def vjp(self, ctx, grad, needs):
        axis = ctx
        for i, need in enumerate(needs):
            if need:
                yield i, np.take(grad, i, axis=axis)


class WhereOp(Op):
    """Select ``a`` where condition else ``b``; parent 0 is the condition
    (a constant input, so replayed graphs see fresh condition values)."""

    name = "where"

    def forward(self, inputs, attrs, out=None):
        cond = inputs[0].astype(bool)
        a, b = inputs[1], inputs[2]
        return np.where(cond, a, b), (cond, a.shape, b.shape)

    def vjp(self, ctx, grad, needs):
        cond, sa, sb = ctx
        if needs[1]:
            yield 1, _unbroadcast(grad * cond, sa)
        if needs[2]:
            yield 2, _unbroadcast(grad * (~cond), sb)


_ADD = AddOp()
_SUB = SubOp()
_MUL = MulOp()
_DIV = DivOp()
_NEG = NegOp()
_POW = PowOp()
_MATMUL = MatmulOp()
_COMPARE = CompareOp()
_RESHAPE = ReshapeOp()
_TRANSPOSE = TransposeOp()
_SWAPAXES = SwapaxesOp()
_GETITEM = GetitemOp()
_SUM = SumOp()
_MAX = MaxOp()
_EXP = ExpOp()
_LOG = LogOp()
_TANH = TanhOp()
_SIGMOID = SigmoidOp()
_RELU = ReluOp()
_CLIP = ClipOp()
_CONCAT = ConcatOp()
_STACK = StackOp()
_WHERE = WhereOp()


def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [_ensure_tensor(t) for t in tensors]
    return apply_op(_CONCAT, tensors, axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [_ensure_tensor(t) for t in tensors]
    return apply_op(_STACK, tensors, axis)


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable elementwise select: ``condition ? a : b``."""
    cond = _ensure_tensor(condition)
    return apply_op(_WHERE, (cond, _ensure_tensor(a), _ensure_tensor(b)))
