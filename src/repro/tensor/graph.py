"""Graph capture and replay for the explicit-VJP tape.

Tracing a train step or a decode step through the Python tape costs far
more than the numpy kernels it launches at edge-model sizes: every op
builds a ``Tensor``, consults grad mode, and registers tape state.  But
the adaptation loop and the decode loop run the *same* program thousands
of times — only the input values change.  This module captures that
program once and replays it as a flat list of ``op.forward`` /
``op.vjp`` calls over raw numpy arrays.

Capture
-------
A :class:`GraphRecorder` installs itself as the tape's recorder
(contextvar-scoped) and observes every :func:`~repro.tensor.tensor.apply_op`
call.  Tensors are classified into *slots*:

* **inputs** — declared by the caller (token ids, activations, masks);
  replays supply fresh arrays for these.
* **leaves** — every other tensor entering the graph from outside
  (parameters, buffers, constants).  Their values are read fresh from the
  live tensor at each replay, so optimizer updates flow through without
  re-capture.
* **steps** — op outputs, produced in recorded order.

Validation and invalidation
---------------------------
A captured graph bakes *structure*, never parameter values.  At lookup
time the graph re-validates every leaf: shape, dtype, and
``requires_grad`` must match capture time, and — for leaves *not* declared
mutable — the tensor ``version`` counter must be unchanged.  Trainers
declare their optimizer-managed parameters mutable (steps rebind
``.data`` every iteration); everything else is strict, so a
``bump_version`` from a LoRA merge, GPTQ rewrite, or layer slicing
invalidates exactly the graphs that touched that weight.  Arbitrary
``guards`` (e.g. fold-cache identity checks from ``repro.nn.transforms``)
ride along in the same check.

Replay
------
``Graph.replay`` walks the recorded steps over a flat value table, then
optionally runs the recorded backward program — a mirror of
``Tensor.backward``'s DFS order with identical accumulation semantics, so
replayed gradients are bitwise equal to traced ones.  A dropout closure
node or a non-cacheable op (fake-quant) marks a capture uncacheable: such
graphs are never stored.  Gradient-checkpointed steps are never captured.

Memory
------
A graph holds only what a replay reads.  With the arena on, step outputs
are views into the step slab of the graph's :class:`GraphCache` (see
:mod:`repro.tensor.arena`): one buffer per cache, sized to its largest
graph, so a cache of many graphs costs one graph's step memory.  Outputs
that live in the slab are copied out before a replay returns.  Input
leaves are held weakly: every replay supplies fresh arrays, so the
capture-time inputs die with their last outside reference, and they are
validated only while something else keeps them alive.
"""

from __future__ import annotations

import contextlib
import contextvars
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from .arena import SlabLayout, StepSlab, arena_enabled
from .tensor import (
    _RECLAIMED,
    Op,
    Tensor,
    _reset_recorder,
    _set_recorder,
)

_CAPTURE_ENABLED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_graph_capture", default=True
)


def graph_capture_enabled() -> bool:
    """Whether trainer/engine integrations should capture and replay graphs."""
    return _CAPTURE_ENABLED.get()


def set_graph_capture(enabled: bool) -> bool:
    """Enable/disable graph capture for this context; returns previous value."""
    previous = _CAPTURE_ENABLED.get()
    _CAPTURE_ENABLED.set(bool(enabled))
    return previous


@contextlib.contextmanager
def graph_capture(enabled: bool = True):
    """Context manager scoping the graph-capture toggle."""
    token = _CAPTURE_ENABLED.set(bool(enabled))
    try:
        yield
    finally:
        _CAPTURE_ENABLED.reset(token)


class _Step:
    """One recorded op application (slot-indexed, tensor-free)."""

    __slots__ = (
        "op",
        "attrs",
        "parents",
        "out",
        "taped",
        "out_shape",
        "out_dtype",
        "index",
    )

    def __init__(self, op, attrs, parents, out, taped, out_shape, out_dtype):
        self.op = op
        self.attrs = attrs
        self.parents = parents
        self.out = out
        self.taped = taped
        self.out_shape = out_shape
        self.out_dtype = out_dtype
        self.index = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<step {self.op.name} {self.parents}->{self.out}"
            f" {'taped' if self.taped else 'const'}>"
        )


class _Leaf:
    """A non-step slot: a live tensor read fresh at every replay.

    A graph holds its input leaves' tensors weakly (``ref``), since each
    replay supplies those slots' arrays itself."""

    __slots__ = (
        "slot", "tensor", "ref", "version", "requires_grad", "mutable",
        "shape", "dtype",
    )

    def __init__(self, slot, tensor, mutable):
        self.slot = slot
        self.tensor = tensor
        self.ref = None
        self.version = tensor._version
        self.requires_grad = tensor.requires_grad
        self.mutable = mutable
        self.shape = tensor._data.shape
        self.dtype = tensor._data.dtype

    def weaken(self) -> None:
        """Hold the tensor weakly from now on."""
        self.ref = weakref.ref(self.tensor)
        self.tensor = None

    def matches(self, t: Tensor) -> bool:
        """Whether ``t`` still looks as it did at capture time."""
        d = t._data
        return not (
            d is _RECLAIMED
            or t.requires_grad != self.requires_grad
            or d.shape != self.shape
            or d.dtype != self.dtype
            or (not self.mutable and t._version != self.version)
        )


class GraphRecorder:
    """Observes ``apply_op`` calls in its context and builds a :class:`Graph`.

    Parameters
    ----------
    mutable:
        Tensors whose ``version`` may advance between replays without
        invalidating the graph (optimizer-managed parameters; their data
        is read fresh at replay).  All other leaves validate strictly.
    """

    def __init__(self, mutable: Sequence[Tensor] = ()):
        self.nslots = 0
        self.leaves: List[_Leaf] = []
        self.steps: List[_Step] = []
        self.cacheable = True
        self.guards: List[Callable[[], bool]] = []
        self._by_tid: Dict[int, int] = {}
        self._by_aid: Dict[int, int] = {}
        # Strong refs for the capture's duration: without them, transient
        # tensors are collected mid-trace and id() values get recycled,
        # corrupting the slot maps.
        self._keep: List[Tensor] = []
        self._mutable_ids = {id(t) for t in mutable}
        self._inputs: List[int] = []
        self._rg: List[bool] = []
        self._token = None

    # -- context management -------------------------------------------------
    def __enter__(self) -> "GraphRecorder":
        self._token = _set_recorder(self)
        return self

    def __exit__(self, *exc) -> None:
        _reset_recorder(self._token)
        self._token = None

    # -- slot bookkeeping ---------------------------------------------------
    def _register(self, tensor: Tensor, slot: int) -> None:
        self._by_tid[id(tensor)] = slot
        self._by_aid[id(tensor._data)] = slot
        self._keep.append(tensor)

    def _new_leaf(self, tensor: Tensor) -> int:
        slot = self.nslots
        self.nslots += 1
        self.leaves.append(_Leaf(slot, tensor, id(tensor) in self._mutable_ids))
        self._rg.append(tensor.requires_grad)
        self._register(tensor, slot)
        return slot

    def _lookup(self, tensor: Tensor) -> Optional[int]:
        slot = self._by_tid.get(id(tensor))
        if slot is None:
            # Rewrapped tensors (``Tensor(x.data)`` tape cuts) share the
            # producing slot's array object.
            slot = self._by_aid.get(id(tensor._data))
            if slot is not None:
                self._by_tid[id(tensor)] = slot
                self._keep.append(tensor)
        return slot

    def add_input(self, tensor: Tensor) -> Tensor:
        """Declare ``tensor`` as a dynamic graph input; returns it."""
        slot = self._lookup(tensor)
        if slot is None:
            slot = self._new_leaf(tensor)
        self._inputs.append(slot)
        return tensor

    def add_guard(self, guard: Callable[[], bool]) -> None:
        """Attach an extra validity predicate checked at every lookup."""
        self.guards.append(guard)

    # -- tape hooks (called from apply_op / Tensor._make) -------------------
    def record_op(self, op: Op, attrs, parents, out: Tensor, taped: bool) -> None:
        if not op.cacheable:
            self.cacheable = False
        pslots = []
        for p in parents:
            slot = self._lookup(p)
            if slot is None:
                slot = self._new_leaf(p)
            pslots.append(slot)
        out_slot = self.nslots
        self.nslots += 1
        self._rg.append(taped)
        self._register(out, out_slot)
        self.steps.append(
            _Step(
                op,
                attrs,
                tuple(pslots),
                out_slot,
                taped,
                out._data.shape,
                out._data.dtype,
            )
        )

    def record_opaque(self, parents, out: Tensor) -> None:
        # A closure node (dropout, the one Tensor._make caller) has no
        # replayable structure; poison the capture.
        self.cacheable = False

    # -- finalize -----------------------------------------------------------
    def finalize(
        self,
        outputs: Sequence[Tensor] = (),
        loss: Optional[Tensor] = None,
        fuse: bool = True,
    ) -> "Graph":
        """Freeze the recording into a replayable :class:`Graph`.

        ``outputs`` are tensors whose values each replay returns; ``loss``
        (if given) roots a recorded backward program.  ``fuse`` runs the
        elementwise auto-fuser over the captured steps first.
        """
        out_slots = []
        for t in outputs:
            slot = self._lookup(t)
            if slot is None:
                raise ValueError("output tensor was not produced inside the capture")
            out_slots.append(slot)
        loss_slot = None
        if loss is not None:
            loss_slot = self._lookup(loss)
            if loss_slot is None:
                raise ValueError("loss tensor was not produced inside the capture")

        steps = self.steps
        if fuse and self.cacheable:
            from .fusion import fuse_steps

            protected = set(out_slots)
            if loss_slot is not None:
                protected.add(loss_slot)
            steps = fuse_steps(self, steps, protected, loss_slot)

        bwd = ()
        if loss_slot is not None:
            bwd = _build_backward(steps, loss_slot, self._rg)
        for i, step in enumerate(steps):
            step.index = i
        return Graph(
            nslots=self.nslots,
            steps=steps,
            leaves=self.leaves,
            input_slots=tuple(self._inputs),
            output_slots=tuple(out_slots),
            loss_slot=loss_slot,
            bwd=bwd,
            cacheable=self.cacheable,
            guards=tuple(self.guards),
        )


def _build_backward(
    steps: Sequence[_Step], root_slot: int, rg: Sequence[bool]
) -> Tuple[Tuple[_Step, Tuple[bool, ...]], ...]:
    """Mirror ``Tensor.backward``'s DFS over slots.

    Produces the exact sequence of VJP dispatches (and therefore the exact
    leaf accumulation order) the live tape would run, which is what makes
    replayed gradients bitwise equal to traced ones.
    """
    producer = {s.out: s for s in steps}
    topo: List[int] = []
    visited = set()
    stack: List[Tuple[int, bool]] = [(root_slot, False)]
    while stack:
        slot, processed = stack.pop()
        if processed:
            topo.append(slot)
            continue
        if slot in visited:
            continue
        visited.add(slot)
        stack.append((slot, True))
        step = producer.get(slot)
        if step is not None and step.taped:
            for ps in step.parents:
                if rg[ps] and ps not in visited:
                    stack.append((ps, False))
    program = []
    for slot in reversed(topo):
        step = producer.get(slot)
        if step is not None and step.taped:
            needs = tuple(rg[ps] for ps in step.parents)
            program.append((step, needs))
    return tuple(program)


class Graph:
    """A captured forward(+backward) program, replayable over fresh inputs."""

    def __init__(
        self,
        nslots: int,
        steps: Sequence[_Step],
        leaves: Sequence[_Leaf],
        input_slots: Tuple[int, ...],
        output_slots: Tuple[int, ...],
        loss_slot: Optional[int],
        bwd,
        cacheable: bool,
        guards,
    ):
        self.nslots = nslots
        self.steps = list(steps)
        inputs = set(input_slots)
        # Leaves read at every replay (parameters, buffers, constants) ...
        self.leaves = [lf for lf in leaves if lf.slot not in inputs]
        # ... and input leaves, held weakly: replays supply these slots.
        self._input_leaves = [lf for lf in leaves if lf.slot in inputs]
        for lf in self._input_leaves:
            lf.weaken()
        self.input_slots = input_slots
        self.output_slots = output_slots
        self.loss_slot = loss_slot
        self.bwd = bwd
        self.cacheable = cacheable
        self.guards = guards
        self._leaf_by_slot = {lf.slot: lf.tensor for lf in self.leaves}
        self._vals: List[Optional[np.ndarray]] = [None] * nslots
        self._ctxs: List = [None] * len(self.steps)
        # Flat execution plan built on first replay: one tuple per step,
        # so the hot loop does no attribute lookups.
        self._plan = None
        # Where step outputs live in a slab; laid out on first replay.
        self._layout: Optional[SlabLayout] = None
        # The owning cache's slab, or a private one made on first replay.
        self._slab: Optional[StepSlab] = None

    # -- validation ---------------------------------------------------------
    def validate(self) -> bool:
        """True iff every leaf (and guard) still matches capture time.

        Input leaves are checked only while something else keeps their
        capture-time tensor alive."""
        for lf in self.leaves:
            if not lf.matches(lf.tensor):
                return False
        for lf in self._input_leaves:
            t = lf.ref()
            if t is not None and not lf.matches(t):
                return False
        for guard in self.guards:
            if not guard():
                return False
        return True

    # -- replay -------------------------------------------------------------
    def _buffer_ok(self) -> List[bool]:
        """Per-step slab eligibility: the op must accept ``out=`` and its
        recorded output dtype must equal the natural promotion of its
        input dtypes (otherwise the trace applied a cast we must mirror
        by letting the op allocate)."""
        dtypes = {lf.slot: lf.dtype for lf in self.leaves + self._input_leaves}
        for step in self.steps:
            dtypes[step.out] = step.out_dtype
        ok = []
        for step in self.steps:
            if not step.op.supports_out:
                ok.append(False)
                continue
            try:
                natural = np.result_type(*[dtypes[ps] for ps in step.parents])
            except TypeError:
                ok.append(False)
                continue
            ok.append(natural == step.out_dtype)
        return ok

    def _build_plan(self):
        return [
            (step.op.forward, step.parents, step.attrs, step.out, step.out_dtype)
            for step in self.steps
        ]

    @property
    def step_bytes(self) -> int:
        """Slab bytes this graph's step outputs need."""
        return self._slab_layout().nbytes

    def _slab_layout(self) -> SlabLayout:
        if self._layout is None:
            self._layout = SlabLayout([
                (step.out_shape, step.out_dtype) if ok else None
                for step, ok in zip(self.steps, self._buffer_ok())
            ])
        return self._layout

    def bind(self, slab: Optional[StepSlab]) -> None:
        """Serve step outputs from ``slab``, dropping the views held in
        the previous one; None (a cache dropped the graph) means a
        private slab on the next replay."""
        if self._slab is not None:
            self._slab.drop(self)
        self._slab = slab

    def replay(
        self,
        inputs: Sequence[np.ndarray] = (),
        run_backward: bool = False,
    ) -> List[np.ndarray]:
        """Execute the captured program on ``inputs``.

        ``inputs`` must match the declared input slots in order, shape and
        dtype.  Leaf values are read fresh from their live tensors.  With
        ``run_backward=True`` the recorded backward program runs and
        accumulates into the live leaf tensors' ``.grad`` exactly as the
        traced tape would.  Returns the output arrays (copied out of the
        slab when the arena is active).
        """
        if len(inputs) != len(self.input_slots):
            raise ValueError(
                f"graph expects {len(self.input_slots)} inputs, got {len(inputs)}"
            )
        get_registry().counter("tensor/graph/replays").inc()
        vals = self._vals
        for lf in self.leaves:
            vals[lf.slot] = lf.tensor._data
        for slot, arr in zip(self.input_slots, inputs):
            arr = np.asarray(arr)
            vals[slot] = arr
        use_arena = arena_enabled()
        ctxs = self._ctxs
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build_plan()
        try:
            # Replay dtypes are pinned by validation (leaf dtypes checked,
            # input dtypes part of the cache key), so each step's result
            # dtype is deterministic: casting to the recorded out_dtype
            # reproduces the trace-time downcast rule exactly.
            if use_arena:
                layout = self._slab_layout()
                if self._slab is None:
                    self._slab = StepSlab()
                bufs = self._slab.views(self, layout)
                for k, (fwd, parents, attrs, out_slot, odtype) in enumerate(plan):
                    ins = tuple([vals[s] for s in parents])
                    buf = bufs[k]
                    if buf is not None:
                        out_data, ctxs[k] = fwd(ins, attrs, out=buf)
                        if out_data is buf:
                            vals[out_slot] = buf
                            continue
                    else:
                        out_data, ctxs[k] = fwd(ins, attrs)
                    arr = np.asarray(out_data)
                    if arr.dtype != odtype:
                        arr = arr.astype(odtype)
                    vals[out_slot] = arr
            else:
                for k, (fwd, parents, attrs, out_slot, odtype) in enumerate(plan):
                    out_data, ctxs[k] = fwd(
                        tuple([vals[s] for s in parents]), attrs
                    )
                    arr = np.asarray(out_data)
                    if arr.dtype != odtype:
                        arr = arr.astype(odtype)
                    vals[out_slot] = arr
            outs = [vals[s] for s in self.output_slots]
            if use_arena and layout.nbytes:
                # The slab is overwritten by the cache's next replay; hand
                # the caller stable copies (any view may alias it).
                outs = [o.copy() if o.base is not None else o for o in outs]
            if run_backward and self.bwd:
                self._run_backward(vals, ctxs)
            return outs
        finally:
            for k in range(len(ctxs)):
                ctxs[k] = None
            for n in range(self.nslots):
                vals[n] = None

    def _run_backward(self, vals, ctxs) -> None:
        root = self.loss_slot
        grads: Dict[int, np.ndarray] = {}
        owned: Dict[int, bool] = {}

        def acc(slot: int, g: np.ndarray) -> None:
            # Mirrors Tensor._accumulate for interior nodes: steal unowned
            # buffers, copy views, add in place once owned.
            g = np.asarray(g, dtype=vals[slot].dtype)
            cur = grads.get(slot)
            if cur is None:
                if g.base is not None:
                    grads[slot] = g.copy()
                    owned[slot] = True
                else:
                    grads[slot] = g
                    owned[slot] = False
            elif owned[slot]:
                cur += g
            else:
                grads[slot] = cur + g
                owned[slot] = True

        acc(root, np.ones_like(vals[root]))
        leaf_by_slot = self._leaf_by_slot
        for step, needs in self.bwd:
            g = grads.get(step.out)
            if g is None:
                continue
            for idx, garr in step.op.vjp(ctxs[step.index], g, needs):
                ps = step.parents[idx]
                leaf = leaf_by_slot.get(ps)
                if leaf is not None:
                    leaf._accumulate(garr)
                else:
                    acc(ps, garr)
            if step.out != root:
                grads.pop(step.out, None)
                owned.pop(step.out, None)


class GraphCache:
    """Keyed store of captured graphs with validation-on-lookup.

    Keys are caller-chosen (op-sequence identity is implied by the key:
    trainers key on window configuration and input shapes, the engine on
    batch-shape buckets).  A lookup whose graph fails validation — a
    strict leaf's ``version`` moved, a shape changed, a guard tripped —
    drops the graph and counts an invalidation, forcing re-capture.

    The cache owns one step slab shared by all its graphs (they replay
    one at a time), sized to the largest graph that has replayed.
    """

    def __init__(self):
        self._graphs: Dict = {}
        self._uncacheable = set()
        self._slab = StepSlab()

    @property
    def slab_bytes(self) -> int:
        """Bytes of the step slab this cache's graphs replay into."""
        return self._slab.nbytes

    def graphs(self) -> List[Graph]:
        """The stored graphs."""
        return list(self._graphs.values())

    def lookup(self, key) -> Optional[Graph]:
        graph = self._graphs.get(key)
        if graph is None:
            return None
        if not graph.validate():
            del self._graphs[key]
            graph.bind(None)
            get_registry().counter("tensor/graph/invalidations").inc()
            return None
        return graph

    def store(self, key, graph: Graph) -> bool:
        """Store ``graph`` under ``key``; uncacheable graphs are refused
        (and remembered, so callers can skip re-capturing them)."""
        if not graph.cacheable:
            self._uncacheable.add(key)
            return False
        old = self._graphs.get(key)
        if old is not None and old is not graph:
            old.bind(None)
        graph.bind(self._slab)
        self._graphs[key] = graph
        get_registry().counter("tensor/graph/captures").inc()
        return True

    def known_uncacheable(self, key) -> bool:
        return key in self._uncacheable

    def clear(self) -> None:
        for graph in self._graphs.values():
            graph.bind(None)
        self._graphs.clear()
        self._uncacheable.clear()
        self._slab.clear()

    def __len__(self) -> int:
        return len(self._graphs)
