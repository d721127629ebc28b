"""Empirical profiling: what the autograd tape retains, and where a
replayed graph spends its time.

The analytical memory model (`repro.eval.memory`) *predicts* activation
footprints; this profiler *measures* them by observing tape-node creation
and summing the bytes of recorded outputs.  The R-F2 claim ("activation
memory scales with the tuning window") is validated against these
measurements, not just the model.

Since the eager-reclamation fast path (``Tensor.backward(reclaim=True)``)
the profiler also sees buffer frees, so it can report the *peak* number of
tape bytes simultaneously live — the quantity that actually bounds
on-device memory — alongside the total recorded.

:func:`profile_ops` times replayed graphs op by op: while it is active,
:meth:`~repro.tensor.graph.Graph.replay` runs a timed copy of its step
loop and adds each op's count, seconds and output bytes by op name, plus
one ``REPLAY_LOOP`` row for everything else the replay does, so the rows
sum to the replays' wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, List, Tuple

from .tensor import _set_tape_observer

# The row of an op profile that holds a replay's own time: binding
# inputs and leaves, the loop around the ops, copying outputs out, and a
# recorded backward program (which it does not split by op).
REPLAY_LOOP = "(replay loop)"

# The active op profile (see :func:`profile_ops`); None when off, which
# is all a replay reads then.
_OP_PROFILE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_op_profile", default=None
)


class TapeStats:
    """Bytes and node counts recorded while a profiler was active.

    Attributes
    ----------
    recorded_bytes / recorded_nodes:
        Total forward buffers (bytes / count) that joined the tape.
    freed_bytes / freed_nodes:
        Buffers eagerly reclaimed during ``backward(reclaim=True)``.  May
        exceed ``recorded_bytes`` because checkpoint-replay nodes are
        reclaimed without ever being recorded.
    grad_bytes:
        Gradient buffers currently live (allocated during backward, freed
        as interior closures complete).
    peak_bytes:
        High-water mark of (live tape buffers + live gradient buffers) —
        the quantity eager reclamation lowers: without it the whole tape
        stays resident while backward's gradients stack on top.  For a
        forward-only region this equals ``recorded_bytes``.
    """

    def __init__(self):
        self._parent = None
        self.reset()

    def reset(self) -> None:
        self.recorded_bytes = 0
        self.recorded_nodes = 0
        self.freed_bytes = 0
        self.freed_nodes = 0
        self.grad_bytes = 0
        self.peak_bytes = 0

    @property
    def live_bytes(self) -> int:
        """Tape bytes currently held (clamped at zero: checkpoint nodes
        can be freed without having been recorded)."""
        return max(0, self.recorded_bytes - self.freed_bytes)

    def _update_peak(self) -> None:
        live = self.live_bytes + self.grad_bytes
        if live > self.peak_bytes:
            self.peak_bytes = live

    # -- observer protocol (called from repro.tensor.tensor) -----------
    def on_record(self, nbytes: int) -> None:
        self.recorded_bytes += nbytes
        self.recorded_nodes += 1
        self._update_peak()
        if self._parent is not None:
            self._parent.on_record(nbytes)

    def on_free(self, nbytes: int) -> None:
        self.freed_bytes += nbytes
        self.freed_nodes += 1
        if self._parent is not None:
            self._parent.on_free(nbytes)

    def on_grad_alloc(self, nbytes: int) -> None:
        self.grad_bytes += nbytes
        self._update_peak()
        if self._parent is not None:
            self._parent.on_grad_alloc(nbytes)

    def on_grad_free(self, nbytes: int) -> None:
        self.grad_bytes = max(0, self.grad_bytes - nbytes)
        if self._parent is not None:
            self._parent.on_grad_free(nbytes)


@contextlib.contextmanager
def profile_tape() -> Iterator[TapeStats]:
    """Count every tape-recorded tensor created inside the context.

    Only nodes that actually join the tape (requires_grad outputs with a
    backward closure) are counted — exactly the tensors kept alive for
    the backward pass.  Nested profilers both observe: events forward to
    the previously installed observer.
    """
    stats = TapeStats()
    stats._parent = _set_tape_observer(stats)
    try:
        yield stats
    finally:
        _set_tape_observer(stats._parent)
        stats._parent = None


class OpProfile:
    """Per-op totals over every graph replayed while it was active.

    ``rows`` maps an op name (or :data:`REPLAY_LOOP`) to ``[count,
    seconds, output bytes]``.
    """

    def __init__(self):
        self.rows: Dict[str, List[float]] = {}
        self.replays = 0

    def add(self, name: str, seconds: float, nbytes: int) -> None:
        row = self.rows.setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += seconds
        row[2] += nbytes

    @property
    def seconds(self) -> float:
        """Wall time of the profiled replays (the sum of every row)."""
        return sum(row[1] for row in self.rows.values())

    def table(self) -> List[Tuple[str, int, float, int]]:
        """``(name, count, seconds, bytes)`` rows, slowest first."""
        rows = [(name, int(c), s, int(b)) for name, (c, s, b) in self.rows.items()]
        return sorted(rows, key=lambda row: -row[2])


@contextlib.contextmanager
def profile_ops() -> Iterator[OpProfile]:
    """Time every graph replayed inside the context, op by op.

    The replays run the same ``forward`` calls into the same slab views
    as unprofiled ones, so their outputs are byte-identical; only the
    clock reads around each step are added.
    """
    profile = OpProfile()
    token = _OP_PROFILE.set(profile)
    try:
        yield profile
    finally:
        _OP_PROFILE.reset(token)
