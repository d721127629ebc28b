"""Step slabs: the memory captured graphs replay into.

Every replayed train/decode step produces the same intermediate arrays in
the same order; going to the OS allocator for each one is pure overhead.
So each step whose op accepts ``out=`` writes into a fixed view of a
:class:`StepSlab`, one flat byte buffer.  A graph's :class:`SlabLayout`
(one ``ALIGN``-byte-aligned offset per step, steps packed back to back)
is laid out at its first replay; steady-state replays do zero allocator
traffic.

One slab serves every graph of a :class:`~repro.tensor.graph.GraphCache`.
That is safe because a cache's graphs replay one at a time and every
replay copies out the outputs that live in the slab, so nothing in slab
memory outlives the replay that wrote it.  The slab is sized to the
cache's largest graph: it grows only when a larger graph first replays,
and growth drops every view into the old buffer so that buffer is freed
at once.  A graph replayed outside any cache gets a private slab.

:class:`Arena` is the process-wide accounting: ``bytes_reserved`` counts
every slab byte ever allocated (also on the
``tensor/arena/bytes_reserved`` counter).
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry

# Byte alignment of the slab base and of every step's offset in it.
ALIGN = 64


class Arena:
    """Process-wide accounting of slab allocations."""

    def __init__(self):
        self.bytes_reserved = 0

    def reserve(self, nbytes: int) -> np.ndarray:
        """A fresh ``ALIGN``-aligned byte buffer of ``nbytes``, counted."""
        raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
        pad = -raw.ctypes.data % ALIGN
        self.bytes_reserved += nbytes
        get_registry().counter("tensor/arena/bytes_reserved").inc(nbytes)
        return raw[pad : pad + nbytes]


_GLOBAL_ARENA = Arena()


def get_arena() -> Arena:
    """The process-wide slab accounting."""
    return _GLOBAL_ARENA


class SlabLayout:
    """Where each step's output lives in a slab.

    ``entries`` holds ``(offset, size, shape, dtype)`` per step (bytes
    for offset and size), or None for a step that allocates its own
    output; ``nbytes`` is the slab size the layout needs.
    """

    __slots__ = ("entries", "nbytes")

    def __init__(self, specs: Sequence[Optional[Tuple[Tuple[int, ...], np.dtype]]]):
        entries: List[Optional[Tuple[int, int, Tuple[int, ...], np.dtype]]] = []
        offset = 0
        for spec in specs:
            if spec is None:
                entries.append(None)
                continue
            shape, dtype = tuple(spec[0]), np.dtype(spec[1])
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            entries.append((offset, size, shape, dtype))
            offset += -(-size // ALIGN) * ALIGN
        self.entries = entries
        self.nbytes = offset


class StepSlab:
    """One growable byte buffer whose views back graph step outputs.

    The slab owns the views it hands out, keyed weakly by the graph that
    asked for them: a dead graph's views go with it, and growth drops
    them all.
    """

    def __init__(self):
        self._buf: Optional[np.ndarray] = None
        self._views: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @property
    def nbytes(self) -> int:
        return 0 if self._buf is None else self._buf.nbytes

    def views(self, owner, layout: SlabLayout) -> List[Optional[np.ndarray]]:
        """``owner``'s step buffers, one per layout entry (None where the
        step allocates its own), created on first use."""
        views = self._views.get(owner)
        if views is None:
            if self._buf is None or layout.nbytes > self._buf.nbytes:
                self._grow(layout.nbytes)
            buf = self._buf
            views = [
                None if e is None
                else buf[e[0] : e[0] + e[1]].view(e[3]).reshape(e[2])
                for e in layout.entries
            ]
            self._views[owner] = views
        return views

    def drop(self, owner) -> None:
        """Forget ``owner``'s views (a cache dropped the graph)."""
        self._views.pop(owner, None)

    def clear(self) -> None:
        """Drop every view and the buffer itself."""
        self._views.clear()
        self._buf = None

    def _grow(self, nbytes: int) -> None:
        # Drop the old buffer before reserving the new one, so the two
        # are never alive together.
        self.clear()
        self._buf = get_arena().reserve(nbytes)
