"""Queue transport between pipeline stages.

The process backend wires stages with plain ``multiprocessing`` queues:
per-stage command queues and one shared result queue between driver and
stages, plus one forward (activations) and one gradient queue per stage
boundary that stages use directly — activations never round-trip
through the driver.  All queues are unbounded, so sends never block and
the 1F1B interleave cannot deadlock on transport back-pressure.

Stage processes are created with the ``fork`` start method: hosts are
built driver-side and inherited by the children via copy-on-write, so
no model weights ever travel through pickling at startup.

:class:`PrefetchReceiver` adds communication/compute overlap on the
receive side: a daemon thread eagerly drains the boundary queue —
paying the cross-process deserialization cost — into a small bounded
local buffer (double-buffered by default) while the stage computes the
previous micro-batch.  Message order is preserved exactly, so the 1F1B
schedule and its bitwise guarantees are untouched; only the time the
compute thread spends blocked changes.  The receiver reports how much
receive time it hid, which the driver aggregates into the
``dist/overlap_fraction`` gauge.
"""

from __future__ import annotations

import dataclasses
import queue as _queue
import threading
import time
from typing import List, Optional


@dataclasses.dataclass
class StageLinks:
    """The queue endpoints handed to one stage process."""

    cmd_q: object
    result_q: object
    fwd_in: Optional[object]
    fwd_out: Optional[object]
    grad_in: Optional[object]
    grad_out: Optional[object]


def build_links(ctx, num_stages: int):
    """Create the full queue mesh for ``num_stages`` stages.

    Returns ``(cmd_qs, result_q, links)`` where ``links[s]`` bundles
    stage ``s``'s endpoints: boundary ``b`` between stages ``b`` and
    ``b+1`` has a forward queue (activations up) and a gradient queue
    (gradients down).
    """
    cmd_qs = [ctx.Queue() for _ in range(num_stages)]
    result_q = ctx.Queue()
    fwd_qs = [ctx.Queue() for _ in range(num_stages - 1)]
    grad_qs = [ctx.Queue() for _ in range(num_stages - 1)]
    links: List[StageLinks] = []
    for s in range(num_stages):
        links.append(
            StageLinks(
                cmd_q=cmd_qs[s],
                result_q=result_q,
                fwd_in=fwd_qs[s - 1] if s > 0 else None,
                fwd_out=fwd_qs[s] if s < num_stages - 1 else None,
                grad_in=grad_qs[s] if s < num_stages - 1 else None,
                grad_out=grad_qs[s - 1] if s > 0 else None,
            )
        )
    return cmd_qs, result_q, links


def drain_queue(q) -> None:
    """Best-effort drain so queue feeder threads can exit promptly."""
    try:
        while True:
            q.get_nowait()
    except Exception:
        pass


class PrefetchReceiver:
    """Order-preserving eager receiver over one boundary queue.

    A daemon thread loops ``source.get()`` → bounded local buffer
    (``depth`` slots, default double-buffered).  The expensive part of a
    cross-process receive — blocking on the pipe plus unpickling the
    activation array — thus runs concurrently with stage compute, which
    releases the GIL inside numpy kernels.  ``get()`` consumes from the
    local buffer in arrival order.

    The buffer bound is the backpressure story: a slow *consumer* stalls
    only the prefetch thread (its ``put`` blocks on the full local
    buffer); the underlying multiprocessing queue stays unbounded, so
    upstream *senders* never block and no send/receive cycle can
    deadlock (``tests/dist/test_transport_overlap.py`` locks this).

    Stats — ``recv_s`` (time the thread spent receiving), ``wait_s``
    (time consumers spent blocked in :meth:`get`), ``hits``/``misses``
    (whether a message was already buffered when asked for) — feed the
    ``dist/overlap_fraction`` gauge: ``1 - wait_s / recv_s`` is the
    fraction of receive time hidden behind compute.
    """

    def __init__(self, source, depth: int = 2):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self._source = source
        self._buf: _queue.Queue = _queue.Queue(maxsize=depth)
        self._stopped = threading.Event()
        self.recv_s = 0.0
        self.wait_s = 0.0
        self.hits = 0
        self.misses = 0
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        while not self._stopped.is_set():
            t0 = time.perf_counter()
            try:
                msg = self._source.get(timeout=0.2)
            except _queue.Empty:
                continue
            except (OSError, EOFError, ValueError):
                return
            self.recv_s += time.perf_counter() - t0
            # Timed put: when the consumer is slow the bounded buffer
            # stalls only this thread, and close() can still release it.
            while not self._stopped.is_set():
                try:
                    self._buf.put(msg, timeout=0.2)
                    break
                except _queue.Full:
                    continue

    def get(self, timeout: Optional[float] = None):
        """Next message in arrival order.  Raises ``queue.Empty`` on
        timeout, exactly like ``Queue.get``."""
        try:
            msg = self._buf.get_nowait()
            self.hits += 1
            return msg
        except _queue.Empty:
            pass
        self.misses += 1
        t0 = time.perf_counter()
        try:
            return self._buf.get(timeout=timeout)
        finally:
            self.wait_s += time.perf_counter() - t0

    def take_stats(self) -> dict:
        """Return-and-reset the overlap counters (per-step accounting)."""
        stats = {
            "overlap_recv_s": self.recv_s,
            "overlap_wait_s": self.wait_s,
            "prefetch_hits": self.hits,
            "prefetch_misses": self.misses,
        }
        self.recv_s = self.wait_s = 0.0
        self.hits = self.misses = 0
        return stats

    def close(self) -> None:
        self._stopped.set()


def merge_overlap_stats(*receivers) -> dict:
    """Sum ``take_stats`` over a stage's receivers (None-safe)."""
    total = {
        "overlap_recv_s": 0.0,
        "overlap_wait_s": 0.0,
        "prefetch_hits": 0,
        "prefetch_misses": 0,
    }
    for r in receivers:
        if isinstance(r, PrefetchReceiver):
            for k, v in r.take_stats().items():
                total[k] += v
    return total

