"""Comm/compute overlap transport: prefetch buffering and backpressure.
Locks the :class:`repro.dist.PrefetchReceiver` contract the 1F1B worker
loop rides on: message order is preserved exactly, and a slow consumer
can never deadlock the mesh.
"""

import queue
import threading
import time

import pytest

from repro.dist import PrefetchReceiver
from repro.dist.transport import merge_overlap_stats


def feed(q, items):
    for item in items:
        q.put(item)


class TestPrefetchOrder:
    def test_preserves_arrival_order(self):
        src = queue.Queue()
        feed(src, list(range(50)))
        recv = PrefetchReceiver(src)
        try:
            assert [recv.get(timeout=5.0) for _ in range(50)] == list(range(50))
        finally:
            recv.close()

    def test_interleaved_producer(self):
        """Messages produced while the consumer drains arrive in order."""
        src = queue.Queue()
        recv = PrefetchReceiver(src)
        producer = threading.Thread(target=feed, args=(src, list(range(100))))
        producer.start()
        try:
            got = [recv.get(timeout=5.0) for _ in range(100)]
        finally:
            producer.join()
            recv.close()
        assert got == list(range(100))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            PrefetchReceiver(queue.Queue(), depth=0)


class TestBackpressure:
    def test_slow_consumer_does_not_deadlock(self):
        """100 eagerly-sent messages against a depth-2 buffer and a slow
        consumer: the bounded buffer stalls only the prefetch thread —
        the unbounded source accepts every send immediately, so the
        producer finishes long before the consumer and nothing cycles.
        """
        src = queue.Queue()
        feed(src, list(range(100)))  # all sends complete up front
        recv = PrefetchReceiver(src, depth=2)
        try:
            got = []
            for _ in range(100):
                time.sleep(0.0005)  # consumer slower than the producer
                got.append(recv.get(timeout=5.0))
        finally:
            recv.close()
        assert got == list(range(100))
        # the local buffer never grew beyond its bound
        assert recv._buf.maxsize == 2

    def test_close_releases_stalled_prefetcher(self):
        """Closing with a full local buffer must not hang the thread."""
        src = queue.Queue()
        feed(src, list(range(10)))
        recv = PrefetchReceiver(src, depth=1)
        deadline = time.perf_counter() + 5.0
        while recv._buf.empty() and time.perf_counter() < deadline:
            time.sleep(0.001)  # let it buffer one message and stall
        recv.close()
        recv._thread.join(timeout=5.0)
        assert not recv._thread.is_alive()


class TestOverlapStats:
    def test_buffered_get_counts_hit(self):
        src = queue.Queue()
        src.put("msg")
        recv = PrefetchReceiver(src)
        try:
            deadline = time.perf_counter() + 5.0
            while recv._buf.empty() and time.perf_counter() < deadline:
                time.sleep(0.001)
            assert recv.get(timeout=5.0) == "msg"
        finally:
            recv.close()
        assert recv.hits == 1
        assert recv.misses == 0
        assert recv.recv_s >= 0.0

    def test_empty_buffer_counts_miss_and_wait(self):
        src = queue.Queue()
        recv = PrefetchReceiver(src)
        try:
            src.put("late")
            assert recv.get(timeout=5.0) == "late"
        finally:
            recv.close()
        assert recv.misses >= 1
        assert recv.wait_s > 0.0

    def test_merge_sums_and_resets(self):
        src = queue.Queue()
        feed(src, [1, 2])
        recv = PrefetchReceiver(src)
        try:
            recv.get(timeout=5.0)
            recv.get(timeout=5.0)
        finally:
            recv.close()
        merged = merge_overlap_stats(recv, None)  # None-safe
        assert merged["prefetch_hits"] + merged["prefetch_misses"] == 2
        assert merged["overlap_recv_s"] >= 0.0
        # take_stats reset the receiver
        assert recv.hits == recv.misses == 0
        assert recv.recv_s == recv.wait_s == 0.0

