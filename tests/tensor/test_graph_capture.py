"""Capture/replay contract of the explicit VJP graph.

Replay is an optimization, never an approximation: replayed values and
gradients must be bitwise equal to a fresh trace, version bumps must
invalidate exactly the graphs whose leaves changed (stale replay is
impossible), a cache's graphs share one step slab sized to its largest
graph and retain no capture-time inputs, and the capture and grad toggles
are contextvars — scoped per thread, never leaking across.
"""

import threading
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, use_registry
from repro.tensor import (
    GraphCache,
    GraphRecorder,
    Tensor,
    dropout,
    graph_capture,
    graph_capture_enabled,
    is_grad_enabled,
    no_grad,
    silu,
)


def randt(shape, seed, requires_grad=True):
    data = np.random.default_rng(seed).standard_normal(shape)
    return Tensor(data.astype(np.float32), requires_grad=requires_grad)


def _forward(x, w, b):
    h = x @ w + b
    return silu(h) * h


def _capture(x, w, b, with_loss=True):
    """Capture ``_forward`` (+loss) with ``x`` as the dynamic input."""
    with GraphRecorder() as rec:
        rec.add_input(x)
        y = _forward(x, w, b)
        loss = (y * y).sum() if with_loss else None
        graph = rec.finalize([y], loss=loss)
    return graph


class TestReplayBitwise:
    def test_forward_matches_fresh_trace(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b, with_loss=False)

        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = graph.replay([x2])
        eager = _forward(Tensor(x2), w, b)
        np.testing.assert_array_equal(replayed, eager.data)

    def test_backward_matches_fresh_trace(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b)
        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        graph.replay([x2], run_backward=True)
        replay_grads = (w.grad.copy(), b.grad.copy())

        w2, b2 = randt((6, 6), 1), randt((6,), 2)
        y = _forward(Tensor(x2), w2, b2)
        (y * y).sum().backward()
        np.testing.assert_array_equal(replay_grads[0], w2.grad)
        np.testing.assert_array_equal(replay_grads[1], b2.grad)

    def test_repeat_replays_are_stable(self):
        x, w, b = randt((3, 5), 3), randt((5, 5), 4), randt((5,), 5)
        graph = _capture(x, w, b, with_loss=False)
        x2 = np.random.default_rng(6).standard_normal((3, 5)).astype(np.float32)
        (first,) = graph.replay([x2])
        first = first.copy()
        (second,) = graph.replay([x2])
        np.testing.assert_array_equal(first, second)


class TestInvalidation:
    def test_bump_version_invalidates_cached_graph(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        cache = GraphCache()
        assert cache.store("k", _capture(x, w, b))
        assert cache.lookup("k") is not None

        w.data[:] += 1.0
        w.bump_version()
        reg = MetricsRegistry()
        with use_registry(reg):
            assert cache.lookup("k") is None
        assert reg.counter("tensor/graph/invalidations").value == 1

    def test_bump_invalidates_exactly_affected_graphs(self):
        xa, wa, ba = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        xb, wb, bb = randt((4, 6), 3), randt((6, 6), 4), randt((6,), 5)
        cache = GraphCache()
        cache.store("a", _capture(xa, wa, ba))
        cache.store("b", _capture(xb, wb, bb))

        wa.bump_version()
        assert cache.lookup("a") is None
        assert cache.lookup("b") is not None

    def test_mutable_leaves_replay_fresh_data(self):
        """Optimizer-managed params bump freely; replays read them fresh."""
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        with GraphRecorder(mutable=[w, b]) as rec:
            rec.add_input(x)
            y = _forward(x, w, b)
            graph = rec.finalize([y])
        cache = GraphCache()
        cache.store("k", graph)

        w.data[:] *= 0.5
        w.bump_version()
        hit = cache.lookup("k")
        assert hit is not None
        x2 = np.random.default_rng(7).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = hit.replay([x2])
        eager = _forward(Tensor(x2), w, b)
        np.testing.assert_array_equal(replayed, eager.data)

    def test_guard_failure_invalidates(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        flag = {"ok": True}
        with GraphRecorder() as rec:
            rec.add_input(x)
            rec.add_guard(lambda: flag["ok"])
            y = _forward(x, w, b)
            graph = rec.finalize([y])
        cache = GraphCache()
        cache.store("k", graph)
        assert cache.lookup("k") is not None
        flag["ok"] = False
        assert cache.lookup("k") is None

    @settings(max_examples=20, deadline=None)
    @given(victim=st.integers(0, 2), seed=st.integers(0, 10_000))
    def test_stale_replay_impossible(self, victim, seed):
        """Property: after any leaf mutation + bump, the cached graph is
        unreachable and a fresh capture reproduces eager on the new data."""
        rng = np.random.default_rng(seed)
        x, w, b = randt((3, 4), seed), randt((4, 4), seed + 1), randt((4,), seed + 2)
        cache = GraphCache()
        cache.store("k", _capture(x, w, b, with_loss=False))

        leaf = (x, w, b)[victim]
        leaf.data[:] = rng.standard_normal(leaf.shape).astype(np.float32)
        leaf.bump_version()
        assert cache.lookup("k") is None

        fresh = _capture(x, w, b, with_loss=False)
        x2 = rng.standard_normal((3, 4)).astype(np.float32)
        (replayed,) = fresh.replay([x2])
        np.testing.assert_array_equal(replayed, _forward(Tensor(x2), w, b).data)


class TestUncacheable:
    def test_dropout_poisons_capture(self):
        x = randt((4, 6), 0)
        rng = np.random.default_rng(0)
        with GraphRecorder() as rec:
            rec.add_input(x)
            y = dropout(silu(x), 0.5, rng, training=True) * 2.0
            graph = rec.finalize([y])
        cache = GraphCache()
        assert not graph.cacheable
        assert not cache.store("k", graph)
        assert cache.known_uncacheable("k")
        assert cache.lookup("k") is None


class TestArena:
    def test_steady_state_replays_reserve_nothing(self):
        x, w, b = randt((8, 16), 0), randt((16, 16), 1), randt((16,), 2)
        cache = GraphCache()
        cache.store("k", _capture(x, w, b, with_loss=False))
        graph = cache.lookup("k")
        x2 = np.random.default_rng(8).standard_normal((8, 16)).astype(np.float32)
        first = MetricsRegistry()
        with use_registry(first):
            graph.replay([x2])  # lays out and reserves the slab
        steady = MetricsRegistry()
        with use_registry(steady):
            graph.replay([x2])
            graph.replay([x2])
        reserved = first.counter("tensor/arena/bytes_reserved").value
        assert reserved == graph.step_bytes == cache.slab_bytes > 0
        assert steady.counter("tensor/arena/bytes_reserved").value == 0

    def test_cache_reserves_its_largest_graph_not_the_sum(self):
        w, b = randt((16, 16), 1), randt((16,), 2)
        cache = GraphCache()
        for rows in (2, 16, 4):
            cache.store(rows, _capture(randt((rows, 16), rows), w, b, with_loss=False))
        needs = {rows: cache.lookup(rows).step_bytes for rows in (2, 4, 16)}
        reg = MetricsRegistry()
        with use_registry(reg):
            for rows in (16, 2, 4, 2, 16):
                x2 = np.ones((rows, 16), dtype=np.float32)
                cache.lookup(rows).replay([x2])
        largest = max(needs.values())
        assert sum(needs.values()) > largest
        assert reg.counter("tensor/arena/bytes_reserved").value == largest
        assert cache.slab_bytes == largest

    def test_growth_frees_the_old_slab(self):
        w, b = randt((16, 16), 1), randt((16,), 2)
        cache = GraphCache()
        cache.store("small", _capture(randt((2, 16), 3), w, b, with_loss=False))
        cache.store("large", _capture(randt((16, 16), 4), w, b, with_loss=False))
        cache.lookup("small").replay([np.ones((2, 16), dtype=np.float32)])
        old = weakref.ref(cache._slab._buf.base)
        cache.lookup("large").replay([np.ones((16, 16), dtype=np.float32)])
        assert old() is None
        assert cache.slab_bytes == cache.lookup("large").step_bytes

    def test_outputs_never_alias_the_slab(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        with GraphRecorder() as rec:
            rec.add_input(x)
            y = _forward(x, w, b)
            graph = rec.finalize([y, y.transpose(), y.sum()])
        other = _capture(randt((4, 6), 3), w, b, with_loss=False)
        cache = GraphCache()
        cache.store("a", graph)
        cache.store("b", other)
        x2 = np.random.default_rng(8).standard_normal((4, 6)).astype(np.float32)
        outs = graph.replay([x2])
        kept = [o.copy() for o in outs]
        other.replay([np.ones((4, 6), dtype=np.float32)])  # rewrites the slab
        slab = cache._slab._buf
        for out, want in zip(outs, kept):
            assert not np.shares_memory(out, slab)
            np.testing.assert_array_equal(out, want)

    def test_graph_outside_a_cache_uses_a_private_slab(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b, with_loss=False)
        reg = MetricsRegistry()
        with use_registry(reg):
            graph.replay([np.ones((4, 6), dtype=np.float32)])
        assert reg.counter("tensor/arena/bytes_reserved").value == graph.step_bytes > 0

    def test_capture_inputs_are_not_retained(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        cache = GraphCache()
        cache.store("k", _capture(x, w, b))
        x_ref, data_ref = weakref.ref(x), weakref.ref(x.data)
        del x
        assert x_ref() is None and data_ref() is None
        graph = cache.lookup("k")
        assert graph is not None  # a dead input cannot go stale
        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = graph.replay([x2], run_backward=True)
        np.testing.assert_array_equal(replayed, _forward(Tensor(x2), w, b).data)


class TestContextvarIsolation:
    """The grad and capture flags are contextvars: a new thread starts
    from the defaults and scoped toggles never leak across."""

    def _probe_in_thread(self, fn):
        seen = {}
        thread = threading.Thread(target=lambda: seen.update(value=fn()))
        thread.start()
        thread.join()
        return seen["value"]

    def test_no_grad_is_thread_local(self):
        with no_grad():
            assert is_grad_enabled() is False
            assert self._probe_in_thread(is_grad_enabled) is True

    def test_graph_capture_is_thread_local(self):
        with graph_capture(False):
            assert graph_capture_enabled() is False
            assert self._probe_in_thread(graph_capture_enabled) is True

    def test_thread_toggle_does_not_leak_back(self):
        def flip():
            with graph_capture(False):
                return graph_capture_enabled()

        assert self._probe_in_thread(flip) is False
        assert graph_capture_enabled() is True
