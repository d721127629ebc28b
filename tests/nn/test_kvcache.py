"""Tests for KVCache lifecycle: append validation, truncate, reset."""

import numpy as np
import pytest

from repro.nn.attention import KVCache


def entry(batch=1, heads=2, seq=3, head_dim=4, fill=1.0):
    k = np.full((batch, heads, seq, head_dim), fill, dtype=np.float32)
    return k, k + 1.0


class TestAppendValidation:
    def test_rejects_non_4d(self):
        cache = KVCache()
        bad = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="4-D"):
            cache.append(bad, bad)

    def test_rejects_kv_shape_mismatch(self):
        cache = KVCache()
        k, _ = entry(seq=3)
        _, v = entry(seq=2)
        with pytest.raises(ValueError, match="mismatch"):
            cache.append(k, v)

    def test_rejects_inconsistent_followup(self):
        cache = KVCache()
        cache.append(*entry(heads=2))
        with pytest.raises(ValueError, match="does not\\s+match cached"):
            cache.append(*entry(heads=4))

    def test_growing_along_seq_ok(self):
        cache = KVCache()
        cache.append(*entry(seq=3))
        cache.append(*entry(seq=1))
        assert cache.length == 4


class TestTruncate:
    def cache(self):
        c = KVCache()
        k = np.arange(1 * 2 * 5 * 4, dtype=np.float32).reshape(1, 2, 5, 4)
        c.append(k, k * 2)
        return c, k

    def test_keeps_prefix(self):
        cache, k = self.cache()
        cache.truncate(3)
        assert cache.length == 3
        np.testing.assert_array_equal(cache.k, k[:, :, :3, :])
        np.testing.assert_array_equal(cache.v, k[:, :, :3, :] * 2)

    def test_truncate_to_full_length_is_noop(self):
        cache, k = self.cache()
        cache.truncate(5)
        assert cache.length == 5
        np.testing.assert_array_equal(cache.k, k)

    def test_truncate_to_zero_empties(self):
        cache, _ = self.cache()
        cache.truncate(0)
        assert cache.length == 0
        assert cache.k is None and cache.v is None

    def test_out_of_range_raises(self):
        cache, _ = self.cache()
        with pytest.raises(ValueError, match="out of range"):
            cache.truncate(-1)
        with pytest.raises(ValueError, match="out of range"):
            cache.truncate(6)

    def test_empty_cache_truncate_zero_ok(self):
        cache = KVCache()
        cache.truncate(0)
        assert cache.length == 0

    def test_append_after_truncate(self):
        cache, _ = self.cache()
        cache.truncate(2)
        cache.append(*entry(seq=1))
        assert cache.length == 3


class TestReset:
    def test_reset_empties(self):
        cache = KVCache()
        cache.append(*entry())
        cache.reset()
        assert cache.length == 0
        assert cache.k is None

    def test_reusable_with_new_geometry(self):
        # After reset, a block may serve a request with another batch
        # size or head count — the pool relies on this.
        cache = KVCache()
        cache.append(*entry(heads=2))
        cache.reset()
        cache.append(*entry(heads=4))
        assert cache.k.shape[1] == 4


class TestClone:
    def test_clone_is_independent(self):
        cache = KVCache()
        cache.append(*entry(seq=2))
        copy = cache.clone()
        copy.append(*entry(seq=1))
        assert cache.length == 2
        assert copy.length == 3
        cache.k[...] = -1.0
        assert not np.any(copy.k[:, :, :2] == -1.0)

    def test_clone_of_empty(self):
        assert KVCache().clone().length == 0


class TestGrowth:
    def test_growth_preserves_content(self):
        # A private buffer doubles as it grows; every cached position
        # survives each reallocation, and truncated positions are
        # overwritten by the next append.
        cache = KVCache()
        k = np.arange(1 * 2 * 9 * 4, dtype=np.float32).reshape(1, 2, 9, 4)
        for t in range(9):
            cache.append(k[:, :, t : t + 1], k[:, :, t : t + 1] * 2)
        assert cache._buffers()[0].shape[2] >= 9
        np.testing.assert_array_equal(cache.k, k)
        np.testing.assert_array_equal(cache.v, k * 2)
        cache.truncate(4)
        cache.append(*entry(seq=2, fill=-1.0))
        np.testing.assert_array_equal(cache.k[:, :, :4], k[:, :, :4])
        assert np.all(cache.k[:, :, 4:] == -1.0)

    def test_append_writes_in_place(self):
        cache = KVCache()
        cache.append(*entry(seq=3))
        buf = cache._buffers()[0]
        cache.truncate(1)
        k, _ = cache.append(*entry(seq=2, fill=5.0))
        assert np.shares_memory(k, buf)
