"""``GetitemOp``'s VJP writes basic-index gradients in place.

A basic index (ints, slices, Ellipsis, None) addresses each element at
most once, so ``full[index] += grad`` is bitwise ``np.add.at``, -0.0
gradients included.  Advanced indices keep ``np.add.at`` and still
accumulate repeated positions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor.tensor import _is_basic_index


@st.composite
def basic_indexed(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim)))
    items = []
    for size in shape:
        kind = draw(st.sampled_from(["int", "slice", "full"]))
        if kind == "int":
            items.append(draw(st.integers(-size, size - 1)))
        elif kind == "slice":
            items.append(slice(
                draw(st.none() | st.integers(-size, size)),
                draw(st.none() | st.integers(-size, size)),
                draw(st.sampled_from([None, 1, 2, 3, -1, -2])),
            ))
        else:
            items.append(slice(None))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), None)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(items)))
        items = items[:cut] + [Ellipsis]
    index = tuple(items) if draw(st.booleans()) or len(items) != 1 else items[0]
    return shape, index, draw(st.integers(0, 2**31 - 1))


def tape_grad(data, index, grad):
    x = Tensor(data, requires_grad=True)
    x[index].backward(grad)
    return x.grad


def add_at_grad(shape, index, grad):
    full = np.zeros(shape, dtype=np.float32)
    np.add.at(full, index, grad)
    return full


class TestBasicIndex:
    @settings(max_examples=300, deadline=None)
    @given(basic_indexed())
    def test_matches_add_at_bytes(self, case):
        shape, index, seed = case
        assert _is_basic_index(index)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(shape).astype(np.float32)
        grad = np.asarray(rng.standard_normal(data[index].shape), dtype=np.float32)
        grad.reshape(-1)[::2] = -0.0
        got = tape_grad(data, index, grad)
        assert got.tobytes() == add_at_grad(shape, index, grad).tobytes()

    def test_negative_zero_gradient_lands_as_add_at_gives_it(self):
        data = np.ones((3, 4), dtype=np.float32)
        grad = np.full((3, 2), -0.0, dtype=np.float32)
        got = tape_grad(data, (slice(None), slice(0, 4, 2)), grad)
        expected = add_at_grad((3, 4), (slice(None), slice(0, 4, 2)), grad)
        assert got.tobytes() == expected.tobytes()

    def test_classification(self):
        assert _is_basic_index((slice(1, 3), 0, None, Ellipsis))
        assert _is_basic_index(np.int64(2))
        assert not _is_basic_index(np.array([0, 1]))
        assert not _is_basic_index(([0, 1], slice(None)))
        assert not _is_basic_index(True)
        assert not _is_basic_index((slice(None), np.array([True, False])))


class TestAdvancedIndex:
    def test_repeated_rows_accumulate(self):
        data = np.arange(8, dtype=np.float32).reshape(4, 2)
        grad = np.arange(1, 7, dtype=np.float32).reshape(3, 2)
        got = tape_grad(data, np.array([0, 0, 3]), grad)
        assert np.array_equal(got, [[4, 6], [0, 0], [0, 0], [5, 6]])

    def test_mixed_index_repeated_columns_accumulate(self):
        data = np.zeros((2, 3), dtype=np.float32)
        grad = np.ones((2, 3), dtype=np.float32)
        index = (slice(None), np.array([1, 1, 2]))
        got = tape_grad(data, index, grad)
        assert got.tobytes() == add_at_grad((2, 3), index, grad).tobytes()
        assert np.array_equal(got, [[0, 2, 1], [0, 2, 1]])
