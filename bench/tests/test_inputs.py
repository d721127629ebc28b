"""The same ``--seed`` makes the same inputs; another seed makes others."""

import types

import numpy as np
import pytest

from bench import workloads
from bench.workloads import WORKLOADS, stratified_arrivals, stratified_flags


@pytest.fixture(scope="module")
def fx():
    rng = np.random.default_rng(0)
    return types.SimpleNamespace(streams=rng.integers(0, 64, (48, 512)),
                                 target=rng.integers(0, 64, (96, 264)))


def _trace(workload, fx):
    slices, offsets, burst_rounds, paced_rounds, _ = workload.plan(fx)
    assert len(slices) == workloads.SLICES
    assert burst_rounds % workloads.SLICES == 0 and paced_rounds % workloads.SLICES == 0
    out = []
    for burst, paced in slices:
        assert all(r in burst for r in paced)
        out.append(([(r.request_id, r.prompt, r.max_new_tokens, r.greedy, r.top_k,
                      r.seed, r.priority) for r in burst], [r.request_id for r in paced]))
    return out, offsets.tolist(), burst_rounds, paced_rounds


SERVING = ["chat", "prefix-share", "vote-exit"]


@pytest.mark.parametrize("name", SERVING)
def test_serving_trace_repeats_per_seed(name, fx):
    cls = WORKLOADS[name]
    first = _trace(cls(None, 5, 20, False), fx)
    assert first == _trace(cls(None, 5, 20, False), fx)
    other = _trace(cls(None, 6, 20, False), fx)
    for (mine, _), (theirs, _) in zip(first[0], other[0]):
        assert [r[1] for r in mine] != [r[1] for r in theirs]  # prompts
        assert [r[5] for r in mine] != [r[5] for r in theirs]  # sampling seeds
    ids = [r[0] for burst, _ in first[0] for r in burst]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("name", SERVING)
def test_seeds_share_the_shape_of_the_traffic(name, fx):
    def shapes(seed):
        slices, offsets, *_ = WORKLOADS[name](None, seed, 20, False).plan(fx)
        return [([(len(r.prompt), r.max_new_tokens, r.greedy, r.priority)
                  for r in burst], [burst.index(r) for r in paced], offsets.tolist())
                for burst, paced in slices]

    first = shapes(1)
    assert first == shapes(2)
    assert all(shape == first[0] for shape in first)  # every slice, too


def test_prefix_share_prompts_share_four_system_prompts(fx):
    workload = WORKLOADS["prefix-share"](None, 3, 20, False)
    for requests, _ in workload.plan(fx)[0]:
        heads = {tuple(r.prompt[:workload.SYSTEM_LEN]) for r in requests}
        assert len(heads) == workload.SYSTEM_PROMPTS
        assert {r.priority for r in requests} == {0, 1}


def test_adapt_batches_are_the_same_for_every_seed(fx):
    def batches(seed):
        rounds = WORKLOADS["adapt"](None, seed, 20, False).plan(fx)
        return [x for batch in rounds for x, _ in batch]

    first = batches(5)
    assert all(np.array_equal(a, b) for a, b in zip(first, batches(6)))
    assert len(first) % len(workloads.EXIT_POINTS) == 0


def test_stratified_arrivals_are_a_poisson_schedule():
    rng = np.random.default_rng(0)
    offsets = stratified_arrivals(rng, 1000, rate=10.0)
    gaps = np.diff(offsets)
    assert offsets[0] == 0 and (gaps > 0).all()
    assert gaps.mean() == pytest.approx(0.1, rel=0.02)
    # Exponential gaps: the median is ln 2 times the mean.
    assert np.median(gaps) == pytest.approx(0.1 * np.log(2), rel=0.02)


def test_stratified_flags_hit_the_share_exactly():
    rng = np.random.default_rng(0)
    assert stratified_flags(rng, 24, 0.25).sum() == 6
