"""Property: a configuration fails when ``EdgeLLM`` is built, or it runs.

Each example sets a random subset of the ``EdgeLLMConfig`` and
``AdaptiveTuningConfig`` fields, each drawn from the field's domain or,
now and then, from values it must reject; fields interact freely (a
``stage_plan`` is drawn independently of ``shards``).  Every draw must do
one of two things:

* raise a ``ValueError`` naming one of the fields it set, while the
  configs or ``EdgeLLM(model, cfg)`` are built; or
* build, then compress and run two adapt steps on a 4-layer model to
  finite losses, with the stage layout it was given.

A failure inside ``compress`` or ``adapt`` is a check that runs too late.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EdgeLLM, EdgeLLMConfig
from repro.adaptive import AdaptiveTuningConfig
from repro.data import lm_batches
from repro.dist import StagePlan
from repro.hw import EDGE_GPU_LIKE, EDGE_TPU_LIKE
from repro.nn import TransformerLM

from ..conftest import small_config

LAYERS = 4
UNSET = object()


def field(good, bad=()):
    """Leave the field at its default, or set it: mostly a value from its
    domain, one time in ten a value it must reject."""
    good, bad = list(good), list(bad)
    value = st.sampled_from(good)
    if bad:
        value = st.integers(0, 9).flatmap(
            lambda i: st.sampled_from(bad if i == 0 else good)
        )
    return st.one_of(st.just(UNSET), value)


NAN, INF = float("nan"), float("inf")

TUNING_FIELDS = {
    "window": field([1, 2, 3, 4], [0, 5]),
    "exit_points": field([None, (2, 4), (1, 2, 3, 4), (4,), (1, 3)],
                         [(), (0, 2), (2, 9)]),
    "schedule": field(["round_robin", "random", "importance",
                       "fixed_shallow", "full"], ["bogus"]),
    "optimizer": field(["adamw", "adam", "sgd", "adafactor"], ["bogus"]),
    "lr": field([1e-3, 2e-3, 1e-2], [0.0, -1e-3, NAN, INF]),
    "weight_decay": field([0.0, 0.01], [-0.01, NAN]),
    "grad_clip": field([0.0, 0.5, 1.0], [-1.0, NAN]),
    "tie_exit_heads": field([True, False]),
    "checkpoint_blocks": field([False, True]),
    "seed": field([0, 1, 7]),
}

# ``workers`` leaves out 0 (every core): its cost depends on the host.
# ``micro_batches`` stops at the adapt batch (4); a larger count is
# checked per step, because the batch is not part of the config.
EDGE_FIELDS = {
    "compute_budget": field([0.2, 0.3, 0.5, 1.0], [0.0, 1.5, -0.1, NAN]),
    "bit_options": field([(2, 4, 8), (4, 8), (8,), (3, 6), (16,)],
                         [(1,), (5,)]),
    "prune_options": field([(0.0,), (0.0, 0.3, 0.5), (0.3,)],
                           [(1.0,), (-0.1,)]),
    "slice_options": field([(1.0,), (0.5, 1.0), (0.75, 1.0)],
                           [(0.0,), (1.5,)]),
    "slice_round_to": field([4, 8, 16]),
    "sensitivity_metric": field(["loss_delta", "kl", "weight_error"],
                                ["bogus"]),
    "policy_search": field(["greedy", "evolutionary", "random"], ["bogus"]),
    "voting_strategy": field(["calibrated", "uniform", "best", "confidence"],
                             ["bogus"]),
    "accelerator": field([EDGE_GPU_LIKE, EDGE_TPU_LIKE]),
    "schedule_strategy": field(["exhaustive", "random", "evolutionary",
                                "heuristic"], ["bogus"]),
    "workers": field([1, 2], [-1]),
    "cache_dir": field([None, "cache"]),
    "shards": field([1, 1, 2, 3, 4], [0, -1, 5]),
    "micro_batches": field([1, 1, 2, 4], [0, -2]),
    "stage_plan": field([None, None, "", "1", "2", "1,2", "1,3", "1,2,3"],
                        ["x", "2,1", "0,2", "4", "1,,2"]),
}


def names(field_name):
    """A message names a field as an identifier or in prose
    (``exit_points`` / "exit points" / "exit point")."""
    stem = field_name[:-1] if field_name.endswith("s") else field_name
    return re.compile("[ _]".join(map(re.escape, stem.split("_"))))


def chosen(draw, fields):
    values = {name: draw(strategy) for name, strategy in fields.items()}
    return {name: v for name, v in values.items() if v is not UNSET}


@st.composite
def configs(draw):
    return chosen(draw, TUNING_FIELDS), chosen(draw, EDGE_FIELDS)


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("config-properties")


@settings(max_examples=40, deadline=None)
@given(draw=configs())
def test_config_fails_at_build_or_runs(draw, adapt_corpus, cache_root):
    tuning_fields, edge_fields = draw
    if edge_fields.get("cache_dir") == "cache":
        edge_fields["cache_dir"] = str(cache_root)
    model = TransformerLM(small_config(num_layers=LAYERS))
    try:
        cfg = EdgeLLMConfig(
            tuning=AdaptiveTuningConfig(**tuning_fields), **edge_fields
        )
        edge = EdgeLLM(model, cfg)
    except ValueError as exc:
        drawn = [*tuning_fields, *edge_fields]
        assert any(names(name).search(str(exc)) for name in drawn), (
            f"{exc!r} names none of the fields set: {drawn}"
        )
        return
    if cfg.stage_plan is not None:
        assert StagePlan.parse(cfg.stage_plan, LAYERS).num_stages == cfg.shards
    rng = np.random.default_rng(0)
    try:
        edge.compress(*next(lm_batches(adapt_corpus, 4, 16, 1, rng)))
        stats = edge.adapt(lm_batches(adapt_corpus, 4, 16, 2, rng))
    finally:
        edge.close()
    assert len(stats) == 2
    assert all(math.isfinite(s.loss) for s in stats)
