"""The module structure counter that guards the engine's captured graphs.

Every route that rebinds a registered Parameter, sub-Module or buffer
advances :func:`repro.nn.module.structure_version`; a live engine graph
captured before the rewrite is then invalidated and re-captured, so the
next step equals capture off.  Routes that only change values or modes
(``eval``/``train``, ``requires_grad`` flips, optimizer steps, fold-cache
refreshes) leave the counter alone, and serving never moves it.
"""

import numpy as np
import pytest

from repro.adaptive import ExitHeadSet, VotingCombiner
from repro.data import lm_batches
from repro.luc import LayerCompression, LUCPolicy, apply_luc
from repro.nn import SGD, Linear, Parameter, TransformerBlock, surgery
from repro.nn.module import structure_version
from repro.nn.slicing import block_slice_trial
from repro.obs import MetricsRegistry, use_registry
from repro.serve import GenerationEngine, Request, serve_batch
from repro.tensor import cross_entropy, graph_capture, no_grad

from ..conftest import small_config
from .test_engine_graph import prefill_entries


def _step(engine, capture):
    with graph_capture(capture):
        logits, _ = engine.decode_step(prefill_entries(engine))
    return logits


def _shortcut(block, scale=0.5):
    dim = block.attn_norm.weight.shape[0]
    return np.eye(dim, dtype=np.float32) * np.float32(scale)


def _new_q_weight(model, _):
    q = model.blocks[0].attn.q_proj
    assert type(q) is Linear
    q.weight = Parameter(q.weight.data * np.float32(2.0))


def _new_block(model):
    # Built before the capture: construction itself moves the counter.
    return TransformerBlock(small_config(), np.random.default_rng(9))


def _swap_block(model, replacement):
    surgery.swap(model.blocks, "1", replacement)


def _add_buffer(model, _=None):
    block = model.blocks[2]
    block.register_buffer("attn_shortcut_Q", _shortcut(block))


def _remove_buffer(model, _):
    delattr(model.blocks[2], "attn_shortcut_Q")


# route: (setup run before the capture, rewrite run after it)
REWRITES = {
    "new Parameter on a Linear": (None, _new_q_weight),
    "surgery.swap of a ModuleList child": (_new_block, _swap_block),
    "register_buffer": (None, _add_buffer),
    "buffer removal": (_add_buffer, _remove_buffer),
}


@pytest.mark.parametrize("route", sorted(REWRITES))
def test_rebinding_invalidates_a_live_graph(pretrained_model, route):
    setup, rewrite = REWRITES[route]
    model = pretrained_model
    prepared = setup(model) if setup is not None else None
    engine = GenerationEngine(model)
    _step(engine, True)  # captures the (batch, bucket) decode graph
    before = _step(GenerationEngine(model), False)
    version = structure_version()
    rewrite(model, prepared)
    assert structure_version() > version
    reg = MetricsRegistry()
    with use_registry(reg):
        captured = _step(engine, True)
    expected = _step(GenerationEngine(model), False)
    assert reg.counter("tensor/graph/invalidations").value == 1
    assert reg.counter("tensor/graph/captures").value == 1
    assert captured.tobytes() == expected.tobytes()
    assert captured.tobytes() != before.tobytes()  # the rewrite mattered


def test_slice_trial_exit_invalidates_a_live_graph(pretrained_model, adapt_corpus):
    """A graph captured inside ``block_slice_trial`` bakes in the trial's
    shortcut rotations; leaving the trial removes them."""
    model = pretrained_model
    calib, _ = next(lm_batches(adapt_corpus, 4, 24, 1, np.random.default_rng(5)))
    engine = GenerationEngine(model)
    with block_slice_trial(model, 2, 0.5, calib):
        sliced = _step(engine, True)
        version = structure_version()
    assert structure_version() > version
    assert not hasattr(model.blocks[2], "attn_shortcut_Q")
    reg = MetricsRegistry()
    with use_registry(reg):
        captured = _step(engine, True)
    assert reg.counter("tensor/graph/invalidations").value == 1
    assert captured.tobytes() == _step(GenerationEngine(model), False).tobytes()
    assert captured.tobytes() != sliced.tobytes()


def test_value_and_mode_changes_leave_the_counter(pretrained_model, pretrain_corpus):
    model = pretrained_model
    apply_luc(model, LUCPolicy([LayerCompression(4, 0.3)] * model.num_layers))
    voting = VotingCombiner(model, ExitHeadSet(model, exit_points=[2, 4]))
    batches = lm_batches(pretrain_corpus, 4, 24, 2, np.random.default_rng(0))
    voting.calibrate(*next(batches))
    inputs, targets = next(batches)
    version = structure_version()

    model.train()
    model.eval()
    model.requires_grad_(False)
    model.requires_grad_(True)
    model.train()
    optimizer = SGD(model.parameters(), lr=1e-2)
    loss = cross_entropy(model(inputs), targets)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    model.eval()
    reg = MetricsRegistry()
    with use_registry(reg), no_grad():
        model(inputs)  # every fold is stale after the step: refresh them
    assert reg.counter("nn/fold/misses").value > 0
    assert structure_version() == version

    rng = np.random.default_rng(3)
    requests = [
        Request(f"r{i}", prompt=rng.integers(0, 32, 6 + i).tolist(), max_new_tokens=8)
        for i in range(4)
    ]
    reg = MetricsRegistry()
    with use_registry(reg), graph_capture(True):
        serve_batch(model, requests, max_batch_size=4, voting=voting,
                    confidence_threshold=0.5)
    assert reg.counter("tensor/graph/captures").value > 0
    assert reg.counter("tensor/graph/replays").value > 0
    assert reg.counter("tensor/graph/invalidations").value == 0
    assert structure_version() == version
