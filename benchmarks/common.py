"""Shared benchmark infrastructure.

Every benchmark regenerates one reconstructed table/figure (see DESIGN.md)
and emits it three ways:

* printed to stdout (for humans watching the run),
* ``benchmarks/results/<name>.txt`` — the aligned plain-text table,
* ``benchmarks/results/<name>.json`` — a machine-readable sidecar with
  schema ``{bench, title, schema_version, headers, rows, metrics,
  config}`` that CI validates, diffs and uploads as an artifact.

Sizing knobs (``PRETRAIN_STEPS``, ``ADAPT_STEPS``) can be shrunk through
environment variables for smoke runs: ``REPRO_BENCH_PRETRAIN_STEPS`` and
``REPRO_BENCH_ADAPT_STEPS``.
"""

import json
import math
import os
from typing import Dict, Optional, Sequence

import numpy as np

from bench.cli import git_sha, host_stamp
from repro.data import MarkovChainCorpus, MultipleChoiceTask, lm_batches
from repro.nn import AdamW, TransformerConfig, TransformerLM
from repro.tensor import cross_entropy
from repro.utils import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SIDECAR_SCHEMA_VERSION = 1

VOCAB = 64
DIM = 64
LAYERS = 8
HEADS = 4
SEQ = 32
BATCH = 8
PRETRAIN_STEPS = int(os.environ.get("REPRO_BENCH_PRETRAIN_STEPS", 250))
ADAPT_STEPS = int(os.environ.get("REPRO_BENCH_ADAPT_STEPS", 60))
PRETRAIN_SEED = 0
ADAPT_SEED = 1

# Adaptive-tuning setup used across benches (calibrated so the modeled
# speedup lands in the paper's regime; see EXPERIMENTS.md).
EXIT_POINTS = [3, 6, 8]
WINDOW = 2
BUDGET = 0.30

# Shared setup recorded in every sidecar's "config" (per-bench overrides
# are merged on top by ``emit``).
BENCH_CONFIG = {
    "vocab": VOCAB,
    "dim": DIM,
    "layers": LAYERS,
    "heads": HEADS,
    "seq": SEQ,
    "batch": BATCH,
    "pretrain_steps": PRETRAIN_STEPS,
    "adapt_steps": ADAPT_STEPS,
    "exit_points": EXIT_POINTS,
    "window": WINDOW,
    "budget": BUDGET,
}


def bench_config(**overrides) -> TransformerConfig:
    defaults = dict(
        vocab_size=VOCAB, dim=DIM, num_layers=LAYERS, num_heads=HEADS,
        max_len=128, seed=0,
    )
    defaults.update(overrides)
    return TransformerConfig(**defaults)


def pretrain_corpus() -> MarkovChainCorpus:
    return MarkovChainCorpus(vocab_size=VOCAB, order=1, seed=PRETRAIN_SEED)


def adapt_corpus() -> MarkovChainCorpus:
    return MarkovChainCorpus(vocab_size=VOCAB, order=1, seed=ADAPT_SEED)


def qa_task() -> MultipleChoiceTask:
    return MultipleChoiceTask(
        adapt_corpus(), num_choices=4, prompt_len=12, answer_len=5, seed=7
    )


def pretrain_model(steps: int = PRETRAIN_STEPS) -> TransformerLM:
    """Train the shared base model on the pretraining language."""
    model = TransformerLM(bench_config())
    corpus = pretrain_corpus()
    rng = np.random.default_rng(0)
    opt = AdamW(model.parameters(), lr=3e-3)
    for inputs, targets in lm_batches(corpus, BATCH, SEQ, steps, rng):
        loss = cross_entropy(model(inputs), targets)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return model


def clone_model(state) -> TransformerLM:
    model = TransformerLM(bench_config())
    model.load_state_dict(state)
    return model


def adapt_batches(n_steps: int = ADAPT_STEPS, seed: int = 0):
    return lm_batches(adapt_corpus(), BATCH, SEQ, n_steps, np.random.default_rng(seed))


def calib_batch(corpus, seed: int = 42):
    return next(lm_batches(corpus, 4, SEQ, 1, np.random.default_rng(seed)))


# ----------------------------------------------------------------------
# Result emission + sidecar schema


def _json_value(value):
    """Coerce cells to JSON scalars (numpy types included)."""
    if hasattr(value, "item") and getattr(value, "size", None) == 1:
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None  # NaN/inf are not valid strict JSON
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return str(value)


def validate_sidecar(payload: Dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a schema-valid sidecar."""
    def fail(message: str):
        raise ValueError(f"invalid benchmark sidecar: {message}")

    if not isinstance(payload, dict):
        fail("payload is not an object")
    required = ["bench", "title", "schema_version", "headers", "rows",
                "metrics", "config"]
    for key in required:
        if key not in payload:
            fail(f"missing key {key!r}")
    if payload["schema_version"] != SIDECAR_SCHEMA_VERSION:
        fail(f"schema_version must be {SIDECAR_SCHEMA_VERSION}")
    if not isinstance(payload["bench"], str) or not payload["bench"]:
        fail("bench must be a non-empty string")
    if not isinstance(payload["title"], str) or not payload["title"]:
        fail("title must be a non-empty string")
    headers = payload["headers"]
    if (
        not isinstance(headers, list)
        or not headers
        or not all(isinstance(h, str) for h in headers)
    ):
        fail("headers must be a non-empty list of strings")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        fail("rows must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"row {i} is not an object")
        if sorted(row.keys()) != sorted(headers):
            fail(f"row {i} keys {sorted(row)} do not match headers")
        for key, value in row.items():
            if not isinstance(value, (bool, int, float, str)) and value is not None:
                fail(f"row {i} cell {key!r} is not a JSON scalar")
    for section in ("metrics", "config"):
        block = payload[section]
        if not isinstance(block, dict):
            fail(f"{section} must be an object")
        for key, value in block.items():
            if not isinstance(key, str):
                fail(f"{section} key {key!r} is not a string")
            scalar = isinstance(value, (bool, int, float, str)) or value is None
            scalar_list = isinstance(value, list) and all(
                isinstance(v, (bool, int, float, str)) for v in value
            )
            if not (scalar or scalar_list):
                fail(f"{section}[{key!r}] is not a JSON scalar or scalar list")


def host_config() -> Dict:
    """The host a sidecar was measured on, stamped as the repo benchmark
    (``bench``) stamps its runs, flattened to scalars for ``config``:
    CPUs in the affinity mask, the BLAS thread variables, the Python and
    numpy versions, the machine and the git sha."""
    stamp = host_stamp(os.environ, np.__version__)
    blas = stamp.pop("blas_threads")
    config = {f"host_{key}": value for key, value in stamp.items()}
    config.update({f"host_{name.lower()}": value for name, value in blas.items()})
    config["git_sha"] = git_sha()
    return config


def emit(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    metrics: Optional[Dict] = None,
    config: Optional[Dict] = None,
) -> Dict:
    """Print a result table and persist it (.txt + schema-valid .json).

    ``metrics`` carries the bench's headline scalars (the values its
    assertions and the BENCH trajectory care about); ``config`` holds
    per-bench setup merged over the shared ``BENCH_CONFIG`` and the
    :func:`host_config` stamp.  Returns the sidecar payload.
    """
    table = format_table(headers, rows)
    text = f"{title}\n{table}\n"
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text)

    headers = list(headers)
    payload = {
        "bench": name,
        "title": title,
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "headers": headers,
        "rows": [
            dict(zip(headers, [_json_value(v) for v in row])) for row in rows
        ],
        "metrics": {k: _json_value(v) for k, v in (metrics or {}).items()},
        "config": {
            **BENCH_CONFIG,
            **host_config(),
            **{k: _json_value(v) for k, v in (config or {}).items()},
        },
    }
    validate_sidecar(payload)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
