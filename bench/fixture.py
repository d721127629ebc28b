"""The benchmark's model fixture: built once per source tree, then cached.

The fixture is not timed and is part of no metric.  It is a deterministic
checkpoint (d=128, 8 layers, 4 heads, vocab 64, max_len 256) pretrained on
the pretraining language, briefly fine-tuned at serving length so positions
past the 32-token training window stay sane, plus an untied draft exit head
at depth 4 distilled from the final head (as ``bench_ext_speculative``
does).  It also holds token banks the workloads draw their inputs from, so
no workload pays for corpus sampling inside its set-up.

The cache key hashes :data:`RECIPE` together with the bytes of every
``src/repro/**/*.py`` file: a commit never reuses another commit's weights.
The fixture seed is fixed; ``--seed`` only changes workload inputs.

Run ``python -m bench.fixture`` to build it ahead of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, "bench", ".cache")

RECIPE = {
    "model": dict(vocab_size=64, dim=128, num_layers=8, num_heads=4,
                  max_len=256, seed=0),
    "pretrain": dict(steps=250, batch=8, seq=32, lr=3e-3, corpus_seed=0,
                     order=1, data_seed=0),
    "long_finetune": dict(steps=30, batch=2, seq=224, lr=1e-3, data_seed=3),
    "draft": dict(exit=4, steps=60, batch=4, seq=224, lr=3e-3,
                  temperature=1.5, data_seed=1, head_seed=0),
    # Token banks: pretraining-language streams (chat and prefix-share
    # prompts) and target-language streams (adaptation batches,
    # calibration, evaluation and vote-exit prompts).
    "banks": dict(streams=48, stream_len=512, stream_seed=11,
                  target_corpus_seed=1, target_streams=96, target_len=264,
                  target_seed=12),
}


def source_hash(src: str = SRC) -> str:
    """sha256 over every ``repro/**/*.py`` path and its bytes."""
    digest = hashlib.sha256()
    package = os.path.join(src, "repro")
    if not os.path.isdir(package):
        raise FileNotFoundError(f"no repro package under {src}")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def fixture_key(src: str = SRC) -> str:
    recipe = json.dumps(RECIPE, sort_keys=True).encode()
    return hashlib.sha256(recipe + source_hash(src).encode()).hexdigest()[:16]


def fixture_dir(src: str = SRC) -> str:
    return os.path.join(CACHE_DIR, fixture_key(src))


@dataclasses.dataclass
class Fixture:
    model: object  # TransformerLM, dense, eval-ready
    draft_heads: object  # ExitHeadSet with the untied depth-4 head
    streams: object  # (streams, stream_len) pretraining-language tokens
    target: object  # (streams, target_len) target-language tokens
    key: str


def _pretrain(model, corpus, spec: Dict) -> None:
    import numpy as np

    from repro.data import lm_batches
    from repro.nn import AdamW
    from repro.tensor import cross_entropy

    opt = AdamW(model.parameters(), lr=spec["lr"])
    rng = np.random.default_rng(spec["data_seed"])
    for x, y in lm_batches(corpus, spec["batch"], spec["seq"], spec["steps"], rng):
        loss = cross_entropy(model(x), y)
        opt.zero_grad()
        loss.backward()
        opt.step()


def build(path: str) -> None:
    """Train and write the fixture into ``path`` (atomically)."""
    import numpy as np

    from repro.adaptive import ExitHeadSet, distill_exit_heads
    from repro.data import MarkovChainCorpus, lm_batches
    from repro.nn import TransformerConfig, TransformerLM, save_model

    model = TransformerLM(TransformerConfig(**RECIPE["model"]))
    pre = RECIPE["pretrain"]
    corpus = MarkovChainCorpus(vocab_size=RECIPE["model"]["vocab_size"],
                               order=pre["order"], seed=pre["corpus_seed"])
    _pretrain(model, corpus, pre)
    _pretrain(model, corpus, RECIPE["long_finetune"])
    d = RECIPE["draft"]
    heads = ExitHeadSet(model, exit_points=[d["exit"]], tie_embeddings=False,
                        seed=d["head_seed"])
    distill_exit_heads(
        model, heads,
        lm_batches(corpus, d["batch"], d["seq"], d["steps"],
                   np.random.default_rng(d["data_seed"])),
        lr=d["lr"], temperature=d["temperature"],
    )
    b = RECIPE["banks"]
    rng = np.random.default_rng(b["stream_seed"])
    streams = np.stack([corpus.sample(b["stream_len"], rng)
                        for _ in range(b["streams"])])
    target_corpus = MarkovChainCorpus(
        vocab_size=RECIPE["model"]["vocab_size"], order=pre["order"],
        seed=b["target_corpus_seed"],
    )
    rng = np.random.default_rng(b["target_seed"])
    target = np.stack([target_corpus.sample(b["target_len"], rng)
                       for _ in range(b["target_streams"])])

    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    save_model(model, os.path.join(tmp, "model.npz"))
    np.savez(os.path.join(tmp, "draft.npz"), **heads.state_dict())
    np.savez(os.path.join(tmp, "banks.npz"), streams=streams, target=target)
    with open(os.path.join(tmp, "recipe.json"), "w") as fh:
        json.dump(RECIPE, fh, indent=2, sort_keys=True)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)


def ensure(src: str = SRC) -> str:
    """Return the fixture directory for this source tree, building it
    first when the cache has none."""
    path = fixture_dir(src)
    if not os.path.isfile(os.path.join(path, "recipe.json")):
        build(path)
    return path


def load(path: str) -> Fixture:
    """Load a built fixture (the model is put in eval mode)."""
    import numpy as np

    from repro.adaptive import ExitHeadSet
    from repro.nn import load_model, load_state

    model = load_model(os.path.join(path, "model.npz"))
    model.eval()
    heads = ExitHeadSet(model, exit_points=[RECIPE["draft"]["exit"]],
                        tie_embeddings=False, seed=RECIPE["draft"]["head_seed"])
    heads.load_state_dict(load_state(os.path.join(path, "draft.npz")))
    with np.load(os.path.join(path, "banks.npz")) as banks:
        streams, target = banks["streams"], banks["target"]
    return Fixture(model, heads, streams, target, os.path.basename(path))


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    print(ensure())
