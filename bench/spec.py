"""The benchmark's declaration, ``BENCHMARK.json`` at the repository root."""

from __future__ import annotations

import json
import os
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "BENCHMARK.json")


def load(path: str = PATH) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def metrics(kind: str, spec: Dict = None) -> Dict[str, Dict]:
    """Declared metrics of ``kind`` (``end_to_end`` or ``per_layer``),
    keyed by name."""
    spec = spec if spec is not None else load()
    return {m["name"]: m for m in spec[kind]}
