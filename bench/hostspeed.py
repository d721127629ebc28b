"""Time in reference-host units, from a fixed kernel timed between the
workload's operations.

On the reference host (2 vCPUs shared with other tenants) the CPU runs up
to about 2x slower than in its fast spells, for fractions of a second to
minutes, and whole runs can land in a slow spell.  Raw medians of
identical runs then spread 12-30% between runs, and no length of run or
best-of-rounds rule fits inside the benchmark's bounds.

:class:`HostSpeed` times a fixed numpy kernel between the workload's
operations, one that does the same kinds of work as those operations
(:data:`KERNELS`).  ``train`` is four ``tanh(h @ w)`` layers over a
256 x 128 activation, one adaptation batch.  ``serve`` adds six passes of
four normalised layers over 8 rows (a decode step of a full batch) and
the small per-token work of top-k sampling over a 64-token vocabulary:
scheduler steps at small batches spend much of their time there, and
the host's slow spells slow such work more than they slow dense layers.
The kernel does not call ``repro``, so no change to the program under
test moves it, and it slows down with the host much as the workload
does.  In one process serving the same rounds over and over, identical
rounds spread 13-32% in wall time and 3.5-7% once each operation was
divided by the kernel time just before it.  A kernel timed once per
round, or a run's best kernel time, tracks the host too coarsely: the
speed changes within a round.

Every time metric is wall time x ``NOMINAL_S`` / (the kernel's recent
time): the time the operation takes on the reference host while the
kernel runs in ``NOMINAL_S``, its time in a fast spell there.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from .stats import median

KERNELS: Dict[str, Tuple[str, ...]] = {
    "train": ("batch",),
    "serve": ("batch", "decode", "sampling"),
}
# Each kernel's time in the reference host's fast spells.  They keep the
# unit of an earlier kernel (batch and decode parts, 0.62 ms): each is
# 0.62 ms times its time over that kernel's, both timed first after a
# workload operation.
NOMINAL_S = {"train": 0.32e-3, "serve": 0.88e-3}
WINDOW = 3  # recent kernel samples behind each conversion
SAMPLE_EVERY_S = 0.02  # workload wall time between kernel samples
WARMUP_SAMPLES = 5
WIDTH, LAYERS = 128, 4
BATCH_ROWS = 256  # one adaptation batch: 8 x 32 tokens
DECODE_ROWS, DECODE_PASSES = 8, 6  # one decode step of a full batch
VOCAB, TOP_K, SAMPLED_TOKENS = 64, 8, 40


def _null_span(*_, **__):
    return contextlib.nullcontext()


class HostSpeed:
    """Converts wall seconds of workload time into reference-host seconds.

    Call :meth:`tick` with the wall time of each operation, right after
    it: it converts with the last :data:`WINDOW` kernel samples, then
    times the kernel again once :data:`SAMPLE_EVERY_S` of workload time
    has passed since the last sample.  The kernel's own time is never part
    of a measurement.
    """

    def __init__(self, kernel: str):
        self.nominal_s = NOMINAL_S[kernel]
        self._parts = [getattr(self, f"_{part}") for part in KERNELS[kernel]]
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((BATCH_ROWS, WIDTH)).astype(np.float32)
        self._token = rng.standard_normal((DECODE_ROWS, WIDTH)).astype(np.float32)
        self._w = [(rng.standard_normal((WIDTH, WIDTH)) / np.sqrt(WIDTH))
                   .astype(np.float32) for _ in range(LAYERS)]
        self._logits = rng.standard_normal(VOCAB).astype(np.float32)
        self.samples: List[float] = []
        self.spent = 0.0  # wall seconds spent sampling
        self._since = 0.0
        self.span = _null_span  # set to a tracer's span to record samples
        for _ in range(WARMUP_SAMPLES):
            self._kernel()

    def _batch(self) -> None:
        h = self._x
        for w in self._w:
            h = np.tanh(h @ w)

    def _decode(self) -> None:
        for _ in range(DECODE_PASSES):
            h = self._token
            for w in self._w:
                h = h @ w
                h = h / np.sqrt((h * h).mean(axis=-1, keepdims=True) + 1e-6)

    def _sampling(self) -> None:
        logits = self._logits
        for _ in range(SAMPLED_TOKENS):
            p = np.exp(logits - logits.max())
            p /= p.sum()
            int(p.argmax())
            np.argsort(p)[-TOP_K:]

    def _kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for part in self._parts:
                part()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> float:
        """Time the kernel once (garbage collection paused)."""
        start = time.perf_counter()
        with self.span("bench.hostspeed"):
            seconds = self._kernel()
        self.samples.append(seconds)
        self.spent += time.perf_counter() - start
        self._since = 0.0
        return seconds

    def scale(self) -> float:
        """Reference-host seconds per wall second, right now."""
        if not self.samples:
            self.sample()
        return self.nominal_s / median(self.samples[-WINDOW:])

    def tick(self, wall_s: float) -> float:
        """``wall_s`` of workload time, in reference-host seconds."""
        ref_s = wall_s * self.scale()
        self._since += wall_s
        if self._since >= SAMPLE_EVERY_S:
            self.sample()
        return ref_s

    def settle(self) -> None:
        """Fill the window with fresh samples, before a measurement that
        follows other work."""
        for _ in range(WINDOW):
            self.sample()

    def slowdown(self, since: int = 0) -> float:
        """Median kernel time of the samples from index ``since`` on, over
        the kernel's nominal time (1.0: the host in a fast spell)."""
        return median(self.samples[since:]) / self.nominal_s
