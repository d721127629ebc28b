"""In-memory spans recorded from outside the program under test.

The benchmark never edits ``src/``: it times the public calls it makes and
wraps the objects it hands to the serving stack.

* :class:`EngineProxy` and :class:`PoolProxy` forward every attribute to a
  :class:`~repro.serve.GenerationEngine` / :class:`~repro.serve.CachePool`
  and time the calls the scheduler makes into them.
* :func:`wrap_method` replaces one bound method on an instance (the
  trainer's optimizer step) with a timed one.

A span's self time is its duration minus the time its child spans cover.
Spans export as Chrome trace-event JSON (open in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from typing import Dict, Iterator, List, Optional

from repro.obs import get_registry


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    request: Optional[str] = None
    args: Dict = dataclasses.field(default_factory=dict)
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans in one thread, in start order."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None,
             **args) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent=parent,
                      request=request, args=args)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += record.duration

    def within(self, phases: List[Span]) -> List[Span]:
        """Finished spans that started inside any of ``phases``."""
        return [s for s in self.spans if s.end and any(
            p.start <= s.start < p.end for p in phases)]

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0].start
        pid = os.getpid()
        events = []
        for index, s in enumerate(self.spans):
            args = dict(s.args, span=index, parent=s.parent,
                        self_us=s.self_s * 1e6)
            if s.request is not None:
                args["request"] = s.request
            events.append({
                "name": s.name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def self_time(spans: List[Span], name: str) -> float:
    """Summed self time of the spans called ``name``."""
    return sum(s.self_s for s in spans if s.name == name)


def wrap_method(obj, method: str, tracer: Tracer, span_name: str):
    """Time every call of ``obj.<method>`` as a ``span_name`` span until
    the returned function is called."""
    own = method in vars(obj)
    inner = getattr(obj, method)

    def timed(*args, **kwargs):
        with tracer.span(span_name):
            return inner(*args, **kwargs)

    def unwrap():
        if own:
            setattr(obj, method, inner)
        else:
            delattr(obj, method)

    setattr(obj, method, timed)
    return unwrap


def graph_replays() -> int:
    """Captured-graph replays so far in the active ``repro.obs`` registry."""
    return get_registry().counter("tensor/graph/replays").value


@contextlib.contextmanager
def replay_span(tracer: Tracer, name: str, **args) -> Iterator[Span]:
    """A span whose ``replayed`` arg says whether any captured graph
    replayed inside it."""
    with tracer.span(name, **args) as record:
        before = graph_replays()
        yield record
        record.args["replayed"] = graph_replays() > before


class EngineProxy:
    """A GenerationEngine whose prefill/decode calls record spans."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def prefill(self, prompt, caches, cached_len: int = 0):
        with self._tracer.span("engine.prefill",
                               tokens=len(prompt) - cached_len):
            return self._engine.prefill(prompt, caches, cached_len=cached_len)

    def decode_step(self, entries):
        with replay_span(self._tracer, "engine.decode", rows=len(entries)):
            return self._engine.decode_step(entries)

    def speculative_decode_step(self, entries, max_new=None):
        with replay_span(self._tracer, "engine.spec", rows=len(entries)):
            return self._engine.speculative_decode_step(entries, max_new)


class PoolProxy:
    """A CachePool whose lease/commit/release calls record spans."""

    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def allocate(self, request_id, tokens):
        with self._tracer.span("pool.lease", request=request_id):
            return self._pool.allocate(request_id, tokens)

    def allocate_shared(self, request_id, prompt, reserved_tokens):
        with self._tracer.span("pool.lease", request=request_id):
            return self._pool.allocate_shared(request_id, prompt,
                                              reserved_tokens)

    def commit_prefix(self, request_id, tokens):
        with self._tracer.span("pool.commit", request=request_id):
            return self._pool.commit_prefix(request_id, tokens)

    def promote_and_release(self, request_id, tokens):
        with self._tracer.span("pool.release", request=request_id):
            return self._pool.promote_and_release(request_id, tokens)

    def release(self, request_id):
        with self._tracer.span("pool.release", request=request_id):
            return self._pool.release(request_id)
