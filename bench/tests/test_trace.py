import itertools

import pytest

from bench import trace
from bench.trace import EngineProxy, PoolProxy, Tracer, self_time, wrap_method


@pytest.fixture
def clock(monkeypatch):
    """perf_counter returning 0, 1, 2, ... on successive calls."""
    ticks = itertools.count()
    monkeypatch.setattr(trace.time, "perf_counter", lambda: float(next(ticks)))


def test_self_time_subtracts_children(clock):
    tracer = Tracer()
    with tracer.span("root"):  # starts at 0
        with tracer.span("a"):  # 1 .. 2
            pass
        with tracer.span("b"):  # 3 .. 6
            with tracer.span("c"):  # 4 .. 5
                pass
    # root ends at 7
    root, a, b, c = tracer.spans
    assert (root.duration, a.duration, b.duration, c.duration) == (7, 1, 3, 1)
    assert (root.self_s, a.self_s, b.self_s, c.self_s) == (3, 1, 2, 1)
    assert (a.parent, b.parent, c.parent) == (0, 0, 2)
    assert sum(s.self_s for s in tracer.spans) == root.duration
    assert self_time(tracer.spans, "b") == 2


def test_within_keeps_spans_started_in_the_phases(clock):
    tracer = Tracer()
    with tracer.span("before"):
        pass
    with tracer.span("phase") as phase:
        with tracer.span("inside"):
            pass
    assert [s.name for s in tracer.within([phase])] == ["phase", "inside"]


def test_chrome_trace_events(clock):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", request="r1", rows=2):
            pass
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" for e in events)
    inner = events[1]
    assert inner["ts"] == 1e6 and inner["dur"] == 1e6
    assert inner["args"]["parent"] == 0
    assert inner["args"]["request"] == "r1"
    assert inner["args"]["rows"] == 2
    assert events[0]["args"]["self_us"] == 2e6


class _Counter:
    def __init__(self):
        self.calls = 0

    def step(self):
        self.calls += 1
        return self.calls


def test_wrap_method_times_calls_until_unwrapped():
    tracer = Tracer()
    obj = _Counter()
    unwrap = wrap_method(obj, "step", tracer, "opt")
    assert obj.step() == 1
    unwrap()
    assert obj.step() == 2
    assert [s.name for s in tracer.spans] == ["opt"]
    assert "step" not in vars(obj)


class _Engine:
    speculative = False

    def prefill(self, prompt, caches, cached_len=0):
        return ("prefill", len(prompt) - cached_len)

    def decode_step(self, entries):
        return ("decode", len(entries))


class _Pool:
    max_resident_tokens = 64

    def allocate(self, request_id, tokens):
        return [request_id, tokens]

    def release(self, request_id):
        return request_id


def test_proxies_forward_and_record():
    tracer = Tracer()
    engine = EngineProxy(_Engine(), tracer)
    pool = PoolProxy(_Pool(), tracer)
    assert engine.speculative is False and pool.max_resident_tokens == 64
    assert engine.prefill([1, 2, 3], [], cached_len=1) == ("prefill", 2)
    assert engine.decode_step([object()] * 3) == ("decode", 3)
    assert pool.allocate("r", 5) == ["r", 5]
    assert pool.release("r") == "r"
    names = [(s.name, s.request, s.args.get("tokens"), s.args.get("rows"))
             for s in tracer.spans]
    assert names == [("engine.prefill", None, 2, None),
                     ("engine.decode", None, None, 3),
                     ("pool.lease", "r", None, None),
                     ("pool.release", "r", None, None)]
    assert tracer.spans[1].args["replayed"] is False
