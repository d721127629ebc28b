"""``BENCHMARK.json`` is well formed and matches the code."""

import re

import pytest

from bench import spec
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def declared():
    return spec.load()


def test_top_level_shape(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    command = declared["command"]
    assert 1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200
                                           for c in command)
    assert not any(c.startswith("/") or ".." in c for c in command)
    assert 1 <= len(declared["paths"]) <= 16
    assert all(PATH.match(p) and ".." not in p for p in declared["paths"])
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60


def test_workloads_match_the_code(declared):
    workloads = declared["workloads"]
    assert 2 <= len(workloads) <= 8
    assert all(set(w) == {"name", "why"} for w in workloads)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in workloads)
    assert [w["name"] for w in workloads] == list(WORKLOADS)


def test_metric_declarations(declared):
    e2e, layers = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_setup_time_has_the_largest_bound(declared):
    setup = spec.metrics("end_to_end", declared)["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
