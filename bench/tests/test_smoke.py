"""Short end-to-end runs of the real command.

``--seconds 1`` is 1/20 of the declared run length; every round count
falls to its floor.  The untraced run of all four workloads must finish
in 90 s on the reference host once the fixture is built.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from bench import spec

ROOT = spec.ROOT


def _bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def fixture_built():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    subprocess.run([sys.executable, "-m", "bench.fixture"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=900)


def _check(proc, kind, out_path):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec.metrics(kind)
    with open(out_path) as fh:
        record = json.load(fh)
    assert list(record["workloads"]) == [w["name"] for w in spec.load()["workloads"]]
    for name, workload in record["workloads"].items():
        assert set(workload["metrics"]) == set(declared), name
        for metric, value in workload["metrics"].items():
            assert value["unit"] == declared[metric]["unit"]
        assert all(not v for k, v in workload["checks"].items()
                   if k.endswith(("mismatch", "incomplete"))), name
    return record


def test_untraced_smoke_run(fixture_built, tmp_path):
    out = tmp_path / "run.json"
    start = time.monotonic()
    proc = _bench("run", "--seconds", "1", "--seed", "3", "--out", str(out))
    elapsed = time.monotonic() - start
    record = _check(proc, "end_to_end", out)
    assert record["workloads"]["adapt"]["checks"]["ppl_improved"]
    assert record["stamp"]["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert elapsed < 90


def test_traced_smoke_run(fixture_built, tmp_path):
    out = tmp_path / "run.json"
    traces = tmp_path / "traces"  # not created beforehand
    proc = _bench("run", "--seconds", "1", "--seed", "3", "--trace", "1",
                  "--trace-out", str(traces / "trace.json"), "--out", str(out))
    record = _check(proc, "per_layer", out)
    for name in record["workloads"]:
        with open(traces / f"trace.{name}.json") as fh:
            assert json.load(fh)["traceEvents"]
        coverage = record["workloads"][name]["metrics"]["bench.span_coverage_frac"]
        assert coverage["value"] >= 0.95


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = _bench("run", "--workload", "chat", "--seed", "1", "--seconds", "20",
                  "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
