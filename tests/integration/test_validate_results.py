"""Unit tests for the benchmark sidecar validator's metric bars."""

import json
import os

import numpy as np
import pytest

from bench.cli import git_sha
from benchmarks import common
from benchmarks.common import SIDECAR_SCHEMA_VERSION
from benchmarks.validate_results import (
    check_min_metrics,
    known_bench_names,
    parse_min_metric,
    validate_directory,
)


def _payload(bench="ext_slicing", metrics=None):
    return {
        "bench": bench,
        "title": "t",
        "headers": ["a"],
        "rows": [[1]],
        "metrics": metrics or {"decode_speedup": 1.7},
        "config": {},
    }


class TestKnownBenchNames:
    def test_discovers_real_modules(self):
        names = known_bench_names()
        assert "ext_slicing" in names
        assert "fig3_speedup" in names
        assert "validate_results" not in names

    def test_respects_bench_dir(self, tmp_path):
        (tmp_path / "bench_foo.py").write_text("")
        assert known_bench_names(str(tmp_path)) == {"foo"}


class TestParse:
    def test_roundtrip(self):
        assert parse_min_metric("b:m:1.5") == ("b", "m", 1.5)

    def test_malformed(self):
        with pytest.raises(ValueError, match="not BENCH:METRIC:THRESHOLD"):
            parse_min_metric("b:m")
        with pytest.raises(ValueError, match="not a number"):
            parse_min_metric("b:m:fast")


class TestMinMetrics:
    def test_unknown_bench_is_an_error_even_with_sidecar(self):
        # A stale sidecar left behind by a renamed bench must not
        # silently satisfy the bar.
        payloads = [_payload(bench="ghost")]
        errors = check_min_metrics(
            payloads, ["ghost:decode_speedup:1.3"], known={"ext_slicing"}
        )
        assert len(errors) == 1
        assert "unknown benchmark 'ghost'" in errors[0]
        assert "bench_ghost.py" in errors[0]

    def test_known_bench_passes_and_fails_on_threshold(self):
        payloads = [_payload()]
        known = {"ext_slicing"}
        assert not check_min_metrics(
            payloads, ["ext_slicing:decode_speedup:1.3"], known=known
        )
        errors = check_min_metrics(
            payloads, ["ext_slicing:decode_speedup:2.0"], known=known
        )
        assert errors and "< 2.0" in errors[0]

    def test_missing_sidecar_and_metric(self):
        known = {"ext_slicing"}
        errors = check_min_metrics(
            [], ["ext_slicing:decode_speedup:1.3"], known=known
        )
        assert errors and "no sidecar" in errors[0]
        errors = check_min_metrics(
            [_payload()], ["ext_slicing:nope:1.3"], known=known
        )
        assert errors and "no metric" in errors[0]


class TestExpect:
    def test_stale_sidecar_does_not_satisfy_expect(self, tmp_path):
        # A valid, paired sidecar whose bench module is gone.
        sidecar = {
            "bench": "ghost", "title": "t",
            "schema_version": SIDECAR_SCHEMA_VERSION,
            "headers": ["a"], "rows": [{"a": 1}],
            "metrics": {}, "config": {},
        }
        (tmp_path / "ghost.json").write_text(json.dumps(sidecar))
        (tmp_path / "ghost.txt").write_text("t\n")
        assert validate_directory(str(tmp_path)) == []
        errors = validate_directory(str(tmp_path), expect=["ghost"])
        assert len(errors) == 1
        assert "bench_ghost.py" in errors[0]


class TestHostStamp:
    def test_emit_stamps_the_host(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        common.emit("probe", "t", ["a"], [[1]], config={"seq": 7})
        with open(tmp_path / "probe.json") as fh:
            sidecar = json.load(fh)
        common.validate_sidecar(sidecar)
        config = sidecar["config"]
        assert config["host_cpus"] == len(os.sched_getaffinity(0))
        assert config["host_openblas_num_threads"] == "1"
        assert config["host_mkl_num_threads"] is None
        assert "host_omp_num_threads" in config
        assert config["host_numpy"] == np.__version__
        assert config["host_python"] and config["host_machine"]
        assert config["git_sha"] == git_sha()
        assert config["seq"] == 7  # per-bench config still wins
