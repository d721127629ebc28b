"""End-to-end tests of the CLI workflows."""

import json
import os

import pytest

from repro.cli import main

FAST_MODEL = [
    "--vocab", "32", "--dim", "32", "--layers", "4", "--heads", "4",
    "--max-len", "64",
]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "base.npz")
    rc = main([
        "pretrain", *FAST_MODEL, "--steps", "60", "--out", path,
        "--batch", "8", "--seq", "24",
    ])
    assert rc == 0
    return path


class TestPretrain:
    def test_checkpoint_written(self, checkpoint):
        assert os.path.exists(checkpoint)

    def test_checkpoint_loadable(self, checkpoint):
        from repro.nn import load_model

        model = load_model(checkpoint)
        assert model.num_layers == 4


class TestEvaluate:
    def test_json_output(self, checkpoint, capsys):
        rc = main([
            "evaluate", *FAST_MODEL, "--model", checkpoint,
            "--qa-items", "10",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["perplexity"] > 1.0
        assert 0.0 <= out["qa_accuracy"] <= 1.0

    def test_shifted_language_worse(self, checkpoint, capsys):
        main(["evaluate", *FAST_MODEL, "--model", checkpoint])
        in_domain = json.loads(capsys.readouterr().out)["perplexity"]
        main(["evaluate", *FAST_MODEL, "--model", checkpoint,
              "--language-seed", "5"])
        shifted = json.loads(capsys.readouterr().out)["perplexity"]
        assert shifted > in_domain


class TestCompress:
    def test_policy_printed_and_saved(self, checkpoint, capsys, tmp_path):
        out = str(tmp_path / "policy.json")
        rc = main([
            "compress", *FAST_MODEL, "--model", checkpoint,
            "--budget", "0.3", "--out", out,
        ])
        assert rc == 0
        assert "LUCPolicy" in capsys.readouterr().out
        policy = json.load(open(out))
        assert len(policy) == 4
        assert all("bits" in layer for layer in policy)


class TestAdapt:
    def test_full_pipeline(self, checkpoint, capsys):
        rc = main([
            "adapt", *FAST_MODEL, "--model", checkpoint,
            "--steps", "20", "--batch", "4", "--seq", "24",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["speedup_vs_vanilla"] > 1.0
        assert out["adapted_perplexity"] < 100
        assert out["policy_cost"] <= 0.3 + 1e-9

    def test_negative_lr_fails_before_compressing(self, checkpoint, monkeypatch):
        from repro.pipeline import EdgeLLM

        def compress(*args, **kwargs):
            raise AssertionError("compress ran with an invalid config")

        monkeypatch.setattr(EdgeLLM, "compress", compress)
        with pytest.raises(ValueError, match="lr"):
            main(["adapt", *FAST_MODEL, "--model", checkpoint, "--lr", "-1"])


class TestAdaptSharded:
    def test_sharded_pipeline_runs(self, checkpoint, capsys):
        rc = main([
            "adapt", *FAST_MODEL, "--model", checkpoint,
            "--steps", "6", "--batch", "4", "--seq", "24",
            "--shards", "2", "--micro-batches", "2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["adapted_perplexity"] < 100
        assert len(out["stage_memory_bytes"]) == 2


class TestSpeedup:
    def test_reports_speedup(self, capsys):
        rc = main(["speedup", *FAST_MODEL])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["speedup"] > 1.0
        assert 0.0 < out["edge_utilization"] <= 1.0


class TestGenerate:
    def test_explicit_prompt(self, checkpoint, capsys):
        rc = main([
            "generate", "--model", checkpoint, "--prompt", "1", "2", "3",
            "--max-new-tokens", "5",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["prompt"] == [1, 2, 3]
        assert len(out["tokens"]) == 5
        assert out["finish_reason"] == "length"
        assert out["greedy"] is True

    def test_greedy_is_deterministic(self, checkpoint, capsys):
        argv = ["generate", "--model", checkpoint, "--max-new-tokens", "6"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_voting_decode(self, checkpoint, capsys):
        rc = main([
            "generate", "--model", checkpoint, "--prompt", "1", "2",
            "--max-new-tokens", "4", "--exits", "1", "2",
            "--confidence", "0.2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["tokens"]) == 4
        assert 0 <= out["early_exit_tokens"] <= 4

    def test_confidence_without_exits_fails(self, checkpoint):
        with pytest.raises(SystemExit):
            main([
                "generate", "--model", checkpoint, "--prompt", "1",
                "--confidence", "0.5",
            ])

    def test_sharded_matches_single_process(self, checkpoint, capsys):
        argv = [
            "generate", "--model", checkpoint, "--prompt", "1", "2", "3",
            "--max-new-tokens", "5",
        ]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(argv + ["--shards", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["tokens"] == plain["tokens"]
        assert sharded["shards"] == 2

    def test_sharded_rejects_sampling(self, checkpoint):
        with pytest.raises(SystemExit):
            main([
                "generate", "--model", checkpoint, "--prompt", "1",
                "--shards", "2", "--sample",
            ])


class TestServeSim:
    def test_summary_accounts_for_every_request(self, checkpoint, capsys):
        rc = main([
            "serve-sim", "--model", checkpoint, "--requests", "5",
            "--prompt-len", "6", "--max-new-tokens", "4",
            "--max-batch", "3",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] == 5
        assert out["completed"] == 5
        assert out["rejected"] == 0
        assert out["new_tokens"] == 20
        assert out["tokens_per_s"] > 0

    def test_staggered_arrivals_and_deadlines(self, checkpoint, capsys):
        rc = main([
            "serve-sim", "--model", checkpoint, "--requests", "6",
            "--max-new-tokens", "4", "--max-batch", "2",
            "--arrival-per-step", "2", "--deadline", "60",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["completed"] + out["deadline_evictions"] == 6

    def test_tight_budget_rejects(self, checkpoint, capsys):
        # Every request reserves 6 + 4 = 10 tokens > the 8-token budget.
        rc = main([
            "serve-sim", "--model", checkpoint, "--requests", "3",
            "--prompt-len", "6", "--max-new-tokens", "4",
            "--max-resident-tokens", "8",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] == 3
        assert out["rejected"] == 3
        assert out["completed"] == 0

    def test_sharded_serving(self, checkpoint, capsys):
        rc = main([
            "serve-sim", "--model", checkpoint, "--requests", "4",
            "--prompt-len", "6", "--max-new-tokens", "4", "--shards", "2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] == 4
        assert out["completed"] == 4
        assert out["new_tokens"] == 16
        assert out["shards"] == 2

    def test_sharded_rejects_scheduler_features(self, checkpoint):
        with pytest.raises(SystemExit):
            main([
                "serve-sim", "--model", checkpoint, "--shards", "2",
                "--prefix-sharing",
            ])

    def test_telemetry_report_covers_serving(
        self, checkpoint, capsys, tmp_path
    ):
        report = str(tmp_path / "serve.json")
        rc = main([
            "serve-sim", "--model", checkpoint, "--requests", "3",
            "--max-new-tokens", "3", "--telemetry-out", report,
        ])
        assert rc == 0
        assert os.path.exists(report)
        capsys.readouterr()
        assert main(["report", report]) == 0
        text = capsys.readouterr().out
        for metric in ("serve/tokens_generated", "serve/admitted",
                       "serve/ttft", "serve/requests"):
            assert metric in text


class TestCache:
    def test_inspect_and_prune(self, capsys, tmp_path):
        from repro.parallel import EvalCache

        cache_dir = str(tmp_path / "cache")
        cache = EvalCache(cache_dir)
        for i in range(4):
            cache.get_or_compute((i,), lambda: i)
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["files"] == 4 and out["bytes"] > 0
        assert main([
            "cache", "--cache-dir", cache_dir, "--prune-to", "0",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["removed"] == 4
        assert out["files"] == 0 and out["bytes"] == 0

    def test_empty_dir(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "cache_dir": str(tmp_path), "namespace": "eval",
            "files": 0, "bytes": 0,
        }
