"""Guards against documentation rot: DESIGN.md's experiment index, the
table of benchmarks/README.md and the CLI snippets of README.md and
docs/*.md must match the actual repository."""

import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def read(name):
    with open(os.path.join(ROOT, name)) as fh:
        return fh.read()


class TestDesignIndex:
    def test_every_referenced_bench_exists(self):
        design = read("DESIGN.md")
        refs = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert refs, "DESIGN.md must reference benchmark files"
        for ref in refs:
            assert os.path.exists(os.path.join(ROOT, "benchmarks", ref)), ref

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        bench_dir = os.path.join(ROOT, "benchmarks")
        files = {
            f for f in os.listdir(bench_dir)
            if f.startswith("bench_") and f.endswith(".py")
        }
        refs = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        missing = files - refs
        assert not missing, f"benches missing from DESIGN.md index: {missing}"

    def test_every_bench_file_has_a_readme_row(self):
        readme = read(os.path.join("benchmarks", "README.md"))
        bench_dir = os.path.join(ROOT, "benchmarks")
        files = {
            f for f in os.listdir(bench_dir)
            if f.startswith("bench_") and f.endswith(".py")
        }
        rows = set(re.findall(r"^\| `(bench_\w+\.py)` \|", readme, re.MULTILINE))
        missing = files - rows
        assert not missing, f"benches missing from benchmarks/README.md: {missing}"

    def test_experiment_ids_covered_in_experiments_md(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = set(re.findall(r"\b(R-[TFA]\d\w*)\b", design))
        assert ids
        for exp_id in ids:
            assert exp_id in experiments, (
                f"{exp_id} indexed in DESIGN.md but absent from EXPERIMENTS.md"
            )


class TestReadmeClaims:
    def test_cli_snippets_parse(self):
        from repro.cli import build_parser

        readme = read("README.md")
        assert "python -m repro " in readme, "README must show CLI usage"
        docs = sorted(
            f for f in os.listdir(os.path.join(ROOT, "docs")) if f.endswith(".md")
        )
        parser = build_parser()
        commands = []
        for text in [readme] + [read(os.path.join("docs", f)) for f in docs]:
            text = text.replace("\\\n", " ")  # join continuation lines
            commands += re.findall(r"python -m repro ([a-z][a-z-]*)([^\n]*)", text)
        for sub, rest in commands:
            rest = rest.split("#")[0]  # strip trailing comments
            argv = [sub] + rest.split()
            # Fill required arguments with placeholders.
            if "--out" not in argv and sub == "pretrain":
                argv += ["--out", "x.npz"]
            if "--model" not in argv and sub in (
                "evaluate", "compress", "adapt", "generate", "serve-sim"
            ):
                argv += ["--model", "x.npz"]
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_example_table_matches_files(self):
        readme = read("README.md")
        listed = set(re.findall(r"`(\w+\.py)`", readme))
        example_files = {
            f for f in os.listdir(os.path.join(ROOT, "examples"))
            if f.endswith(".py")
        }
        for f in example_files:
            assert f in listed, f"example {f} not mentioned in README"

    def test_headline_claim_present(self):
        assert "2.92" in read("README.md")
        assert "2.92" in read("EXPERIMENTS.md")


class TestResultsArtifacts:
    def test_results_dir_populated_after_bench_runs(self):
        results = os.path.join(ROOT, "benchmarks", "results")
        if not os.path.isdir(results):
            pytest.skip("benchmarks have not been run yet")
        files = os.listdir(results)
        assert any(f.endswith(".txt") for f in files)
