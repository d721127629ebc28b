"""JSON report round-trip, JSONL tables, and pretty-printing."""

import json

import pytest

from repro.obs import (
    REPORT_SCHEMA_VERSION,
    build_report,
    format_report,
    load_report,
    report_spans,
    span,
    use_registry,
    write_report,
    write_table_jsonl,
)


def _populated_registry():
    from repro.obs import get_registry

    reg = get_registry()
    reg.counter("luc/search/candidates_evaluated").inc(12)
    reg.gauge("adapt/last_loss").set(2.5)
    with span("adapt"):
        with span("iter", index=0):
            pass
    reg.record_row("adapt/iter", iteration=0, loss=2.5)
    reg.record_row("adapt/iter", iteration=1, loss=2.0)
    return reg


def test_report_round_trip(tmp_path):
    path = str(tmp_path / "run.json")
    with use_registry() as reg:
        _populated_registry()
        written = write_report(path, reg, meta={"command": "adapt"})
    loaded = load_report(path)
    assert loaded == json.loads(json.dumps(written))  # identical after JSON
    assert loaded["schema_version"] == REPORT_SCHEMA_VERSION
    assert loaded["meta"] == {"command": "adapt"}
    assert loaded["counters"]["luc/search/candidates_evaluated"] == 12
    assert loaded["gauges"]["adapt/last_loss"] == 2.5
    assert loaded["tables"]["adapt/iter"][1]["loss"] == 2.0
    assert loaded["span_summary"]["adapt/iter"]["count"] == 1
    # span forest re-hydrates with structure intact
    (root,) = report_spans(loaded)
    assert root.path == "adapt"
    assert root.children[0].meta == {"index": 0}


def test_load_report_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 999}))
    with pytest.raises(ValueError, match="schema_version"):
        load_report(str(path))


def test_write_table_jsonl(tmp_path):
    path = tmp_path / "iters.jsonl"
    with use_registry() as reg:
        _populated_registry()
        n = write_table_jsonl(str(path), "adapt/iter", reg)
    assert n == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["iteration"] == 0 and lines[1]["iteration"] == 1


def test_format_report_renders_sections():
    with use_registry() as reg:
        _populated_registry()
        text = format_report(build_report(reg, meta={"command": "adapt"}))
    assert "command: adapt" in text
    assert "luc/search/candidates_evaluated" in text
    assert "adapt/last_loss" in text
    assert "table 'adapt/iter' (2 rows)" in text
    assert format_report({}) == "(empty report)"


def test_format_report_truncates_long_tables():
    with use_registry() as reg:
        for i in range(25):
            reg.record_row("t", i=i)
        text = format_report(build_report(reg), max_rows=10)
    assert "(25 rows, last 10 shown)" in text


def test_format_report_unions_columns_across_row_kinds():
    """Rows of one table may carry different columns; the rendered table
    has every column, in first-appearance order."""
    with use_registry() as reg:
        reg.record_row("mixed", iteration=0, mode="a", loss=2.5)
        reg.record_row("mixed", iteration=1, mode="b", requests=4, tokens=32)
        text = format_report(build_report(reg))
    header = next(
        line for line in text.splitlines() if "iteration" in line
    )
    columns = [c.strip() for c in header.split("|")]
    assert columns == ["iteration", "mode", "loss", "requests", "tokens"]
