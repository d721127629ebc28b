"""Structured run reports: build, write (JSON/JSONL), load, pretty-print.

Report schema (version 1)::

    {
      "schema_version": 1,
      "meta":     {...},                       # caller-supplied context
      "counters": {name: int},
      "gauges":   {name: float | null},
      "timers":   {name: {count, total_s, mean_s, min_s, max_s}},
      "tables":   {name: [row, ...]},          # per-iteration telemetry
      "spans":    [span-tree, ...],            # nested SpanRecord dicts
      "span_summary": {path: {count, total_s, mean_s, min_s, max_s}}
    }

``repro report <path>`` (see :mod:`repro.cli`) renders a saved report;
``write_table_jsonl`` streams one telemetry table as JSON-lines for
downstream tooling that prefers row-per-line files.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..utils.tables import format_table
from .registry import MetricsRegistry, get_registry
from .spans import SpanRecord, aggregate_spans

REPORT_SCHEMA_VERSION = 1


def build_report(
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict] = None,
) -> Dict:
    """Snapshot a registry into a plain-dict run report."""
    reg = registry if registry is not None else get_registry()
    snapshot = reg.snapshot()
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "timers": snapshot["timers"],
        "tables": snapshot["tables"],
        "spans": [s.as_dict() for s in reg.spans],
        "span_summary": aggregate_spans(reg.spans),
    }


def write_report(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict] = None,
) -> Dict:
    """Build a report and write it as indented JSON; returns the report."""
    report = build_report(registry, meta=meta)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def write_table_jsonl(
    path: str,
    table: str,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Write one telemetry table as JSONL; returns the row count."""
    reg = registry if registry is not None else get_registry()
    rows = reg.rows(table)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def load_report(path: str) -> Dict:
    """Read a report written by :func:`write_report` (validates version)."""
    with open(path) as fh:
        report = json.load(fh)
    version = report.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema_version {version!r} in {path} "
            f"(expected {REPORT_SCHEMA_VERSION})"
        )
    return report


def report_spans(report: Dict) -> List[SpanRecord]:
    """Re-hydrate the span forest of a loaded report."""
    return [SpanRecord.from_dict(s) for s in report.get("spans", [])]


def format_report(report: Dict, max_rows: int = 10) -> str:
    """Human-readable rendering of a run report (used by ``repro report``)."""
    sections: List[str] = []
    meta = report.get("meta") or {}
    if meta:
        sections.append("meta:")
        for key in sorted(meta):
            sections.append(f"  {key}: {meta[key]}")

    counters = report.get("counters") or {}
    if counters:
        sections.append("\ncounters:")
        sections.append(
            _indent(format_table(["counter", "value"], sorted(counters.items())))
        )

    gauges = report.get("gauges") or {}
    if gauges:
        sections.append("\ngauges:")
        sections.append(
            _indent(format_table(["gauge", "value"], sorted(gauges.items())))
        )

    timers = report.get("timers") or {}
    if timers:
        rows = [
            [name, t["count"], t["total_s"], t["mean_s"], t["min_s"], t["max_s"]]
            for name, t in sorted(timers.items())
        ]
        sections.append("\ntimers:")
        sections.append(
            _indent(
                format_table(
                    ["timer", "count", "total s", "mean s", "min s", "max s"],
                    rows,
                    floatfmt=".6f",
                )
            )
        )

    for name, rows in sorted((report.get("tables") or {}).items()):
        if not rows:
            continue
        # Union of columns in first-appearance order: tables that mix
        # row kinds render every column instead of silently dropping
        # late-appearing ones.
        headers = list(rows[0].keys())
        seen = set(headers)
        for row in rows[1:]:
            for key in row.keys():
                if key not in seen:
                    seen.add(key)
                    headers.append(key)
        shown = rows[-max_rows:]
        body = [[row.get(h, "") for h in headers] for row in shown]
        sections.append(
            f"\ntable {name!r} ({len(rows)} rows"
            + (f", last {len(shown)} shown" if len(rows) > len(shown) else "")
            + "):"
        )
        sections.append(_indent(format_table(headers, body, floatfmt=".4f")))

    return "\n".join(sections) if sections else "(empty report)"


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
