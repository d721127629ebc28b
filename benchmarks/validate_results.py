"""Validate benchmark JSON sidecars against the sidecar schema.

Usage (from the repo root, as CI does)::

    PYTHONPATH=src python -m benchmarks.validate_results benchmarks/results \
        --expect fig3_speedup fig2_memory \
        --min-metric ext_trainstep:speedup_vs_full_tape:1.8

Checks, all of which must pass for a zero exit status:

* every ``*.json`` sidecar parses and matches the sidecar schema,
* the ``bench`` name inside each sidecar matches its filename stem,
* every sidecar is *paired*: ``<name>.json`` has a ``<name>.txt`` table
  next to it and vice versa (a missing half means a bench wrote one
  output format and crashed, or a stale file survived a rename),
* every ``--expect NAME`` has a sidecar,
* every ``--min-metric BENCH:METRIC:THRESHOLD`` bar holds (repeatable;
  the metric must exist, be numeric, and be >= the threshold).

A bench named by ``--expect`` or ``--min-metric`` must also exist as
``benchmarks/bench_<NAME>.py``: a stale sidecar left behind by a renamed
or deleted bench satisfies neither.
"""

import argparse
import glob
import json
import os
import sys
from typing import List, Optional, Tuple

from .common import validate_sidecar


def check_pairing(directory: str) -> List[str]:
    """Every result must exist as a .json/.txt pair, not half of one."""
    errors = []
    stems = {}
    for path in glob.glob(os.path.join(directory, "*")):
        stem, ext = os.path.splitext(os.path.basename(path))
        if ext in (".json", ".txt"):
            stems.setdefault(stem, set()).add(ext)
    for stem in sorted(stems):
        missing = {".json", ".txt"} - stems[stem]
        for ext in sorted(missing):
            have = next(iter(stems[stem]))
            errors.append(
                f"{directory}: {stem}{have} has no paired {stem}{ext}"
            )
    return errors


def known_bench_names(bench_dir: Optional[str] = None) -> set:
    """Bench names that actually exist as ``bench_<name>.py`` modules."""
    bench_dir = bench_dir or os.path.dirname(os.path.abspath(__file__))
    return {
        os.path.splitext(os.path.basename(path))[0][len("bench_"):]
        for path in glob.glob(os.path.join(bench_dir, "bench_*.py"))
    }


def parse_min_metric(spec: str) -> Tuple[str, str, float]:
    """Parse a ``BENCH:METRIC:THRESHOLD`` bar specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"--min-metric {spec!r} is not BENCH:METRIC:THRESHOLD"
        )
    bench, metric, threshold = parts
    try:
        return bench, metric, float(threshold)
    except ValueError:
        raise ValueError(
            f"--min-metric {spec!r}: threshold {threshold!r} is not a number"
        ) from None


def check_min_metrics(
    payloads, specs: List[str], known: Optional[set] = None
) -> List[str]:
    """Enforce ``--min-metric`` bars against the loaded sidecars.

    ``known`` is the set of bench names that exist as modules; a bar
    naming anything else is an error even if a (stale) sidecar matches.
    """
    errors = []
    by_bench = {p["bench"]: p for p in payloads}
    for spec in specs:
        try:
            bench, metric, threshold = parse_min_metric(spec)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        if known is not None and bench not in known:
            errors.append(
                f"--min-metric {spec}: unknown benchmark {bench!r} "
                f"(no benchmarks/bench_{bench}.py; stale sidecars do not "
                "satisfy bars)"
            )
            continue
        payload = by_bench.get(bench)
        if payload is None:
            errors.append(f"--min-metric {spec}: no sidecar for bench {bench!r}")
            continue
        if metric not in payload["metrics"]:
            errors.append(
                f"--min-metric {spec}: bench {bench!r} has no metric "
                f"{metric!r}"
            )
            continue
        value = payload["metrics"][metric]
        if not isinstance(value, (int, float)):
            errors.append(
                f"--min-metric {spec}: metric value {value!r} is not numeric"
            )
            continue
        if value < threshold:
            errors.append(
                f"--min-metric {spec}: {bench}:{metric} = {value} < "
                f"{threshold}"
            )
        else:
            print(f"ok --min-metric {spec}: {value}")
    return errors


def validate_directory(
    directory: str,
    expect: Optional[List[str]] = None,
    min_metrics: Optional[List[str]] = None,
) -> List[str]:
    """Validate every ``*.json`` sidecar in ``directory``; return errors."""
    errors: List[str] = []
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    seen = set()
    payloads = []
    for path in paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
            validate_sidecar(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        name = payload["bench"]
        seen.add(name)
        payloads.append(payload)
        stem = os.path.splitext(os.path.basename(path))[0]
        if name != stem:
            errors.append(f"{path}: bench name {name!r} != filename stem {stem!r}")
        print(
            f"ok {path}: {len(payload['rows'])} rows, "
            f"{len(payload['metrics'])} metrics"
        )
    errors.extend(check_pairing(directory))
    known = known_bench_names()
    for name in expect or []:
        if name not in known:
            errors.append(
                f"--expect {name}: unknown benchmark (no "
                f"benchmarks/bench_{name}.py; stale sidecars do not count)"
            )
        elif name not in seen:
            errors.append(f"{directory}: expected bench {name!r} has no sidecar")
    errors.extend(check_min_metrics(payloads, min_metrics or [], known=known))
    if not paths:
        errors.append(f"{directory}: no sidecars found")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", help="directory holding *.json sidecars")
    parser.add_argument(
        "--expect", nargs="*", default=None,
        help="bench names that must be present",
    )
    parser.add_argument(
        "--min-metric", action="append", default=[], metavar="B:M:T",
        help="require sidecar metric M of bench B to be >= T (repeatable)",
    )
    args = parser.parse_args(argv)
    errors = validate_directory(
        args.directory, expect=args.expect, min_metrics=args.min_metric
    )
    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
