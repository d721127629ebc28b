"""Compare a parent's run set with a change's: ``python -m bench compare``.

    python -m bench compare A/*.json --against B/*.json

``A`` holds the parent's run records and ``B`` the change's (written by
``python -m bench run --out``).  Runs pair up by seed.  Every (workload,
end-to-end metric) row gets one verdict, using the bound that
``BENCHMARK.json`` declares for the metric:

* ``improved``: at least 10 pairs, run alternately (which side started
  first flips from pair to pair), the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  distance between the parent's quartiles;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's own quartile spread is wider than the
  bound, and not every run of the change reads better than every run of
  the parent;
* ``unchanged``: otherwise.

A workload whose share of failed operations is higher in ``B`` is flagged.
Runs whose host stamps differ (CPUs, BLAS threads, Python, numpy, machine)
are refused, as are sides mixing commits or fixtures.  The command exits 1
when any row regressed or any failure share rose.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import spec
from .stats import median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
HOST_KEYS = ("cpus", "blas_threads", "python", "numpy", "machine")
CODE_KEYS = ("git_sha", "fixture")


def load(paths: Sequence[str]) -> List[Dict]:
    runs = []
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        run["path"] = path
        runs.append(run)
    return runs


def stamp_problems(a: List[Dict], b: List[Dict]) -> List[str]:
    """Reasons the two sets cannot be compared (empty when they can)."""
    problems = []
    hosts = {json.dumps({k: r["stamp"].get(k) for k in HOST_KEYS}, sort_keys=True)
             for r in a + b}
    if len(hosts) > 1:
        problems.append(f"host stamps differ: {sorted(hosts)}")
    for side, runs in (("A", a), ("B", b)):
        codes = {json.dumps({k: r["stamp"].get(k) for k in CODE_KEYS}, sort_keys=True)
                 for r in runs}
        if len(codes) > 1:
            problems.append(f"side {side} mixes commits or fixtures: {sorted(codes)}")
    seconds = {r["seconds"] for r in a + b}
    if len(seconds) > 1:
        problems.append(f"run lengths differ: {sorted(seconds)}")
    if any(r.get("trace") for r in a + b):
        problems.append("traced runs carry per-layer metrics only")
    return problems


def pair_up(a: List[Dict], b: List[Dict]) -> List[Tuple[Dict, Dict]]:
    """Pairs of runs with the same seed, in the order they were made."""
    by_seed: Dict[int, List[Dict]] = {}
    for run in b:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in sorted(a, key=lambda r: r.get("started", 0)):
        partners = by_seed.get(run["seed"])
        if partners:
            pairs.append((run, partners.pop(0)))
    return pairs


def alternating(pairs: List[Tuple[Dict, Dict]]) -> bool:
    """Whether the side that ran first flips from one pair to the next."""
    firsts = []
    for x, y in pairs:
        if "started" not in x or "started" not in y:
            return False
        firsts.append(x["started"] < y["started"])
    return all(p != q for p, q in zip(firsts, firsts[1:]))


def beats(b: float, a: float, better: str) -> bool:
    """Whether value ``b`` is strictly better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float, alternated: bool) -> str:
    a_mid, b_mid = median(a), median(b)
    q1, _, q3 = quartiles(a)
    gain = (a_mid - b_mid) if better == "lower" else (b_mid - a_mid)
    wins = sum(beats(y, x, better) for x, y in pairs)
    if (len(pairs) >= MIN_PAIRS and alternated
            and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1):
        return "improved"
    if -gain / abs(a_mid) > bound:
        return "regressed"
    if (q3 - q1) / abs(a_mid) > bound and not all(
            beats(y, x, better) for x in a for y in b):
        return "unresolved"
    return "unchanged"


def _fail_share(runs: List[Dict], workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
    failed = sum(r["workloads"][workload]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def compare(a: List[Dict], b: List[Dict], declared: Optional[Dict] = None) -> List[Dict]:
    """One row per (workload, end-to-end metric) present on both sides,
    plus one ``fail_share`` row per workload."""
    end_to_end = spec.metrics("end_to_end", declared)
    pairs = pair_up(a, b)
    alternated = alternating(pairs)
    workloads = [w for w in a[0]["workloads"]
                 if all(w in r["workloads"] for r in a + b)]
    rows = []
    for workload in workloads:
        for name, m in end_to_end.items():
            def value(run):
                return run["workloads"][workload]["metrics"][name]["value"]

            a_vals = [value(r) for r in a]
            b_vals = [value(r) for r in b]
            pair_vals = [(value(x), value(y)) for x, y in pairs]
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "a": quartiles(a_vals), "b": quartiles(b_vals),
                "change": (median(b_vals) - median(a_vals)) / abs(median(a_vals)),
                "wins": sum(beats(y, x, m["better"]) for x, y in pair_vals),
                "pairs": len(pairs),
                "verdict": verdict(a_vals, b_vals, pair_vals, m["better"],
                                   m["bound"], alternated),
            })
        a_fail, b_fail = _fail_share(a, workload), _fail_share(b, workload)
        rows.append({"workload": workload, "metric": "fail_share", "unit": "frac",
                     "a": [a_fail] * 3, "b": [b_fail] * 3, "change": b_fail - a_fail,
                     "wins": 0, "pairs": len(pairs),
                     "verdict": "failures-rose" if b_fail > a_fail else "unchanged"})
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("a", nargs="+", help="the parent's run records")
    parser.add_argument("--against", nargs="+", required=True,
                        help="the change's run records")
    parser.set_defaults(fn=run)


def run(args) -> int:
    a, b = load(args.a), load(args.against)
    problems = stamp_problems(a, b)
    if problems:
        for problem in problems:
            print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    rows = compare(a, b)
    print(f"{'workload':<13} {'metric':<15} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>8} {'wins':>7}  verdict")
    for r in rows:
        a_q, b_q = r["a"], r["b"]
        print(f"{r['workload']:<13} {r['metric']:<15} "
              f"{a_q[1]:>10.4g} [{a_q[0]:.4g}, {a_q[2]:.4g}]".ljust(62)
              + f"{b_q[1]:>10.4g} [{b_q[0]:.4g}, {b_q[2]:.4g}]".ljust(33)
              + f"{r['change']:>+8.2%} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "failures-rose")]
    return 1 if bad else 0
