"""``python -m bench run`` and ``python -m bench compare``.

``run`` builds the fixture if this source tree has none, then runs each
workload in its own process (single thread, BLAS pinned to one thread),
prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits non-zero if a workload fails or a correctness
check does.

``compare`` is :mod:`bench.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import spec

ROOT = spec.ROOT
SRC = os.path.join(ROOT, "src")
FIXTURE_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_ENV:
        env[name] = "1"
    return env


def git_sha(root: str = ROOT) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read from
    ``.git`` directly: the benchmark runs no program outside itself)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_stamp(env: Dict[str, str], numpy_version: Optional[str]) -> Dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: env.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: nothing to benchmark",
              file=sys.stderr)
        return 2
    declared = spec.load()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(names))
        if unknown:
            print(f"unknown workload(s) {unknown}; choose from {names}",
                  file=sys.stderr)
            return 2
        names = args.workload
    env = worker_env()
    started = time.time()
    # Both timeouts kill and reap the child before raising.
    subprocess.run([sys.executable, "-m", "bench.fixture"], cwd=ROOT, env=env,
                   stdout=sys.stderr, check=True, timeout=FIXTURE_TIMEOUT_S)

    if args.trace and args.trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
    results: Dict[str, Dict] = {}
    for name in names:
        cmd = [sys.executable, "-m", "bench.worker", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        if args.trace and args.trace_out:
            out = args.trace_out if len(names) == 1 else \
                f"{os.path.splitext(args.trace_out)[0]}.{name}.json"
            cmd += ["--trace-out", os.path.abspath(out)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        for check, value in result["checks"].items():
            print(f"{name} check {check} {value}")
        for key, value in result["info"].items():
            print(f"{name} info {key} {value!r}")
    numpy_versions = {r["numpy"] for r in results.values()}
    record = {
        "started": started,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "stamp": dict(
            host_stamp(env, numpy_versions.pop() if len(numpy_versions) == 1 else None),
            git_sha=git_sha(),
            fixture=sorted({r["fixture"] for r in results.values()}),
        ),
        "workloads": results,
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    single = len(results) == 1
    metrics = {
        (metric if single else f"{name}.{metric}"): m
        for name, result in results.items()
        for metric, m in result["metrics"].items()
    }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    from . import compare

    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    compare.add_arguments(sub.add_parser(
        "compare", help="compare a parent run set with a change's"))
    p = sub.add_parser("run", help="run workloads and print their metrics")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the workload inputs (the fixture is fixed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--trace-out",
                   help="with --trace 1, write Chrome trace-event JSON here")
    p.add_argument("--out", help="write the run record (metrics, checks, "
                                 "host stamp) to this JSON file")
    p.set_defaults(fn=run)
    args = parser.parse_args(argv)
    return args.fn(args)
