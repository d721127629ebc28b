"""Run one workload in this process and print its result as JSON.

``python -m bench run`` starts one of these per workload, with BLAS pinned
to one thread, and reads the last line of its output.  ``setup_s`` counts
from the top of this module: importing numpy and ``repro`` is part of
set-up, as is loading the fixture, compressing, adapting, calibrating,
building and warming up.  Set-up runs three times; the reported set-up
is the import time plus the median of the three, in reference-host
seconds (:mod:`bench.hostspeed`).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import numpy

    from bench import fixture, spec, workloads
    from bench.stats import median

    import_wall = time.perf_counter() - START
    path = fixture.fixture_dir()
    if not os.path.isfile(os.path.join(path, "recipe.json")):
        raise SystemExit(f"fixture {path} is missing; run python -m bench.fixture")
    workload = workloads.WORKLOADS[args.workload](
        path, args.seed, args.seconds, bool(args.trace))
    workload.speed.settle()
    import_s = import_wall * workload.speed.scale()
    state, reps = workload.set_up_repeatedly()
    outcome = workload.measure(state)

    if args.trace:
        kind = "per_layer"
        values = dict(outcome.layers)
        values.update(workloads.setup_layers(import_s, reps))
    else:
        kind = "end_to_end"
        values = dict(outcome.end_to_end)
        values["setup_s"] = import_s + median([r.total for r in reps])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    declared = spec.metrics(kind)
    if set(values) != set(declared):
        raise SystemExit(
            f"{args.workload} {kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}")
    if args.trace and args.trace_out:
        workload.tracer.dump(args.trace_out)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": declared[name]["unit"]}
                    for name in declared},
        "checks": outcome.checks,
        "info": outcome.info,
        "numpy": numpy.__version__,
        "fixture": os.path.basename(path),
    }, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
