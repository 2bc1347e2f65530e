"""One cold, isolated run of one part of one workload.

Started by ``run.py``, which gives every run its own working
directory, ``HOME`` and ``TMPDIR``.  Set-up (interpreter start,
``import repro`` and generating every dataset of the workload) is
timed from ``--t0``, the parent's monotonic clock reading taken just
before it started this process; the part is timed from its first unit
to its rendered artifact.  The last line of standard output is one
JSON object with the measurements, the unit records and, with
``--trace 1``, the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--part")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--artifact")
    parser.add_argument("--list-parts", action="store_true")
    args = parser.parse_args()

    import repro  # noqa: F401  (set-up: the import is what is timed)
    from repro.graph import datasets
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.list_parts:
        print(json.dumps(list(workload.parts[args.size])))
        return
    load_start = time.perf_counter()
    for name in workload.datasets[args.size]:
        datasets.load(name)
    load_s = time.perf_counter() - load_start
    setup_s = time.monotonic() - args.t0

    import layers

    tracer = layers.Tracer() if args.trace else layers.NullTracer()
    tracer.install()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    outcome = workload.run(args.seed, args.size, args.part, tracer)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "load_s": load_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "units": outcome.units(),
    }
    if args.trace:
        result["spans"] = tracer.records()
        result["must_work"] = list(workload.must_work)
    if args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as handle:
            handle.write(outcome.artifact)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
