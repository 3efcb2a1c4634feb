"""One job of one workload, in a fresh interpreter; prints one JSON line.

run.py starts this script once per job, so every cache starts cold, as
it does for a CLI user, and ``ru_maxrss`` belongs to this job alone.

    python3 perfbench/child.py --workload W --seed N --repeat R
        --spawn-ns T [--trace] [--setup-only]

Times are CPU seconds of this process (user + system), read with
``time.process_time``.  The job is single-threaded and does no I/O, so on
an idle host its CPU time equals its wall time; on a shared VM the CPU
time leaves out the time the hypervisor gives to other guests, which
otherwise moves wall times by tens of percent.  Set-up time is the CPU
time from process start: interpreter start, the package import and
building the seeded inputs.  Wall times are recorded beside them.
``--spawn-ns`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, for the wall time of set-up.  ``setup_ref_s`` and
``job_ref_s`` hold the CPU times of the reference loop (reference.py)
after set-up and during the job, from which run.py rescales both.  The
child and the sampler stay on one CPU, so the sampler measures the
speed of the CPU the job runs on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    from reference import reference_times
    from workloads import WORKLOADS, outputs_digest

    workload = WORKLOADS[args.workload](args.seed)
    result: dict = {"setup_s": time.process_time(),
                    "setup_wall_s": (time.monotonic_ns() - args.spawn_ns) / 1e9,
                    "planned_ops": workload.planned_ops}
    result["setup_ref_s"] = reference_times()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    from tracer import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    # untraced jobs only: the sampler would add to the traced self times
    sampler = None if args.trace else subprocess.Popen(
        [sys.executable, str(HERE / "reference.py")], stdout=subprocess.PIPE, text=True)
    try:
        start, start_wall = time.process_time(), time.perf_counter()
        ops = workload.run(tracer)
        job_s, job_wall_s = time.process_time() - start, time.perf_counter() - start_wall
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if sampler:
            sampler.terminate()
            result["job_ref_s"] = json.loads(sampler.communicate(timeout=30)[0])
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing

    # Output checks run after the timed region and after the trace snapshot.
    try:
        reasons = workload.check(ops, args.repeat)
    except Exception as exc:  # a crashing check fails every op it covers
        reasons = [f"check raised {type(exc).__name__}: {exc}"] * len(ops)
    result.update(
        job_s=job_s,
        job_wall_s=job_wall_s,
        rss_mb=rss_mb,
        ops=[[op.name, op.seconds, op.error or reason] for op, reason in zip(ops, reasons)],
        digest=outputs_digest(ops),
        inputs=workload.properties(),
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
