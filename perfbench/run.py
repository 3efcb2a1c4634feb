"""Benchmark runner for schuralg.

    python3 perfbench/run.py --workload {verify,products,centre,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory.  Each job runs in a fresh child process
(child.py), one at a time and single-threaded, so caches start cold.

With ``--trace 0`` the runner runs rounds of a few set-up-only children
and one job until the next round would more likely end after
``--seconds`` than before (at least three jobs), and reports medians of
the end-to-end metrics.  Gated times are the children's CPU seconds rescaled to a
nominal host speed (see reference.py); the CPU and wall times as
measured are printed and recorded beside them.  With ``--trace 1``
it runs one plain job and one traced job and reports the per-layer
metrics of the traced one, with the tracing overhead.

Every job's outputs are checked outside its timed region.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with run metadata, per-job
samples and the trace's spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
from metrics import COMPUTED, END_TO_END, OP_LATENCY, PER_LAYER, RAW  # noqa: E402
from reference import REF_S, SENSITIVITY, host_factor  # noqa: E402

WORKLOAD_NAMES = ("verify", "products", "centre")
MIN_JOBS = 3
PROBES_PER_JOB = 3  # set-up-only children before each job
RUN_LIMIT_S = 170  # a run must end within 180 s, timeouts included
JOB_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("SCHUR_MAX_TENSOR_DIM", None)  # the workloads run at the default guard
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # start from cached bytecode, as an installed CLI does
    return env


def spawn(workload: str, seed: int, repeat: int, timeout: float,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one child and return its result, or ``{"error": reason}``."""
    flags = ["--trace"] * trace + ["--setup-only"] * setup_only
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--repeat", str(repeat), *flags, "--spawn-ns"]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv + [str(time.monotonic_ns())], capture_output=True,
                              text=True, timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - started}
    wall_s = time.monotonic() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}", "wall_s": wall_s}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "child printed no result", "wall_s": wall_s}
    result["wall_s"] = wall_s
    return result


def run_jobs(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """The children of one run: (set-up probes, jobs)."""
    began = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    if trace:
        plain = spawn(workload, seed, 0, min(JOB_TIMEOUT_S, left() / 2))
        return [], [plain, spawn(workload, seed, 1, min(JOB_TIMEOUT_S, left()), trace=True)]
    probes: list[dict] = []
    jobs: list[dict] = []
    rounds: list[float] = []
    while left() > 5:
        # stop when the next round would more likely end after `seconds` than before
        if len(jobs) >= MIN_JOBS and time.monotonic() - began + statistics.median(rounds) / 2 > seconds:
            break
        round_began = time.monotonic()
        probes += [spawn(workload, seed, 0, min(30, left()), setup_only=True)
                   for _ in range(PROBES_PER_JOB)]
        jobs.append(spawn(workload, seed, len(jobs), min(JOB_TIMEOUT_S, left())))
        rounds.append(time.monotonic() - round_began)
        if "timed out" in jobs[-1].get("error", ""):
            break
    return probes, jobs


def tail_percentile(samples: list[float]) -> tuple[float, str]:
    """p95, or the highest percentile that leaves at least ten samples above
    it; the maximum when there are fewer than twenty samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], "max"
    p95_rank = -(-95 * n // 100)  # 1-based nearest rank
    if p95_rank <= n - 10:
        return xs[p95_rank - 1], "p95"
    return xs[n - 11], f"p{100 * (n - 10) / n:.4g}"


def summarize(workload: str, seed: int, seconds: int, trace: bool,
              probes: list, jobs: list) -> dict:
    """Judge every op, then compute the metrics from the jobs that ran."""
    done = [job for job in jobs if "error" not in job]
    planned = max((r["planned_ops"] for r in probes + done if "planned_ops" in r), default=1)
    attempted = failed = 0
    failures: list[str] = []
    reference = done[0]["digest"] if done else None
    for k, job in enumerate(jobs):
        if "error" in job:
            attempted += planned
            failed += planned
            failures.append(f"job {k}: {job['error']}")
            continue
        attempted += len(job["ops"])
        if len(job["ops"]) != planned:
            failed += max(0, planned - len(job["ops"]))
            failures.append(f"job {k}: {len(job['ops'])} ops, {planned} planned")
        bad = [(name, why) for name, _, why in job["ops"] if why]
        if job["digest"] != reference:
            bad = [(name, "outputs differ from the first job") for name, _, _ in job["ops"]]
        failed += len(bad)
        failures += [f"job {k}: {name}: {why}" for name, why in bad[:3]]

    record: dict = {"workload": workload, "attempted": attempted, "failed": failed,
                    "fail_ratio": failed / attempted if attempted else 1.0,
                    "failures": failures, "jobs": len(jobs)}
    if not done:
        return record
    if trace:
        traced = done[-1]
        metrics = dict(traced["layers"]) if "layers" in traced else {}
        plain = done[0] if len(done) == 2 else None
        metrics["trace_overhead_ratio"] = traced["job_s"] / plain["job_s"] if plain else 0.0
        record["spans"] = traced.get("spans", [])
        record["missing_targets"] = traced.get("missing", [])
        record["metrics"] = {name: metrics.get(name, 0) for name in PER_LAYER}
    else:
        children = [r for r in probes + done if "setup_s" in r]
        setups = [r["setup_s"] / host_factor(r["setup_ref_s"]) for r in children]
        job_times = [job["job_s"] / host_factor(job["job_ref_s"]) for job in done]
        # each operation's median latency over the jobs, then percentiles over operations
        per_op = [statistics.median(s) for s in zip(*([t for _, t, _ in job["ops"]] for job in done))]
        p95, tail = tail_percentile(per_op)
        record["metrics"] = {
            "job_s": statistics.median(job_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(job["rss_mb"] for job in done),
        }
        raw = {
            "job_cpu_s": [job["job_s"] for job in done],
            "setup_cpu_s": [r["setup_s"] for r in children],
            "job_wall_s": [job["job_wall_s"] for job in done],
            "setup_wall_s": [r["setup_wall_s"] for r in children],
            "host_factor": [host_factor(job["job_ref_s"]) for job in done],
        }
        record["raw"] = {name: statistics.median(values) for name, values in raw.items()}
        record["op_latency"] = {"op_p50_ms": 1e3 * statistics.median(per_op), "op_p95_ms": 1e3 * p95}
        if len(per_op) < 20:  # few enough to list: each CLI invocation's own median
            record["op_medians_s"] = {name: t for (name, _, _), t in zip(done[0]["ops"], per_op)}
        record["samples"] = {
            "job_s": job_times,
            "setup_s": setups,
            **raw,
            "peak_rss_mb": [job["rss_mb"] for job in done],
            "op_medians": len(per_op),
            "op_tail": tail,
        }
    record["meta"] = metadata(workload, seed, seconds, trace, done[0])
    return record


def metadata(workload: str, seed: int, seconds: int, trace: bool, job: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git on PATH
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": job.get("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "child_thread_env": {var: "1" for var in THREAD_VARS},
        "inputs": job.get("inputs"),
    }


def report(record: dict, trace: bool) -> None:
    """Print the human-readable lines of one workload's run."""
    meta = record.get("meta", {})
    print(f"workload {record['workload']}  seed {meta.get('seed')}  trace {int(trace)}  "
          f"jobs {record['jobs']}  commit {str(meta.get('commit'))[:12]}")
    samples = record.get("samples", {})
    notes = {
        "job_s": f"CPU time at nominal host speed, median of {len(samples.get('job_s', []))} jobs",
        "setup_s": f"CPU time at nominal host speed, median of {len(samples.get('setup_s', []))} set-ups",
        "job_cpu_s": "CPU time as measured, median over the jobs (not gated)",
        "setup_cpu_s": "CPU time as measured, median over the set-ups (not gated)",
        "job_wall_s": "wall time, median over the jobs (not gated)",
        "setup_wall_s": "wall time, median over the set-ups (not gated)",
        "host_factor": f"(reference-loop CPU time during a job / {REF_S} s) ** {SENSITIVITY}, median over the jobs",
        "peak_rss_mb": "median ru_maxrss of the job processes",
        "op_p50_ms": f"wall time, median of {samples.get('op_medians')} ops' median latencies",
        "op_p95_ms": f"wall time, {samples.get('op_tail')} of {samples.get('op_medians')} ops' median latencies",
    }
    units = PER_LAYER if trace else {**END_TO_END, **RAW, **OP_LATENCY}
    printed = {**record.get("metrics", {}), **record.get("raw", {}), **record.get("op_latency", {})}
    for name, value in printed.items():
        note = COMPUTED.get(name, notes.get(name, ""))
        tag = "computed: " if name in COMPUTED else ""
        print(f"  {name:48} {value:>16.6g} {units[name]:5} {tag}{note}")
    for name, value in record.get("op_medians_s", {}).items():
        print(f"  {'op ' + name:48} {value:>16.6g} {'s':5} median over jobs")
    print(f"  {'fail_ratio':48} {record['fail_ratio']:>16.6g} {'1':5} "
          f"{record['failed']} failed of {record['attempted']} ops")
    for line in record["failures"][:10]:
        print(f"  FAILED {line}")
    if record.get("missing_targets"):
        print(f"  not traced (absent): {', '.join(record['missing_targets'])}")
    inputs = meta.get("inputs") or {}
    if "compatible_share" in inputs:
        print(f"  inputs: {inputs['pairs']} pairs at (n,d)=({inputs['n']},{inputs['d']}), "
              f"compatible term-pair share {inputs['compatible_share']:.4f}")


def write_record(record: dict, seed: int, trace: bool) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "schuralg" / "__init__.py").is_file():
        print(f"error: no schuralg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        probes, jobs = run_jobs(name, args.seed, args.seconds, trace)
        record = summarize(name, args.seed, args.seconds, trace, probes, jobs)
        write_record(record, args.seed, trace)
        report(record, trace)
        records.append(record)
    if not all("metrics" in r for r in records):
        print("error: no job of the run completed", file=sys.stderr)
        return 1
    units = PER_LAYER if trace else END_TO_END
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": units[name]}
        for r in records
        for name, value in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
