"""A fixed reference loop that measures how fast the host runs right now.

On a shared VM the CPU time of the same job moves by tens of percent
with the load of other guests (shared cores and caches), not only its
wall time, and the speed changes within seconds.  Each child times this
loop right after its set-up, and, while its job runs, a sampler process
on the same CPU times it every ``GAP_S`` seconds.  run.py divides by the
median: a gated time is the measured CPU time rescaled to a host on
which one reference loop takes ``REF_S`` seconds (see ``SENSITIVITY``).

    python3 perfbench/reference.py     # sample until SIGTERM, then print the times

The loop uses the operations schuralg spends its time in (tuple keys in
dicts, small-int loops, Fraction arithmetic) but no code of the package,
so a change to the package cannot change the reference.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction

REF_S = 0.012  # nominal CPU time of one reference loop, about its time on an idle host
# The workloads slow less than the loop does.  On the VM this was built
# on, over about 60 jobs, log job CPU time against log loop time had
# slopes 0.5 (verify) to 0.8 (centre), with correlations 0.88-0.96, and
# set-up time slopes 0.45-0.5.  One exponent serves every workload.
SENSITIVITY = 0.6
REPS = 4
GAP_S = 0.2  # the sampler's pause between loops: it takes about 6% of the CPU


def reference_loop() -> Fraction:
    table: dict[tuple[int, ...], Fraction] = {}
    for i in range(2300):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 9 + 1, i % 5 + 1)
    total = Fraction(0)
    for key, value in sorted(table.items()):
        total += value * (key[0] - key[1])
    return total


def reference_times(reps: int = REPS) -> list[float]:
    """CPU seconds of ``reps`` reference loops."""
    times = []
    for _ in range(reps):
        start = time.process_time()
        reference_loop()
        times.append(time.process_time() - start)
    return times


def host_factor(times: list[float]) -> float:
    """How much slower than nominal the host ran the workloads: the median
    loop time over REF_S, to the power SENSITIVITY."""
    return (statistics.median(times) / REF_S) ** SENSITIVITY


def sample() -> int:
    """Time one loop every GAP_S seconds until SIGTERM, or until the parent
    has gone; print the CPU times as JSON."""
    parent = os.getppid()
    stopped = False

    def stop(signum, frame) -> None:
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    times: list[float] = []
    while not stopped and os.getppid() == parent:
        times += reference_times(1)
        time.sleep(GAP_S)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(sample())
