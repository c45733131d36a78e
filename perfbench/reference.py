"""A fixed pure-Python loop that tells how fast the host runs right now.

On a shared virtual machine the CPU time of the same work changes by up to
1.8x from one second to the next, as other tenants come and go; that is
CPU time, not only wall time, so it is not time stolen from the process.
The gated timings therefore divide each measured CPU time by the CPU time
of this loop, run just before it in the same process, and multiply by
REFERENCE_MS. The result reads as milliseconds on a host where the loop
takes REFERENCE_MS, and an unchanged program gives the same figure
whether the host is busy or not. The loop never calls walkhash, so no
change to walkhash can move it.
"""

from __future__ import annotations

import time

# The loop's CPU time on an uncontended core of the 2-core Xeon host the
# benchmark was developed on, rounded.
REFERENCE_MS = 5.0


def loop() -> int:
    acc = 0
    seen = {}
    for i in range(30000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        seen[i & 255] = acc
    return acc + len(seen)


def cpu_ns() -> int:
    """CPU time of one run of loop()."""
    start = time.process_time_ns()
    loop()
    return time.process_time_ns() - start


def scale(value: float, reference_ms: float) -> float:
    """A CPU time (any unit) measured while the reference loop took
    reference_ms, as it would read had the loop taken REFERENCE_MS."""
    return value * REFERENCE_MS / reference_ms
