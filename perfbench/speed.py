"""The host's speed, measured by a fixed reference slice between requests.

A shared host runs this benchmark's process at a speed that changes by
a fifth or more within seconds, in CPU time as much as in wall time:
other tenants' work slows the processor itself.  The same spells slow a
fixed pure-Python slice of the benchmark's own code, so the benchmark
runs such a slice every :data:`INTERVAL_S` seconds between requests and
scales every timing by the host's speed while it was taken::

    scaled = measured * (REFERENCE_S / median of the slices meanwhile) ** e

The program does not speed up and slow down as much as the slice: when
the slice ran 1.77 times faster than usual, cold-distinct's throughput
rose 1.36 times, warm reads 1.5 times, and the slowest calls barely
moved.  The elasticity ``e`` is therefore measured, not assumed:
:data:`ELASTICITY` for wall-time figures and :data:`TAIL_ELASTICITY` for
the CPU-time p99 were chosen as the exponents that left sixty runs of
the three workloads the least spread overall (see ``RECORD.md``).

The timed calls are scaled in blocks of a thousand (a second or more):
all latencies of a block take the same factor, so scaling cannot pick
out single calls and does not change which calls form the tail.  A
set-up is scaled by slices run just before and just after it.

Each timed slice runs right after an untimed one, so that it measures
the processor rather than how much of the cache the program's last
request left to it.  The slice is timed in thread CPU time, so a
program that runs threads of its own, waits on I/O or is held off the
processor does not make its slices slower and is not scaled down for
it; only a change in what one instruction stream gets done per CPU
second is.  The slice touches none of the program's objects and runs
with the collector off, so the program's heap does not move it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: CPU seconds the reference slice takes between requests on the host
#: the bounds were set on; a scaled timing reads as if every slice had
#: taken this long.
REFERENCE_S = 0.45e-3
#: Wall seconds between slices in a timed phase.
INTERVAL_S = 0.04
#: How the program's wall-time figures follow the slice's speed.
ELASTICITY = 0.8
#: How its slowest calls' CPU time follows the slice's speed.
TAIL_ELASTICITY = 0.25


def reference_slice() -> int:
    """A fixed mix of interpreter work: calls, dicts, lists, strings."""
    table: dict[int, tuple[int, str]] = {}
    rows: list[tuple[int, str]] = []
    total = 0
    for i in range(600):
        key = (i * 7919) % 211
        name = "n" + str(key)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = (key, name)
        rows.append(entry)
        total += len(name) + entry[0]
    rows.sort()
    return total + len(",".join(name for _, name in rows[:64]))


def scale_of(slices: list[float], elasticity: float = ELASTICITY) -> float:
    """The factor that takes a timing to reference speed, given the
    slices timed around it."""
    return (REFERENCE_S / statistics.median(slices)) ** elasticity


def block_scales(
    marks: list[tuple[int, float]],
    calls: int,
    block: int,
    elasticity: float = ELASTICITY,
) -> list[float]:
    """The scale of each block of ``block`` consecutive calls.

    ``marks`` holds ``(calls made before it, CPU seconds)`` for each
    slice, in order.  A block is scaled by the median of the slices run
    while its calls were made; the last block may be partial.  A block
    during which no slice ran takes the median of every slice.
    """
    blocks = max(1, -(-calls // block))
    took = [seconds for _, seconds in marks]
    if not took:
        return [1.0] * blocks
    per_block: list[list[float]] = [[] for _ in range(blocks)]
    for position, seconds in marks:
        per_block[min(position // block, blocks - 1)].append(seconds)
    return [scale_of(slices or took, elasticity) for slices in per_block]


class HostSpeed:
    """Runs and times the reference slice."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def slices(self, count: int) -> list[float]:
        """Run and time ``count`` slices now; their CPU seconds."""
        enabled = gc.isenabled()
        gc.disable()
        took = []
        try:
            for _ in range(count):
                reference_slice()
                t0 = time.thread_time()
                reference_slice()
                took.append(time.thread_time() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples += took
        return took

    def tick(self) -> float | None:
        """Run a slice if one is due (call between requests); its CPU
        seconds, or ``None``."""
        if time.perf_counter() < self.due:
            return None
        (took,) = self.slices(1)
        self.due = time.perf_counter() + INTERVAL_S
        return took

    def summary(self) -> dict:
        """Slice count and median, and the median scale, for the record."""
        median = statistics.median(self.samples)
        return {
            "slices": len(self.samples),
            "slice_median_ms": median * 1e3,
            "scale": REFERENCE_S / median,
        }
