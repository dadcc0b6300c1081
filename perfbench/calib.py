"""A fixed reference computation that times how fast the host runs now.

The benchmark's host is a share of a machine that other tenants use, and
the same interpreter work runs up to 2x faster or slower from one second
or minute to the next, on every workload at once.  ``reference()`` is a
fixed, seeded piece of pure Python in the style of the program's yearly
simulation (random draws, a heap of events, float arithmetic, small
dicts).  It belongs to the benchmark, not to the program, so no change
to the program changes what it costs.  Timed on the server's CPU while
no request is in flight, it gives the host's speed at that moment, and
``run.py`` reports every timing at ``REFERENCE_MS`` speed: a time is
scaled by ``REFERENCE_MS`` over the mean reference time measured next to it.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import statistics
import time
from typing import Dict, List, Sequence

#: Years of the reference simulation per call.
REFERENCE_YEARS = 12
#: The reference speed every timing is reported at: ``reference()``
#: taking 12 ms, about what a 2.1 GHz Xeon vCPU under Python 3.11 gives.
REFERENCE_MS = 12.0


def _outage_cost(minutes: float, kind: str, table: Dict[str, float]) -> float:
    rate = table.get(kind, 1.0)
    if minutes < 1.0:
        return rate * minutes * 0.5
    return rate * (1.0 + math.log1p(minutes)) * minutes ** 0.8


def reference(years: int = REFERENCE_YEARS) -> float:
    """Simulate ``years`` toy outage years; returns their total cost."""
    rng = random.Random(20140301)
    table = {"utility": 1.0, "ups": 2.5, "dg": 0.7}
    kinds = tuple(table)
    total = 0.0
    for _ in range(years):
        events: List[tuple] = []
        t = 0.0
        while True:
            t += rng.expovariate(1.0 / 900.0)
            if t > 525_600.0:
                break
            heapq.heappush(events, (t, rng.lognormvariate(1.5, 1.2), rng.choice(kinds)))
        by_kind: Dict[str, float] = {}
        while events:
            _, minutes, kind = heapq.heappop(events)
            by_kind[kind] = by_kind.get(kind, 0.0) + _outage_cost(minutes, kind, table)
        total += sum(sorted(by_kind.values()))
    return total


def time_on(cpu: int, calls: int) -> List[float]:
    """Milliseconds of ``calls`` reference runs, this thread held to ``cpu``."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        samples = []
        for _ in range(calls):
            started = time.perf_counter()
            reference()
            samples.append((time.perf_counter() - started) * 1000.0)
        return samples
    finally:
        os.sched_setaffinity(0, allowed)


def scale(samples: Sequence[float]) -> float:
    """Factor that takes a time measured next to ``samples`` to reference
    speed.  The mean, not the median: the host flips between a fast and a
    slow state within a second, and work spread over both takes the mean
    of their times."""
    return REFERENCE_MS / statistics.mean(samples)
