"""Seeded client-load shapes and Poisson query traces, kept only for their tests.

A constant load, a diurnal load shape and an open-loop Poisson arrival
trace.  No analysis, CLI command or benchmark drives a workload with them:
the outage simulator takes each workload at its calibrated operating point.
They live under ``tests/`` so ``tests/workloads/test_traces.py`` keeps
running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.errors import WorkloadError
from repro.units import SECONDS_PER_HOUR


def constant_load(level: float = 1.0):
    """A load shape that is flat at ``level`` (the paper's experiments run
    servers near peak).  Returns a callable of time-of-day seconds."""
    if level < 0:
        raise WorkloadError("load level must be >= 0")

    def shape(_time_seconds: float) -> float:
        return level

    return shape


@dataclass(frozen=True)
class DiurnalLoadModel:
    """A sinusoidal day/night load shape.

    ``load(t) = base + amplitude * (1 + sin(2*pi*(t - phase)/day)) / 2``

    Attributes:
        base: Trough load as a fraction of peak capacity.
        amplitude: Peak-to-trough swing (base + amplitude <= 1 recommended).
        peak_hour: Hour of day (0-24) at which load peaks.
    """

    base: float = 0.4
    amplitude: float = 0.5
    peak_hour: float = 14.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.amplitude < 0:
            raise WorkloadError("base and amplitude must be >= 0")
        if not 0 <= self.peak_hour < 24:
            raise WorkloadError("peak_hour must be in [0, 24)")

    def load_at(self, time_seconds: float) -> float:
        """Offered load (fraction of peak) at ``time_seconds`` into the day."""
        day = 24 * SECONDS_PER_HOUR
        phase = 2 * math.pi * (time_seconds / day) - (
            2 * math.pi * self.peak_hour / 24 - math.pi / 2
        )
        return self.base + self.amplitude * (1 + math.sin(phase)) / 2

    def samples(self, step_seconds: float = 900.0) -> List[float]:
        """One day of load samples at ``step_seconds`` resolution."""
        if step_seconds <= 0:
            raise WorkloadError("step_seconds must be positive")
        day = 24 * SECONDS_PER_HOUR
        count = int(day / step_seconds)
        return [self.load_at(i * step_seconds) for i in range(count)]


@dataclass(frozen=True)
class PoissonQueryTrace:
    """An open-loop Poisson arrival trace for interactive services.

    Attributes:
        rate_per_second: Mean query arrival rate.
        seed: RNG seed; traces are reproducible.
    """

    rate_per_second: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise WorkloadError("rate_per_second must be positive")

    def arrivals(self, duration_seconds: float) -> "np.ndarray":
        """Sorted arrival timestamps within ``[0, duration_seconds)``."""
        if duration_seconds < 0:
            raise WorkloadError("duration must be >= 0")
        rng = np.random.default_rng(self.seed)
        expected = self.rate_per_second * duration_seconds
        count = rng.poisson(expected)
        return np.sort(rng.uniform(0.0, duration_seconds, size=count))

    def interarrival_iter(self, duration_seconds: float) -> Iterator[float]:
        """Iterator over interarrival gaps for event-driven consumers."""
        previous = 0.0
        for timestamp in self.arrivals(duration_seconds):
            yield float(timestamp - previous)
            previous = float(timestamp)

    def delivered_fraction(
        self, duration_seconds: float, capacity_per_second: float
    ) -> float:
        """Fraction of queries served when capacity is rate-limited.

        A capacity below the offered rate drops the excess (open-loop
        clients do not back off), which is how degraded throughput during
        an outage translates into the paper's normalised performance.
        """
        if capacity_per_second < 0:
            raise WorkloadError("capacity must be >= 0")
        if self.rate_per_second == 0:
            return 1.0
        return min(1.0, capacity_per_second / self.rate_per_second)
