"""The object-based outage sampler, kept as the oracle of the array one.

This is the yearly schedule sampler as it stood before
:func:`repro.outages.generator.sample_year_arrays`: a numpy
``searchsorted`` bucket draw, a per-event duration loop of scalar
``rng.uniform``/``rng.exponential`` calls, and rejection placement over
:class:`~repro.outages.events.OutageEvent` objects.  The array sampler
must make the same draws in the same order — same starts, same
durations, same generator state afterwards — which
``tests/golden/test_sampler_oracle.py`` checks against this module.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    OUTAGE_FREQUENCY_DISTRIBUTION,
    EmpiricalDistribution,
)
from repro.outages.events import OutageEvent, OutageSchedule
from repro.units import SECONDS_PER_YEAR


def reference_draw_buckets(dist: EmpiricalDistribution, rng, size=None):
    """Bucket indices by mass, as ``rng.choice(n, size, p=masses)`` draws them."""
    cdf = np.cumsum(np.array([b.probability for b in dist.buckets]))
    cdf /= cdf[-1]
    indices = cdf.searchsorted(rng.random(size), side="right")
    return int(indices) if size is None else indices


def reference_sample(
    dist: EmpiricalDistribution, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw ``size`` durations (seconds)."""
    if size < 0:
        raise ValueError("size must be >= 0")
    buckets = dist.buckets
    indices = reference_draw_buckets(dist, rng, size)
    out = np.empty(size)
    for i, idx in enumerate(indices):
        bucket = buckets[int(idx)]
        low = max(bucket.low_seconds, 1.0)
        if math.isinf(bucket.high_seconds):
            out[i] = low + rng.exponential(scale=low)
        else:
            out[i] = math.exp(
                rng.uniform(math.log(low), math.log(bucket.high_seconds))
            )
    return out


def reference_outage_count(rng: np.random.Generator) -> int:
    """Draw a yearly outage count from Figure 1(a)."""
    buckets = OUTAGE_FREQUENCY_DISTRIBUTION.buckets
    bucket = buckets[reference_draw_buckets(OUTAGE_FREQUENCY_DISTRIBUTION, rng)]
    low = int(bucket.low_seconds)
    high = int(bucket.high_seconds)
    return int(rng.integers(low, high))


class ReferenceOutageGenerator:
    """Seeded generator of :class:`OutageSchedule` samples.

    Unlike the production class it takes a ready ``rng``, so a test can
    drive it and the array sampler from twin generators.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        duration_distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
        horizon_seconds: float = SECONDS_PER_YEAR,
    ):
        self._durations = duration_distribution
        self._horizon = float(horizon_seconds)
        self._rng = rng

    def sample_year(self) -> OutageSchedule:
        """One yearly schedule: count from Fig 1(a), durations from Fig 1(b)."""
        count = reference_outage_count(self._rng)
        return self.sample_schedule(count)

    def sample_schedule(self, count: int) -> OutageSchedule:
        """A schedule with exactly ``count`` outages."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return OutageSchedule(events=(), horizon_seconds=self._horizon)
        durations = reference_sample(self._durations, self._rng, size=count)
        events = self._place_disjointly(list(map(float, durations)))
        return OutageSchedule(events=tuple(events), horizon_seconds=self._horizon)

    def sample_years(self, num_years: int) -> List[OutageSchedule]:
        """``num_years`` independent yearly schedules."""
        if num_years < 0:
            raise ValueError("num_years must be >= 0")
        return [self.sample_year() for _ in range(num_years)]

    def _place_disjointly(self, durations: List[float]) -> List[OutageEvent]:
        """Place outages at uniform starts, retrying collisions; a
        deterministic fallback packs sequentially if the year is
        pathologically full."""
        total = sum(durations)
        if total >= self._horizon:
            raise ValueError("outages exceed the schedule horizon")
        for _ in range(1000):
            starts = np.sort(self._rng.uniform(0, self._horizon, size=len(durations)))
            events = [
                OutageEvent(start_seconds=float(s), duration_seconds=d)
                for s, d in zip(starts, durations)
            ]
            if self._disjoint_within_horizon(events):
                return events
        # Fallback: evenly spaced sequential packing (deterministic).
        gap = (self._horizon - total) / (len(durations) + 1)
        events = []
        cursor = gap
        for duration in durations:
            events.append(OutageEvent(start_seconds=cursor, duration_seconds=duration))
            cursor += duration + gap
        return events

    def _disjoint_within_horizon(self, events: List[OutageEvent]) -> bool:
        for earlier, later in zip(events, events[1:]):
            if later.start_seconds < earlier.end_seconds:
                return False
        return bool(events) and events[-1].end_seconds <= self._horizon
