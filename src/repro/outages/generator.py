"""Monte-Carlo generation of yearly outage schedules.

Draws a yearly outage count from Figure 1(a) and a duration for each outage
from Figure 1(b), placing outages uniformly (and disjointly) through the
year.  Seeded, so every availability analysis in the benchmarks is
reproducible.

:func:`sample_year_arrays` is the one sampling rule: a year as plain
``(starts, durations)`` lists, which the fault-free Monte-Carlo paths
(:mod:`repro.vsim.yearly`, :mod:`repro.fleet.sim`) feed straight to the
kernel.  :class:`OutageGenerator` wraps the same draws in
:class:`OutageSchedule` objects for the scalar, fault and CLI paths.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    EmpiricalDistribution,
    sample_outage_count,
)
from repro.outages.events import OutageEvent, OutageSchedule
from repro.units import SECONDS_PER_YEAR

#: Placement attempts before the deterministic sequential fallback.
_PLACEMENT_ATTEMPTS = 1000


def sample_year_arrays(
    rng: np.random.Generator,
    distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
    horizon: float = SECONDS_PER_YEAR,
) -> Tuple[List[float], List[float]]:
    """One year's outages as ``(starts, durations)``, sorted by start.

    The count comes from Figure 1(a), the durations from
    ``distribution`` (:meth:`EmpiricalDistribution.sample_durations`),
    and the starts are uniform over ``horizon``, redrawn until the
    outages are disjoint (:func:`sample_outages`).
    """
    return sample_outages(rng, sample_outage_count(rng), distribution, horizon)


def sample_outages(
    rng: np.random.Generator,
    count: int,
    distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
    horizon: float = SECONDS_PER_YEAR,
) -> Tuple[List[float], List[float]]:
    """Exactly ``count`` outages as ``(starts, durations)``.

    Draws, in order: the durations, then ``count`` start uniforms per
    placement attempt.  When the durations need no exponential draw
    and cannot fill the horizon, the first attempt's uniforms come from
    the durations' own ``rng.random`` call — the same doubles, one call
    fewer.  Outages are rare and short relative to a year, so rejection
    sampling converges immediately in practice; a deterministic fallback
    packs sequentially if the year is pathologically full.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return [], []
    lookahead = count if count * distribution.bounded_draw_bound < horizon else 0
    durations, uniforms = distribution.sample_durations(rng, count, lookahead)
    total = sum(durations)
    if total >= horizon:
        raise ValueError("outages exceed the schedule horizon")
    for _ in range(_PLACEMENT_ATTEMPTS):
        if not uniforms:
            uniforms = rng.random(count).tolist()
        # ``rng.uniform(0, horizon)`` is 0.0 + horizon * u.
        starts = sorted([horizon * u for u in uniforms])
        uniforms = []
        if _disjoint_within(starts, durations, horizon):
            return starts, durations
    # Fallback: evenly spaced sequential packing (deterministic).
    gap = (horizon - total) / (count + 1)
    starts = []
    cursor = gap
    for duration in durations:
        starts.append(cursor)
        cursor += duration + gap
    return starts, durations


def _disjoint_within(
    starts: List[float], durations: List[float], horizon: float
) -> bool:
    end = starts[0] + durations[0]
    for start, duration in zip(starts[1:], durations[1:]):
        if start < end:
            return False
        end = start + duration
    return end <= horizon


class OutageGenerator:
    """Seeded generator of :class:`OutageSchedule` samples.

    Args:
        duration_distribution: Distribution of per-outage durations
            (defaults to Figure 1(b)).
        horizon_seconds: Schedule length (defaults to one year).
        seed: RNG seed — an int, or a :class:`numpy.random.SeedSequence`
            (what the runner subsystem spawns per job) — anything
            :func:`numpy.random.default_rng` accepts.
    """

    def __init__(
        self,
        duration_distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
        horizon_seconds: float = SECONDS_PER_YEAR,
        seed: "int | np.random.SeedSequence" = 0,
    ):
        self._durations = duration_distribution
        self._horizon = float(horizon_seconds)
        self._rng = np.random.default_rng(seed)

    def sample_year(self) -> OutageSchedule:
        """One yearly schedule: count from Fig 1(a), durations from Fig 1(b)."""
        return self._schedule(
            *sample_year_arrays(self._rng, self._durations, self._horizon)
        )

    def sample_schedule(self, count: int) -> OutageSchedule:
        """A schedule with exactly ``count`` outages."""
        return self._schedule(
            *sample_outages(self._rng, count, self._durations, self._horizon)
        )

    def sample_years(self, num_years: int) -> List[OutageSchedule]:
        """``num_years`` independent yearly schedules."""
        if num_years < 0:
            raise ValueError("num_years must be >= 0")
        return [self.sample_year() for _ in range(num_years)]

    def _schedule(
        self, starts: List[float], durations: List[float]
    ) -> OutageSchedule:
        return OutageSchedule(
            events=tuple(
                OutageEvent(start_seconds=s, duration_seconds=d)
                for s, d in zip(starts, durations)
            ),
            horizon_seconds=self._horizon,
        )
