"""Monte-Carlo generation of yearly outage schedules.

Draws a yearly outage count from Figure 1(a) and a duration for each outage
from Figure 1(b), placing outages uniformly (and disjointly) through the
year.  Seeded, so every availability analysis in the benchmarks is
reproducible.

:func:`sample_year_arrays` is the one sampling rule: a year as plain
``(starts, durations)`` lists.  :func:`sample_year_lanes` makes the same
draws for many years at once, from raw PCG64 words
(:class:`~repro.runner.jobs.PCG64Lanes`; a tail bucket's exponential on
numpy's ziggurat fast path, :mod:`repro.runner.ziggurat`), and redoes
the rare rest (about 0.6% of years: a tail draw off the fast path, a
crowded first placement) with :func:`sample_year_arrays`; the
fault-free Monte-Carlo paths
(:mod:`repro.vsim.yearly`, :mod:`repro.fleet.sim`) feed its flat arrays
straight to the kernel.  :class:`OutageGenerator` wraps the scalar
draws in :class:`OutageSchedule` objects for the scalar, fault and CLI
paths.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
from numpy.random import PCG64, Generator

from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    EmpiricalDistribution,
    outage_counts_from_words,
    sample_outage_count,
)
from repro.outages.events import OutageEvent, OutageSchedule
from repro.runner.jobs import PCG64Lanes, restate, word_doubles
from repro.runner.ziggurat import word_exponentials
from repro.units import SECONDS_PER_YEAR

#: Placement attempts before the deterministic sequential fallback.
_PLACEMENT_ATTEMPTS = 1000

#: A lane whose durations sum to within this fraction of the horizon is
#: redone on the scalar path (which raises at the horizon), so the lane
#: sampler's sum need not round as Python's ``sum`` does.
_SUM_SLACK = 1e-9


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


def sample_year_lanes(
    lanes: PCG64Lanes,
    distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
    horizon: float = SECONDS_PER_YEAR,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every lane's year: ``sample_year_arrays(restate(rng, row))`` per row.

    ``lanes`` holds one stream per year
    (:class:`~repro.runner.jobs.PCG64Lanes`).  Returns ``(starts,
    durations, counts, scalar_years)``: the years' outages flat and
    lane-major, each lane's outage count, and how many lanes were
    redrawn on the scalar path.

    The common-case year is drawn for all lanes at once from their raw
    words: the count from words 0 and 1
    (:func:`~repro.outages.distributions.outage_counts_from_words`),
    then ``count`` bucket doubles, one word per duration and ``count``
    start doubles — the lookahead :func:`sample_outages` takes — with
    each lane's starts sorted and checked disjoint.  A bounded bucket's
    duration word is a double; a tail bucket's is the one word numpy's
    exponential ziggurat reads on its fast path
    (:func:`~repro.runner.ziggurat.word_exponentials`), so a tail year
    keeps this layout.  A lane is redone whole by
    :func:`sample_year_arrays`, the definition, when a tail draw leaves
    the fast path (it reads more words), its durations sum to within
    ``_SUM_SLACK`` of the horizon (the scalar path raises at it), it
    may hit a Lemire rejection, its horizon refuses the lookahead, or
    it fails its first placement: about 0.6% of years on Figure 1.
    Every lane is ``==`` the definition
    (``tests/golden/test_lane_oracle.py``).
    """
    counts, first, scalar = outage_counts_from_words(lanes.words(2).reshape(-1, 2))
    scalar |= (counts > 0) & (counts * distribution.bounded_draw_bound >= horizon)
    live = np.where(scalar, 0, counts)
    words = lanes.words(3 * live, first)
    doubles = word_doubles(words)
    # Event ``e`` is outage ``rank`` of its lane; the lane's ``3 * live``
    # words are its buckets, its durations and its starts, in order.
    lane_of = np.arange(len(live)).repeat(live)
    rank = np.arange(len(lane_of))
    offsets = (np.cumsum(live) - live)[lane_of]
    bucket_at = rank + 2 * offsets
    rank -= offsets
    size = live[lane_of]
    draw_at = bucket_at + size
    cdf, low, log_low, span = distribution.lane_tables
    buckets = cdf.searchsorted(doubles[bucket_at], side="right")
    exponent = log_low[buckets] + span[buckets] * doubles[draw_at]
    durations = np.fromiter(map(math.exp, exponent.tolist()), float, len(rank))
    # A tail bucket (span NaN) draws ``low + rng.exponential(scale=low)``
    # from its one word when the ziggurat takes its fast path.
    tail = np.flatnonzero(np.isnan(exponent))
    draws, fast = word_exponentials(words[draw_at[tail]])
    tail_low = low[buckets[tail]]
    durations[tail] = tail_low + tail_low * draws
    # Each lane's starts sorted; the durations keep their draw order.
    grid = np.full((len(live), int(live.max(initial=0))), np.inf)
    grid[lane_of, rank] = horizon * doubles[draw_at + size]
    grid.sort(axis=1)
    starts = grid[lane_of, rank]
    ends = starts + durations
    bad = (rank == size - 1) & (ends > horizon)
    bad[1:] |= (starts[1:] < ends[:-1]) & (rank[1:] > 0)
    bad[tail[~fast]] = True
    scalar[lane_of[bad]] = True
    # The scalar path raises when a year's durations sum to the horizon;
    # a lane near it is redone, however ``sum`` rounds.
    totals = np.bincount(lane_of, durations, len(live))
    scalar |= totals >= horizon * (1.0 - _SUM_SLACK)

    redo = np.flatnonzero(scalar)
    if not len(redo):
        return starts, durations, counts, 0
    rng = Generator(PCG64(0))
    years = [
        sample_year_arrays(restate(rng, row), distribution, horizon)
        for row in lanes.streams[redo].tolist()
    ]
    counts[redo] = [len(year_starts) for year_starts, _ in years]
    keep = ~scalar[lane_of]
    order = np.concatenate([lane_of[keep], redo.repeat(counts[redo])]).argsort(
        kind="stable"
    )
    redone = [value for year_starts, _ in years for value in year_starts]
    starts = np.concatenate([starts[keep], redone])[order]
    redone = [value for _, year_durations in years for value in year_durations]
    durations = np.concatenate([durations[keep], redone])[order]
    return starts, durations, counts, len(redo)


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
