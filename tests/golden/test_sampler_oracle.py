"""The array outage sampler against the object-based reference.

:func:`repro.outages.generator.sample_year_arrays` draws a year by
bisecting a list CDF, computes bounded durations as ``exp(log_low +
span * u)`` in Python floats, and — when no tail bucket is drawn —
takes the duration and first-placement uniforms from one
``rng.random`` call.  Every Monte-Carlo payload depends on it making
exactly the draws of the sampler it replaced
(:mod:`tests.outages.reference_generator`).  This test requires, year
after year from twin generators:

* ``==`` starts and durations, and ``==`` ``rng.bit_generator.state``
  after each year (so the next year starts from the same stream);
* the same over :meth:`OutageGenerator.sample_years` runs;
* the same on every rare path, each forced and shown to be taken:
  tail buckets between bounded ones, collision retries, the sequential
  fallback, empty years, and a horizon the durations overfill.

If ``lo + span * u`` ever differs from ``rng.uniform(lo, hi)`` on some
numpy build (a fused multiply-add in C would do it), the sampler must
go back to ``rng.uniform`` — this test is the tripwire.
"""

import math

import numpy as np
import pytest

from repro.outages.distributions import DurationBucket, EmpiricalDistribution
from repro.outages.generator import (
    OutageGenerator,
    sample_outages,
    sample_year_arrays,
)
from tests.outages.reference_generator import ReferenceOutageGenerator

YEARS = 20_000
BASE_SEEDS = (0, 7101, 2**63 + 5)


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def arrays(schedule):
    return (
        [event.start_seconds for event in schedule],
        [event.duration_seconds for event in schedule],
    )


class CountingRng:
    """A generator proxy counting the doubles drawn by ``random``."""

    def __init__(self, rng):
        self._rng = rng
        self.doubles = 0

    def random(self, size=None):
        self.doubles += 1 if size is None else size
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("seed", BASE_SEEDS)
def test_figure1_years_match_reference(seed):
    ours, theirs = twins(seed)
    reference = ReferenceOutageGenerator(theirs)
    events = 0
    for _ in range(YEARS):
        got = sample_year_arrays(ours)
        assert got == arrays(reference.sample_year())
        assert ours.bit_generator.state == theirs.bit_generator.state
        events += len(got[0])
    assert events > 3 * YEARS  # Figure 1(a) averages ~3.6 outages a year


def test_consecutive_sample_years_match_reference():
    ours = OutageGenerator(seed=np.random.SeedSequence(31))
    theirs = np.random.default_rng(np.random.SeedSequence(31))
    got = ours.sample_years(500)
    want = ReferenceOutageGenerator(theirs).sample_years(500)
    assert got == want  # frozen dataclasses: exact float equality
    assert ours._rng.bit_generator.state == theirs.bit_generator.state


# A tail bucket carrying half the mass, between-draw exponentials on
# most schedules: the uniforms split into several segments.
TAIL_HEAVY = EmpiricalDistribution(
    [
        DurationBucket(0.0, 30.0, 0.2, "short"),
        DurationBucket(30.0, 300.0, 0.2, "mid"),
        DurationBucket(300.0, 900.0, 0.1, "long"),
        DurationBucket(900.0, float("inf"), 0.5, "tail"),
    ]
)

# Bounded outages of 1-10 s, for crowded horizons.
SHORT = EmpiricalDistribution([DurationBucket(0.0, 10.0, 1.0, "short")])


def check_schedules(distribution, horizon, counts, seeds, tail_low=math.inf):
    """Compare ``sample_outages`` with the reference schedule by schedule;
    return how many placement attempts were drawn and how many
    schedules fell back to sequential packing."""
    attempts = fallbacks = 0
    for seed in seeds:
        rng, theirs = twins(seed)
        ours = CountingRng(rng)
        reference = ReferenceOutageGenerator(theirs, distribution, horizon)
        for count in counts:
            before = ours.doubles
            starts, durations = sample_outages(ours, count, distribution, horizon)
            assert (starts, durations) == arrays(reference.sample_schedule(count))
            assert rng.bit_generator.state == theirs.bit_generator.state
            if count:
                # One bucket double per outage, one duration double per
                # bounded outage, then ``count`` start doubles per attempt.
                bounded = sum(1 for d in durations if d < tail_low)
                tries = (ours.doubles - before - count - bounded) // count
                attempts += tries
                gap = (horizon - sum(durations)) / (count + 1)
                fallbacks += tries == 1000 and starts[0] == gap
    return attempts, fallbacks


def test_tail_segments_interleave():
    counts = list(range(15))
    attempts, _ = check_schedules(
        TAIL_HEAVY, 3.15e7, counts, range(40), tail_low=900.0
    )
    interleaved = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for count in counts:
            _, durations = sample_outages(rng, count, TAIL_HEAVY, 3.15e7)
            tails = [d >= 900.0 for d in durations]
            # A bounded draw after a tail draw after a bounded draw.
            text = "".join("t" if t else "b" for t in tails)
            interleaved += "btb" in text
    assert interleaved > 50
    assert attempts == 40 * (len(counts) - 1)  # a year-long horizon never collides


def test_crowded_horizon_retries_then_places():
    # 2 x 10 s x 6 < 150: the fused first attempt is used, and six
    # 1-10 s outages in 150 s collide often.
    attempts, fallbacks = check_schedules(SHORT, 150.0, [6] * 50, range(20))
    assert attempts > 2 * 20 * 50
    assert fallbacks == 0


def test_packed_horizon_falls_back_to_sequential_packing():
    # Twelve 5-5.5 s outages in 70 s never land disjoint by chance.
    packed = EmpiricalDistribution([DurationBucket(5.0, 5.5, 1.0, "5 s")])
    _, fallbacks = check_schedules(packed, 70.0, [12] * 5, range(6))
    assert fallbacks == 30


def test_empty_years_draw_nothing_but_the_count():
    rng, theirs = twins(4)
    assert sample_outages(rng, 0) == ([], [])
    assert rng.bit_generator.state == theirs.bit_generator.state
    empty = 0
    reference = ReferenceOutageGenerator(theirs)
    for _ in range(2000):
        got = sample_year_arrays(rng)
        assert got == arrays(reference.sample_year())
        assert rng.bit_generator.state == theirs.bit_generator.state
        empty += got == ([], [])
    assert empty > 200  # Figure 1(a): 17% of years see no outage


def test_durations_overfilling_the_horizon_raise_in_step():
    rng, theirs = twins(8)
    with pytest.raises(ValueError):
        sample_outages(rng, 5, SHORT, 4.0)
    with pytest.raises(ValueError):
        ReferenceOutageGenerator(theirs, SHORT, 4.0).sample_schedule(5)
    assert rng.bit_generator.state == theirs.bit_generator.state
