"""The lane-parallel year sampler against the scalar one, at scale.

Every fault-free Monte-Carlo payload is drawn by
:func:`repro.outages.generator.sample_year_lanes` and
:func:`repro.vsim.yearly.draw_dg_starts`, which step PCG64 for many
years at once (:class:`repro.runner.jobs.PCG64Lanes`) and redo the
uncommon years with :func:`~repro.outages.generator.sample_year_arrays`.
For 3 roots x 100k years, in 1000-year blocks as the year-block job
draws them, this test requires each year's starts, durations and count,
and its DG rolls from the ``(i, 1)`` stream, to be ``==`` the scalar
draws from a restated generator.  numpy is not pinned, so this is also
the tripwire for a release that changes ``Generator.random``,
``integers`` or PCG64.
"""

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from repro.outages.generator import sample_year_arrays, sample_year_lanes
from repro.runner.jobs import PCG64Lanes, child_streams, restate
from repro.vsim.yearly import draw_dg_starts

YEARS = 100_000
BLOCK = 1000
RELIABILITY = 0.9
ROOTS = {
    "seed-7": lambda: np.random.SeedSequence(7),
    "wide-keyed": lambda: np.random.SeedSequence(2**70 + 3, spawn_key=(5,)),
    "list-pool-8": lambda: np.random.SeedSequence([2**40 + 1, 9], pool_size=8),
}


@pytest.mark.parametrize("root", sorted(ROOTS))
def test_lanes_equal_scalar(root):
    root = ROOTS[root]()
    rng = Generator(PCG64(0))
    redone = 0
    for start in range(0, YEARS, BLOCK):
        years = range(start, start + BLOCK)
        streams = child_streams(root, [(i, k) for i in years for k in (0, 1)])
        schedules, rolls = streams[0::2], streams[1::2]
        starts, durations, counts, scalar = sample_year_lanes(
            PCG64Lanes(schedules)
        )
        redone += scalar
        dg = draw_dg_starts(rolls, RELIABILITY, counts).tolist()
        starts, durations = starts.tolist(), durations.tolist()
        end = 0
        for i, schedule, roll, n in zip(
            years, schedules.tolist(), rolls.tolist(), counts.tolist()
        ):
            begin, end = end, end + n
            expected = sample_year_arrays(restate(rng, schedule))
            assert (starts[begin:end], durations[begin:end]) == expected, (
                f"year {i}: outages differ"
            )
            assert dg[begin:end] == (
                restate(rng, roll).random(n) < RELIABILITY
            ).tolist(), f"year {i}: DG rolls differ"
        assert end == len(starts)
    # About 0.6% of years are redone whole: a tail draw off the
    # ziggurat's fast path, or a failed first placement.
    assert 0.002 * YEARS < redone < 0.01 * YEARS
