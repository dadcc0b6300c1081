"""The one-pass stream seeds against numpy, at Monte-Carlo scale.

:func:`repro.runner.jobs.child_streams` re-implements SeedSequence's
pool mixing and ``generate_state`` on arrays, and
:func:`repro.runner.jobs.restate` re-implements PCG64's seeding step;
every fault-free Monte-Carlo payload depends on both equalling numpy's
own code.  The tier-1 oracle (``tests/runner/test_jobs.py``) covers the
root and path shapes; this test covers scale: for 3 roots, the schedule
stream ``(i, 0)`` and DG stream ``(i, 1)`` of 100k years each, the seed
words must be ``==`` ``child_seed(root, i, k).generate_state(4,
np.uint64)`` and the restated generator's ``bit_generator.state`` must
be ``==`` ``PCG64(child_seed(root, i, k)).state``, year by year.  numpy
is not pinned, so this is the tripwire for a release that changes
either algorithm.
"""

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from repro.runner.jobs import child_seed, child_streams, restate

YEARS = 100_000
ROOTS = {
    "seed-7": lambda: np.random.SeedSequence(7),
    "wide-keyed": lambda: np.random.SeedSequence(2**70 + 3, spawn_key=(5,)),
    "list-pool-8": lambda: np.random.SeedSequence([2**40 + 1, 9], pool_size=8),
}


@pytest.mark.parametrize("stream", [0, 1], ids=["schedule", "dg"])
@pytest.mark.parametrize("root", sorted(ROOTS))
def test_streams_equal_numpy(root, stream):
    root = ROOTS[root]()
    words = child_streams(root, [(i, stream) for i in range(YEARS)])
    rng = Generator(PCG64(0))
    for i, row in enumerate(words.tolist()):
        child = child_seed(root, i, stream)
        expected = child.generate_state(4, np.uint64).tolist()
        assert row == expected, f"year {i}: seed words differ"
        state = restate(rng, row).bit_generator.state
        assert state == PCG64(child).state, f"year {i}: PCG64 state differs"
