"""The committed ziggurat tables against the installed numpy.

:mod:`repro.runner.ziggurat` commits numpy's exponential ziggurat
tables ``KE`` and ``WE``; the lane sampler draws every tail-bucket
duration from them
(:func:`repro.outages.generator.sample_year_lanes`).  numpy does not
expose the tables, so this test re-derives both from numpy's own draws,
on generators set to emit chosen words (``tests/runner/pcg64_words.py``),
and requires them ``==`` the committed ones.  A numpy release that
changes its ziggurat fails here, by name, before any draw changes.

For word ``w`` with ``ri = w >> 11`` and ``idx = (w >> 3) & 0xff``, a
draw that reads only ``w`` took the fast path, which numpy takes when
``ri < KE[idx]``; so ``KE[idx]`` is the first ``ri`` whose draw reads
a second word, found by bisection.  ``ri = 1`` draws ``WE[idx]``
itself: on the fast path, or (index 1, where ``KE`` is 0) on the slow
path's accepting branch when the next word's double is 0.
"""

import numpy as np
from numpy.random import PCG64, Generator

from repro.runner.jobs import restate
from repro.runner.ziggurat import KE, WE, word_exponentials
from tests.runner.pcg64_words import row_emitting


def draw(word, then=0):
    """``standard_exponential`` from a stream whose words start
    ``word, then``; returns ``(value, read only the first word)``."""
    row = row_emitting(0, word, then)
    rng = restate(Generator(PCG64(0)), row)
    value = rng.standard_exponential()
    moved = restate(Generator(PCG64(0)), row)
    moved.bit_generator.advance(1)
    return value, rng.bit_generator.state == moved.bit_generator.state


def word(index, ri):
    return ((ri << 8) | index) << 3


def test_tables_equal_numpy():
    ke, we = [], []
    for index in range(256):
        low, high = 0, 1 << 53
        while low < high:
            middle = (low + high) // 2
            if draw(word(index, middle))[1]:
                low = middle + 1
            else:
                high = middle
        ke.append(low)
        we.append(draw(word(index, 1))[0])
    assert KE.tolist() == ke
    assert WE.tolist() == we
    assert ke[1] == 0 and all(ke[:1] + ke[2:])


def test_word_exponentials_equal_numpy():
    # Random words, and words at every index's fast-path edge.
    words = np.random.default_rng(20_000).integers(
        0, 2**64, 4000, dtype=np.uint64
    ).tolist()
    words += [
        word(index, ri)
        for index in range(256)
        for ri in (int(KE[index]) - 1, int(KE[index]))
        if ri >= 0
    ]
    values, fast = word_exponentials(np.array(words, dtype=np.uint64))
    for w, value, on_fast in zip(words, values.tolist(), fast.tolist()):
        expected, one_word = draw(w)
        assert on_fast == one_word, f"word {w:#x}"
        if on_fast:
            assert value == expected, f"word {w:#x}"
    assert 0.95 < np.mean(fast[:4000]) < 0.99
