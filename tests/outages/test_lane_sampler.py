"""The lane-parallel year sampler against the scalar definition.

:func:`repro.outages.generator.sample_year_lanes` draws the common-case
year for every lane at once from raw PCG64 words and redoes the rest
with :func:`~repro.outages.generator.sample_year_arrays`.  Each test
here shows one branch taken and the lane's output ``==`` the scalar
output; ``tests/golden/test_lane_oracle.py`` holds the same at scale.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from repro.outages import generator
from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    outage_counts_from_words,
    sample_outage_count,
)
from repro.outages.generator import sample_year_arrays, sample_year_lanes
from repro.runner.jobs import PCG64Lanes, child_streams, restate
from repro.runner.ziggurat import KE
from repro.units import SECONDS_PER_YEAR
from repro.vsim.yearly import draw_dg_starts
from tests.runner.pcg64_words import row_emitting

ROOT = np.random.SeedSequence(0)
#: Found by search over the years of SeedSequence(0): year 4 draws a
#: tail bucket (its duration is an exponential) on the ziggurat's fast
#: path, year 1820 draws one whose exponential takes numpy's slow path
#: (it reads a second word), year 323 draws 12 bounded outages whose
#: first placement collides (the scalar path draws a second set of
#: starts), and year 9 draws no outage.
TAIL_YEAR, SLOW_TAIL_YEAR, RETRY_YEAR, EMPTY_YEAR = 4, 1820, 323, 9
#: Figure 1(b)'s > 240 minute bucket.
TAIL_BUCKET = len(OUTAGE_DURATION_DISTRIBUTION.buckets) - 1


class CallLog:
    """A generator proxy recording the calls the scalar sampler makes."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def random(self, size=None):
        self.calls.append("random")
        return self._rng.random(size)

    def exponential(self, *args, **kwargs):
        self.calls.append("exponential")
        return self._rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def streams(years, root=ROOT):
    return child_streams(root, [(i, 0) for i in years])


def scalar_years(rows, horizon=SECONDS_PER_YEAR):
    rng = Generator(PCG64(0))
    return [
        sample_year_arrays(restate(rng, row), horizon=horizon)
        for row in rows.tolist()
    ]


def split(starts, durations, counts):
    """Flat lane output back into per-year ``(starts, durations)``."""
    ends = np.cumsum(counts).tolist()
    return [
        (starts[end - n:end].tolist(), durations[end - n:end].tolist())
        for end, n in zip(ends, counts.tolist())
    ]


def assert_lanes_match(rows, horizon=SECONDS_PER_YEAR):
    starts, durations, counts, redone = sample_year_lanes(
        PCG64Lanes(rows), horizon=horizon
    )
    assert split(starts, durations, counts) == scalar_years(rows, horizon)
    return redone


def scalar_calls(row):
    log = CallLog(restate(Generator(PCG64(0)), row))
    sample_year_arrays(log)
    return log.calls


def words_read(row):
    """How many raw words the scalar sampler reads for ``row``'s year."""
    rng = restate(Generator(PCG64(0)), row)
    sample_year_arrays(rng)
    # The LCG state only: the count's ``integers`` call leaves half a
    # word buffered.
    state = rng.bit_generator.state["state"]
    probe, read = restate(Generator(PCG64(0)), row), 0
    while probe.bit_generator.state["state"] != state:
        probe.bit_generator.advance(1)
        read += 1
    return read


def ziggurat_word(index, ri):
    """The raw word numpy's exponential reads as ziggurat index
    ``index`` and mantissa ``ri``: ``ri = w >> 11``, ``index = (w >> 3)
    & 0xff``."""
    return ((ri << 8) | index) << 3


def tail_year(word, start_word=1 << 63):
    """A one-row stream whose year is one tail-bucket outage drawn from
    ``word`` (raw word 3), starting at ``start_word``'s double (word 4;
    the default starts it mid-year).  Words 3 and 4 are pinned
    (``tests/runner/pcg64_words.py``); the search tries the two states'
    free high halves until words 0-2 draw a count of 1 and the tail
    bucket, about 1 try in 100."""
    search = random.Random(word)
    while True:
        highs = (search.getrandbits(64), search.getrandbits(64))
        row = row_emitting(3, word, start_word, highs)
        rng = restate(Generator(PCG64(0)), row)
        if (
            sample_outage_count(rng) == 1
            and OUTAGE_DURATION_DISTRIBUTION.draw_buckets(rng) == TAIL_BUCKET
        ):
            return row[None]


class TestFallbacks:
    def test_fast_path_tail_year_is_drawn_lane_parallel(self):
        rows = streams([TAIL_YEAR])
        assert "exponential" in scalar_calls(rows[0])
        assert assert_lanes_match(rows) == 0

    def test_slow_path_tail_year_is_redone(self):
        rows = streams([SLOW_TAIL_YEAR])
        calls = scalar_calls(rows[0])
        assert calls.count("exponential") == 1
        # Two outages on the common layout read 2 + 3 * 2 words; the
        # slow path reads one more.
        assert words_read(rows[0]) == 2 + 3 * 2 + 1
        assert assert_lanes_match(rows) == 1

    def test_failed_first_placement_is_redone(self):
        rows = streams([RETRY_YEAR])
        calls = scalar_calls(rows[0])
        # count, buckets, durations + first starts, then the retry.
        assert "exponential" not in calls and calls.count("random") == 4
        assert assert_lanes_match(rows) == 1

    def test_possible_lemire_rejection_is_flagged(self):
        # Figure 1(a)'s count ranges (2, 4 and 8 wide) divide 2**32, so
        # numpy never rejects; a leftover below the range is where it
        # could, and only crafted words reach it.
        one_to_two = (int(0.3 * 2**53) << 11) | 5  # bucket [1, 3)
        none = 5 << 11  # bucket [0, 1): a one-count bucket
        head = np.array(
            [[one_to_two, 0], [one_to_two, 1 << 31], [one_to_two, 1],
             [one_to_two, 0xFFFFFFFF], [none, 0]],
            dtype=np.uint64,
        )
        counts, first, scalar = outage_counts_from_words(head)
        assert scalar.tolist() == [True, True, False, False, False]
        assert counts[2:].tolist() == [1, 2, 0]
        assert first.tolist() == [2, 2, 2, 2, 1]

    def test_flagged_counts_are_redone(self, monkeypatch):
        real = generator.outage_counts_from_words

        def flag_every_lane(head):
            counts, first, scalar = real(head)
            return counts, first, np.ones_like(scalar)

        monkeypatch.setattr(generator, "outage_counts_from_words", flag_every_lane)
        rows = streams(range(30))
        assert assert_lanes_match(rows) == 30

    def test_empty_year_draws_only_the_count_double(self):
        rows = streams([EMPTY_YEAR])
        rng = restate(Generator(PCG64(0)), rows[0])
        assert sample_year_arrays(rng) == ([], [])
        moved = restate(Generator(PCG64(0)), rows[0])
        moved.bit_generator.advance(1)
        assert rng.bit_generator.state == moved.bit_generator.state
        lanes = PCG64Lanes(rows)
        counts, first, scalar = outage_counts_from_words(
            lanes.words(2).reshape(-1, 2)
        )
        assert (counts.tolist(), first.tolist(), scalar.tolist()) == (
            [0], [1], [False],
        )
        assert assert_lanes_match(rows) == 0

    def test_refused_lookahead_is_redone(self):
        # Five bounded outages may fill 40 hours, so a year of five or
        # more takes no lookahead and is drawn on the scalar path.
        horizon = 5 * 28800.0
        rows = streams(range(60))
        keep = []
        for k, row in enumerate(rows.tolist()):
            try:
                sample_year_arrays(restate(Generator(PCG64(0)), row), horizon=horizon)
            except ValueError:  # the outages overfill the horizon
                continue
            keep.append(k)
        rows = rows[keep]
        counts = sample_year_lanes(PCG64Lanes(rows))[2]
        refused = int((counts >= 5).sum())
        assert refused
        assert assert_lanes_match(rows, horizon) >= refused


class TestTailDraws:
    """One tail outage drawn from a crafted ziggurat word.

    A fast-path draw reads one word, so the year reads 5: the count's
    two, the bucket, the exponential and the start.  Any other draw
    reads more, and the lane must be redone on the scalar path."""

    @pytest.mark.parametrize(
        "index, ri",
        [
            pytest.param(0, 1, id="index0-first"),
            pytest.param(0, 1 << 52, id="index0-mid"),
            pytest.param(0, int(KE[0]) - 1, id="index0-last-fast"),
            pytest.param(0, int(KE[0]), id="index0-at-ke"),
            pytest.param(1, 0, id="index1-zero"),
            pytest.param(1, 1, id="index1-first"),
            pytest.param(1, (1 << 53) - 1, id="index1-last"),
            pytest.param(7, int(KE[7]) - 1, id="index7-last-fast"),
            pytest.param(7, int(KE[7]), id="index7-at-ke"),
            pytest.param(255, int(KE[255]) - 1, id="index255-last-fast"),
            pytest.param(255, int(KE[255]), id="index255-at-ke"),
        ],
    )
    def test_tail_word(self, index, ri):
        rows = tail_year(ziggurat_word(index, ri))
        assert scalar_calls(rows[0]).count("exponential") == 1
        fast = words_read(rows[0]) == 5
        assert fast == (ri < KE[index])
        assert assert_lanes_match(rows) == (0 if fast else 1)

    def test_tail_past_the_horizon_raises_like_the_scalar_path(self):
        # x = 7.7 on the fast path: a 125,000 s outage.
        rows = tail_year(ziggurat_word(0, int(KE[0]) - 1))
        with pytest.raises(ValueError, match="horizon"):
            scalar_years(rows, horizon=100_000.0)
        with pytest.raises(ValueError, match="horizon"):
            sample_year_lanes(PCG64Lanes(rows), horizon=100_000.0)

    def test_tail_filling_the_horizon_raises_like_the_scalar_path(self):
        # Started at 0 it ends on the horizon, so it is placed, but its
        # duration sums to the horizon, where the scalar path raises.
        rows = tail_year(ziggurat_word(0, 1 << 52), start_word=0)
        [(_, [duration])] = scalar_years(rows)
        assert assert_lanes_match(rows, horizon=duration + 1.0) == 0
        with pytest.raises(ValueError, match="horizon"):
            scalar_years(rows, horizon=duration)
        with pytest.raises(ValueError, match="horizon"):
            sample_year_lanes(PCG64Lanes(rows), horizon=duration)


class TestLaneSampler:
    def test_block_of_years(self):
        redone = assert_lanes_match(streams(range(400)))
        # Slow-path tail draws and failed first placements only.
        assert redone < 0.02 * 400

    def test_no_lanes(self):
        starts, durations, counts, redone = sample_year_lanes(
            PCG64Lanes(np.empty((0, 4), dtype=np.uint64))
        )
        assert (len(starts), len(durations), len(counts), redone) == (0, 0, 0, 0)

    def test_overfull_horizon_raises_like_the_scalar_path(self):
        rows = streams(range(40))
        with pytest.raises(ValueError, match="horizon"):
            scalar_years(rows, horizon=100.0)
        with pytest.raises(ValueError, match="horizon"):
            sample_year_lanes(PCG64Lanes(rows), horizon=100.0)

    @settings(max_examples=40, deadline=None)
    @given(
        entropy=st.integers(0, 2**130),
        start=st.integers(0, 2**32 - 64),
        years=st.integers(1, 40),
        reliability=st.floats(0.0, 0.999),
    )
    def test_property_lanes_equal_scalar(self, entropy, start, years, reliability):
        root = np.random.SeedSequence(entropy)
        rows = streams(range(start, start + years), root)
        starts, durations, counts, _ = sample_year_lanes(PCG64Lanes(rows))
        assert split(starts, durations, counts) == scalar_years(rows)
        # DG rolls from the (i, 1) streams, one per outage.
        dg_rows = child_streams(root, [(i, 1) for i in range(start, start + years)])
        rng = Generator(PCG64(0))
        expected = [
            roll
            for row, n in zip(dg_rows.tolist(), counts.tolist())
            for roll in (restate(rng, row).random(n) < reliability).tolist()
        ]
        assert draw_dg_starts(dg_rows, reliability, counts).tolist() == expected
