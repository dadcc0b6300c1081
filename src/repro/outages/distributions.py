"""The empirical outage distributions of Figure 1.

Figure 1(a): power-outage *frequency* per year across US businesses —
17 % see none, 40 % see 1-2, 30 % see 3-6, 13 % see 7 or more; so 87 %
experience 6 or fewer.

Figure 1(b): outage *duration* — 31 % last under a minute, 27 % 1-5 min,
14 % 5-30 min, 17 % 30-120 min, 6 % 120-240 min, 5 % over 240 min; over
58 % are shorter than 5 minutes, and more than 30 % end before a diesel
generator would even have finished its start-up and load transfer.

Both histograms are bucketised, so the library represents them as
:class:`EmpiricalDistribution` objects over :class:`DurationBucket` ranges
and samples within a bucket log-uniformly (outage durations are heavy-tailed
within buckets; log-uniform is the max-entropy-ish choice that keeps the
bucket probabilities exact while avoiding a pile-up at bucket edges).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.runner.jobs import word_doubles
from repro.units import hours, minutes, ordered_sum, seconds


@dataclass(frozen=True)
class DurationBucket:
    """One histogram bucket: a half-open range with a probability mass.

    Attributes:
        low_seconds: Inclusive lower edge.
        high_seconds: Exclusive upper edge (``inf`` allowed for the tail).
        probability: Mass of the bucket (buckets of a distribution sum to 1).
        label: Human-readable label matching the paper's x-axis.
    """

    low_seconds: float
    high_seconds: float
    probability: float
    label: str

    def __post_init__(self) -> None:
        if self.low_seconds < 0 or self.high_seconds <= self.low_seconds:
            raise ConfigurationError(f"bad bucket range: {self}")
        if not 0 <= self.probability <= 1:
            raise ConfigurationError(f"bad bucket probability: {self}")

    def contains(self, duration_seconds: float) -> bool:
        return self.low_seconds <= duration_seconds < self.high_seconds

    def midpoint_seconds(self) -> float:
        """Geometric midpoint (log-scale) used for expected-value summaries;
        unbounded tails use 1.5x the lower edge."""
        if math.isinf(self.high_seconds):
            return self.low_seconds * 1.5
        low = max(self.low_seconds, 1.0)
        return math.sqrt(low * self.high_seconds)


class EmpiricalDistribution:
    """A bucketised distribution with exact bucket masses.

    Sampling draws a bucket by mass, then a duration log-uniformly within
    the bucket (bounded tails); the unbounded tail bucket samples from a
    truncated exponential anchored at its lower edge.
    """

    def __init__(self, buckets: Sequence[DurationBucket]):
        if not buckets:
            raise ConfigurationError("distribution needs at least one bucket")
        total = sum(b.probability for b in buckets)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"bucket masses sum to {total}, expected 1.0")
        edges = [(b.low_seconds, b.high_seconds) for b in buckets]
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            if lo < hi:
                raise ConfigurationError("buckets must be ordered and disjoint")
        self._buckets = list(buckets)
        # The normalised CDF ``Generator.choice(n, p=masses)`` rebuilds on
        # every call, built once as a list for ``bisect``; see
        # :meth:`draw_buckets`.
        cdf = np.cumsum(np.array([b.probability for b in buckets]))
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        # Per-bucket sampling tables: a bounded bucket draws
        # math.exp(log_low + span * u) — the value of
        # math.exp(rng.uniform(log_low, log_high)) from the same double;
        # np.exp differs from math.exp in the last bit on some inputs —
        # and a tail bucket (span None) draws low + Exponential(scale=low).
        self._low: List[float] = []
        self._log_low: List[float] = []
        self._span: List[Optional[float]] = []
        for bucket in buckets:
            low = max(bucket.low_seconds, 1.0)
            self._low.append(low)
            self._log_low.append(math.log(low))
            if math.isinf(bucket.high_seconds):
                self._span.append(None)
            else:
                # The subtraction ``rng.uniform(lo, hi)`` does.
                self._span.append(math.log(bucket.high_seconds) - math.log(low))
        self._tails = frozenset(i for i, s in enumerate(self._span) if s is None)
        #: The CDF, ``low``, ``log_low`` and ``span`` tables as arrays
        #: for drawing many lanes at once (:mod:`repro.outages.generator`);
        #: a tail bucket's span is NaN.
        self.lane_tables = (
            np.array(self._cdf),
            np.array(self._low),
            np.array(self._log_low),
            np.array([math.nan if s is None else s for s in self._span]),
        )
        #: An upper bound on any bounded-bucket draw (the 2x covers the
        #: rounding of ``exp``); see ``repro.outages.generator``.
        self.bounded_draw_bound = 2.0 * max(
            (b.high_seconds for b in buckets if not math.isinf(b.high_seconds)),
            default=0.0,
        )

    @property
    def buckets(self) -> List[DurationBucket]:
        return list(self._buckets)

    def probability_at_most(self, duration_seconds: float) -> float:
        """CDF evaluated at a duration, linear (in log space) within the
        straddled bucket."""
        cdf = 0.0
        for bucket in self._buckets:
            if duration_seconds >= bucket.high_seconds:
                cdf += bucket.probability
            elif bucket.contains(duration_seconds):
                low = max(bucket.low_seconds, 1.0)
                high = bucket.high_seconds
                if math.isinf(high):
                    # Exponential tail anchored at the bucket edge.
                    scale = low  # mean residual = lower edge
                    frac = 1.0 - math.exp(-(duration_seconds - low) / scale)
                else:
                    frac = math.log(max(duration_seconds, low) / low) / math.log(
                        high / low
                    )
                cdf += bucket.probability * frac
                break
        return min(1.0, cdf)

    def bucket_for(self, duration_seconds: float) -> DurationBucket:
        for bucket in self._buckets:
            if bucket.contains(duration_seconds):
                return bucket
        return self._buckets[-1]

    def mean_seconds(self) -> float:
        """Expected duration using geometric bucket midpoints."""
        return ordered_sum(b.probability * b.midpoint_seconds() for b in self._buckets)

    def draw_buckets(self, rng: np.random.Generator) -> int:
        """One bucket index drawn by mass.

        The exact computation ``rng.choice(n, p=masses)`` performs — the
        same index from the same uniform, leaving ``rng`` in the same
        state — minus rebuilding and re-validating the CDF per call.
        """
        return bisect_right(self._cdf, rng.random())

    def sample_durations(
        self, rng: np.random.Generator, count: int, lookahead: int = 0
    ) -> Tuple[List[float], List[float]]:
        """Draw ``count`` durations (seconds), as a list.

        The draws, in order: ``count`` bucket uniforms, then one uniform
        per bounded bucket and one ``rng.exponential`` per tail bucket,
        in event order.  When no tail bucket is drawn the duration
        uniforms come from one ``rng.random`` call, extended by
        ``lookahead`` uniforms returned second (the stream's next
        ``lookahead`` doubles, drawn early); otherwise the second list is
        empty and nothing past the durations is drawn.
        """
        if count < 0:
            raise ValueError("size must be >= 0")
        cdf = self._cdf
        indices = [bisect_right(cdf, u) for u in rng.random(count).tolist()]
        log_low = self._log_low
        span = self._span
        exp = math.exp
        if self._tails.isdisjoint(indices):
            uniforms = rng.random(count + lookahead).tolist()
            durations = [
                exp(log_low[i] + span[i] * u) for i, u in zip(indices, uniforms)
            ]
            return durations, uniforms[count:]
        # A tail bucket's exponential splits the uniforms into segments.
        durations = []
        segment: List[int] = []
        for i in indices + [None]:
            if i is not None and span[i] is not None:
                segment.append(i)
                continue
            if segment:
                uniforms = rng.random(len(segment)).tolist()
                durations += [
                    exp(log_low[j] + span[j] * u) for j, u in zip(segment, uniforms)
                ]
                segment = []
            if i is not None:
                low = self._low[i]
                durations.append(low + rng.exponential(scale=low))
        return durations, []

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` durations (seconds); :meth:`sample_durations`
        as an array."""
        return np.array(self.sample_durations(rng, size)[0], dtype=float)


#: Figure 1(b): outage duration distribution.
OUTAGE_DURATION_DISTRIBUTION = EmpiricalDistribution(
    [
        DurationBucket(seconds(0), minutes(1), 0.31, "< 1 minute"),
        DurationBucket(minutes(1), minutes(5), 0.27, "1 to 5"),
        DurationBucket(minutes(5), minutes(30), 0.14, "5 to 30"),
        DurationBucket(minutes(30), minutes(120), 0.17, "30 to 120"),
        DurationBucket(minutes(120), minutes(240), 0.06, "120 to 240"),
        DurationBucket(minutes(240), float("inf"), 0.05, "> 240 minutes"),
    ]
)

#: Figure 1(a): outages-per-year distribution, as (count-range, mass) buckets.
#: Expressed with the same bucket machinery over the integer count axis.
OUTAGE_FREQUENCY_DISTRIBUTION = EmpiricalDistribution(
    [
        DurationBucket(0.0, 1.0, 0.17, "None"),
        DurationBucket(1.0, 3.0, 0.40, "1 to 2"),
        DurationBucket(3.0, 7.0, 0.30, "3 to 6"),
        DurationBucket(7.0, 15.0, 0.13, "7+"),
    ]
)


#: Figure 1(a)'s integer count range per bucket, ``[low, high)``.
_COUNT_RANGES = [
    (int(b.low_seconds), int(b.high_seconds))
    for b in OUTAGE_FREQUENCY_DISTRIBUTION.buckets
]


def sample_outage_count(rng: np.random.Generator) -> int:
    """Draw a yearly outage count from Figure 1(a).

    Counts are integers: a bucket is drawn by mass, then a count uniformly
    from the integers the bucket covers.
    """
    low, high = _COUNT_RANGES[OUTAGE_FREQUENCY_DISTRIBUTION.draw_buckets(rng)]
    return int(rng.integers(low, high))


_COUNT_LOWS = np.array([low for low, _ in _COUNT_RANGES], dtype=np.int64)
_COUNT_WIDTHS = np.array(
    [high - low for low, high in _COUNT_RANGES], dtype=np.uint64
)


def outage_counts_from_words(
    head: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sample_outage_count` for many lanes, from raw PCG64 words.

    ``head`` is ``(lanes, 2)``: each lane's first two raw words.  Word
    0 draws the bucket as ``Generator.random`` does, and word 1 the
    count as ``rng.integers(low, high)`` does for a range below
    ``2**32`` — Lemire's method on the word's low 32 bits — except that
    a one-count bucket draws no word.  Returns ``(counts, first,
    scalar)``: ``first`` is the position of each lane's next word, and
    ``scalar`` flags a lane whose Lemire leftover is below the range,
    where numpy may reject and draw again; such a lane's count is not
    defined here, and the caller must draw it on the scalar path.
    """
    mask32 = np.uint64(0xFFFFFFFF)
    bucket = np.searchsorted(
        OUTAGE_FREQUENCY_DISTRIBUTION.lane_tables[0],
        word_doubles(head[:, 0]),
        side="right",
    )
    width = _COUNT_WIDTHS[bucket]
    drawn = width > 1
    scaled = (head[:, 1] & mask32) * width
    counts = _COUNT_LOWS[bucket] + np.where(
        drawn, scaled >> np.uint64(32), np.uint64(0)
    ).astype(np.int64)
    scalar = drawn & ((scaled & mask32) < width)
    return counts, 1 + drawn.astype(np.intp), scalar


def fraction_shorter_than(duration_seconds: float) -> float:
    """Convenience CDF over Figure 1(b) (e.g. ``minutes(5)`` -> ~0.58)."""
    return OUTAGE_DURATION_DISTRIBUTION.probability_at_most(duration_seconds)


#: Durations the paper's evaluation sweeps (Figures 5 and 6).
PAPER_OUTAGE_DURATIONS_SECONDS = (
    seconds(30),
    minutes(5),
    minutes(30),
    hours(1),
    hours(2),
)
