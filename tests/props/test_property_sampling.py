"""Stream identity of the cached-CDF samplers.

``EmpiricalDistribution`` draws buckets by searching a CDF it builds
once, instead of calling ``Generator.choice(n, p=masses)`` per draw.
That is the computation ``choice`` performs internally, so every seeded
Monte-Carlo result stays bit-identical: these properties hold the
samplers to a ``choice``-based reference for the values drawn *and* the
generator state left behind.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    OUTAGE_FREQUENCY_DISTRIBUTION,
    DurationBucket,
    EmpiricalDistribution,
    sample_outage_count,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def reference_sample(dist, rng, size):
    """``EmpiricalDistribution.sample`` as written over ``Generator.choice``."""
    buckets = dist.buckets
    masses = np.array([b.probability for b in buckets])
    indices = rng.choice(len(buckets), size=size, p=masses)
    out = np.empty(size)
    for i, idx in enumerate(indices):
        bucket = buckets[int(idx)]
        low = max(bucket.low_seconds, 1.0)
        if math.isinf(bucket.high_seconds):
            out[i] = low + rng.exponential(scale=low)
        else:
            out[i] = math.exp(rng.uniform(math.log(low), math.log(bucket.high_seconds)))
    return out


def reference_outage_count(rng):
    buckets = OUTAGE_FREQUENCY_DISTRIBUTION.buckets
    idx = int(rng.choice(len(buckets), p=[b.probability for b in buckets]))
    bucket = buckets[idx]
    return int(rng.integers(int(bucket.low_seconds), int(bucket.high_seconds)))


@st.composite
def distributions(draw):
    """Bucketised distributions with arbitrary (normalised) masses."""
    weights = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)
        .filter(lambda ws: sum(ws) > 0)
    )
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    masses[-1] = max(0.0, 1.0 - math.fsum(masses[:-1]))
    tail = draw(st.booleans())
    buckets = []
    for i, mass in enumerate(masses):
        high = float("inf") if tail and i == len(masses) - 1 else 10.0 * (i + 1)
        buckets.append(DurationBucket(10.0 * i, high, min(mass, 1.0), f"b{i}"))
    return EmpiricalDistribution(buckets)


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state


class TestCachedCdfStreamIdentity:
    @given(seed=seeds, size=st.integers(min_value=0, max_value=40))
    @settings(max_examples=200)
    def test_duration_sample_matches_choice(self, seed, size):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = OUTAGE_DURATION_DISTRIBUTION.sample(ours, size=size)
        want = reference_sample(OUTAGE_DURATION_DISTRIBUTION, ref, size)
        assert np.array_equal(got, want)
        assert_same_stream(ours, ref)

    @given(seed=seeds)
    @settings(max_examples=200)
    def test_outage_count_matches_choice(self, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_outage_count(ours) == reference_outage_count(ref)
        assert_same_stream(ours, ref)

    @given(dist=distributions(), seed=seeds, size=st.integers(0, 20))
    @settings(max_examples=100)
    def test_any_distribution_matches_choice(self, dist, seed, size):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dist.sample(ours, size=size)
        want = reference_sample(dist, ref, size)
        assert np.array_equal(got, want)
        assert_same_stream(ours, ref)

    @given(dist=distributions(), seed=seeds)
    @settings(max_examples=100)
    def test_scalar_bucket_draw_matches_choice(self, dist, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        masses = [b.probability for b in dist.buckets]
        assert dist.draw_buckets(ours) == int(ref.choice(len(masses), p=masses))
        assert_same_stream(ours, ref)
