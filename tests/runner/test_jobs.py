"""Job model: fingerprint stability, seed spawning, canonical encoding."""

import enum
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from repro.errors import RunnerError
from repro.runner.jobs import (
    Job,
    PCG64Lanes,
    canonical_encode,
    child_seed,
    child_streams,
    make_jobs,
    restate,
    spawn_seeds,
    word_doubles,
    year_streams,
)


def echo(spec, seed):
    return spec["x"]


def draw(spec, seed):
    return float(np.random.default_rng(seed).random())


class Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Point:
    x: float
    y: float


class Bag:
    def __init__(self):
        self.a = 1
        self.b = (2, 3)


class Opaque:
    __slots__ = ()


class TestCanonicalEncode:
    def test_primitives_pass_through(self):
        assert canonical_encode(None) is None
        assert canonical_encode(3) == 3
        assert canonical_encode("s") == "s"
        assert canonical_encode(True) is True
        assert canonical_encode(2.5) == 2.5

    def test_nonfinite_floats_encoded(self):
        assert canonical_encode(float("nan")) == {"__float__": "nan"}
        assert canonical_encode(float("inf")) == {"__float__": "inf"}
        assert canonical_encode(float("-inf")) == {"__float__": "-inf"}

    def test_numpy_scalars_and_arrays(self):
        assert canonical_encode(np.float64(1.5)) == 1.5
        assert canonical_encode(np.array([1, 2]))["__ndarray__"] == [1, 2]

    def test_mapping_key_order_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode(
            {"b": 2, "a": 1}
        )

    def test_dataclass_by_fields(self):
        enc = canonical_encode(Point(1.0, 2.0))
        assert enc["__dataclass__"] == "Point"
        assert enc["fields"] == {"x": 1.0, "y": 2.0}

    def test_enum_by_value(self):
        assert canonical_encode(Color.RED) == {"__enum__": "Color", "value": "red"}

    def test_plain_object_by_vars(self):
        enc = canonical_encode(Bag())
        assert enc["__object__"] == "Bag"

    def test_address_bearing_repr_rejected(self):
        with pytest.raises(RunnerError):
            canonical_encode(Opaque())


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        a = Job(echo, {"x": 1}, index=0)
        b = Job(echo, {"x": 1}, index=5)  # index is not identity
        assert a.fingerprint == b.fingerprint

    def test_spec_changes_fingerprint(self):
        assert (
            Job(echo, {"x": 1}).fingerprint != Job(echo, {"x": 2}).fingerprint
        )

    def test_fn_changes_fingerprint(self):
        assert (
            Job(echo, {"x": 1}).fingerprint != Job(draw, {"x": 1}).fingerprint
        )

    def test_seed_changes_fingerprint(self):
        s0, s1 = spawn_seeds(7, 2)
        base = Job(echo, {}, seed=None).fingerprint
        assert Job(echo, {}, seed=s0).fingerprint != base
        assert Job(echo, {}, seed=s0).fingerprint != Job(echo, {}, seed=s1).fingerprint

    def test_lambda_rejected(self):
        with pytest.raises(RunnerError):
            Job(lambda spec, seed: None, {})

    def test_negative_index_rejected(self):
        with pytest.raises(RunnerError):
            Job(echo, {}, index=-1)


class TestSeeds:
    def test_spawn_is_positional(self):
        # The same (base_seed, position) always yields the same stream,
        # regardless of how many siblings exist.
        first = spawn_seeds(7, 3)
        second = spawn_seeds(7, 10)
        for a, b in zip(first, second):
            assert np.random.default_rng(a).random() == np.random.default_rng(
                b
            ).random()

    def test_streams_differ_across_positions(self):
        seeds = spawn_seeds(7, 4)
        draws = {np.random.default_rng(s).random() for s in seeds}
        assert len(draws) == 4

    def test_none_base_means_no_seeds(self):
        assert spawn_seeds(None, 3) == [None, None, None]

    def test_negative_count_rejected(self):
        with pytest.raises(RunnerError):
            spawn_seeds(0, -1)


class TestChildSeed:
    @pytest.mark.parametrize(
        "entropy,kwargs",
        [(7, {}), (2**70 + 3, {}), (5, {"spawn_key": (4,)}), (9, {"pool_size": 8})],
        ids=["int", "wide", "keyed", "pool-8"],
    )
    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (3, 0), (2, 5), (17, 2)])
    def test_equals_nested_spawn(self, entropy, kwargs, i, j):
        spawned = np.random.SeedSequence(entropy, **kwargs).spawn(i + 1)[i]
        expected = spawned.spawn(j + 1)[j].generate_state(8)
        root = np.random.SeedSequence(entropy, **kwargs)
        assert np.array_equal(child_seed(root, i, j).generate_state(8), expected)

    def test_one_level_and_empty_path(self):
        root = np.random.SeedSequence(11)
        assert np.array_equal(
            child_seed(root, 4).generate_state(8),
            np.random.SeedSequence(11).spawn(5)[4].generate_state(8),
        )
        assert np.array_equal(
            child_seed(root).generate_state(8), root.generate_state(8)
        )

    def test_does_not_mutate_the_seed(self):
        root = np.random.SeedSequence(3)
        first = child_seed(root, 1, 0).generate_state(4)
        assert root.n_children_spawned == 0
        assert np.array_equal(child_seed(root, 1, 0).generate_state(4), first)


#: Roots covering every way SeedSequence assembles its entropy words.
STREAM_ROOTS = {
    "int": lambda: np.random.SeedSequence(7),
    "big-int": lambda: np.random.SeedSequence(2**70 + 3),
    "list": lambda: np.random.SeedSequence([1, 2**40 + 9, 3, 4, 5, 6]),
    "array": lambda: np.random.SeedSequence(np.array([3, 2**40 + 1])),
    "keyed": lambda: np.random.SeedSequence(5, spawn_key=(4, 2**33 + 1)),
    "pool-8": lambda: np.random.SeedSequence(9, pool_size=8),
    "empty-entropy": lambda: np.random.SeedSequence([], spawn_key=(2,)),
}

#: Every path shape the Monte-Carlo samplers seed: a year block's
#: schedule (i, 0) and DG rolls (i, 1), a fleet site's (y, i, 0) and
#: (y, i, 1), the fleet shock stream (y, n_sites), and one-level paths.
STREAM_PATHS = {
    "block-schedule": [(i, 0) for i in range(12)],
    "block-dg": [(i, 1) for i in range(12)],
    "fleet-site": [
        (y, i, k) for y in range(4) for i in range(3) for k in (0, 1)
    ],
    "fleet-shock": [(y, 3) for y in range(4)],
    "one-level": [(i,) for i in range(5)] + [(2**32 - 1,)],
}


def assert_streams_match(root, paths):
    """Words, restated state and draws ``==`` numpy's own, path by path."""
    words = child_streams(root, paths)
    assert words.dtype == np.uint64 and words.shape == (len(paths), 4)
    rng = Generator(PCG64(0))
    for path, row in zip(paths, words.tolist()):
        child = child_seed(root, *path)
        assert np.array_equal(
            np.array(row, dtype=np.uint64), child.generate_state(4, np.uint64)
        )
        fresh = Generator(PCG64(child))
        assert restate(rng, row) is rng
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.random(3).tolist() == fresh.random(3).tolist()


class TestChildStreams:
    """The one-pass stream seeds against ``PCG64(child_seed(...))``."""

    @pytest.mark.parametrize("shape", sorted(STREAM_PATHS))
    @pytest.mark.parametrize("root", sorted(STREAM_ROOTS))
    def test_equal_numpy(self, root, shape):
        assert_streams_match(STREAM_ROOTS[root](), STREAM_PATHS[shape])

    def test_does_not_mutate_the_seed(self):
        root = np.random.SeedSequence(3)
        first = child_streams(root, [(1, 0)])
        assert root.n_children_spawned == 0
        assert np.array_equal(child_streams(root, [(1, 0)]), first)

    def test_no_paths(self):
        words = child_streams(np.random.SeedSequence(3), [])
        assert words.shape == (0, 4) and words.dtype == np.uint64

    def test_restate_takes_array_rows(self):
        root = np.random.SeedSequence(3)
        rng = restate(Generator(PCG64(0)), child_streams(root, [(2, 1)])[0])
        assert rng.bit_generator.state == PCG64(child_seed(root, 2, 1)).state

    @pytest.mark.parametrize(
        "paths",
        [[(2**32, 0)], [(0, 2**40)], [(2**70,)], [(-1, 0)], [(0, 1), (2,)],
         [()], [(0.5, 1)]],
        ids=["word-2^32", "word-2^40", "word-2^70", "negative", "ragged",
             "empty-path", "float"],
    )
    def test_words_outside_one_seed_word_are_rejected(self, paths):
        with pytest.raises(RunnerError, match="2\\*\\*32"):
            child_streams(np.random.SeedSequence(3), paths)

    @settings(max_examples=60, deadline=None)
    @given(
        entropy=st.one_of(
            st.integers(0, 2**130),
            st.lists(st.integers(0, 2**64), max_size=9),
        ),
        spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
        pool_size=st.integers(4, 9),
        depth=st.integers(1, 3),
        data=st.data(),
    )
    def test_property_random_roots_and_paths(
        self, entropy, spawn_key, pool_size, depth, data
    ):
        root = np.random.SeedSequence(
            entropy, spawn_key=tuple(spawn_key), pool_size=pool_size
        )
        word = st.integers(0, 2**32 - 1)
        paths = data.draw(
            st.lists(st.tuples(*[word] * depth), min_size=1, max_size=6)
        )
        assert_streams_match(root, paths)


def numpy_words(rows, counts, first):
    """Each row's raw words ``first .. first + count - 1``, from numpy."""
    rng = Generator(PCG64(0))
    out = []
    for row, count, skip in zip(rows.tolist(), counts, first):
        restate(rng, row).bit_generator.advance(int(skip))
        out += rng.bit_generator.random_raw(int(count)).tolist()
    return out


class TestPCG64Lanes:
    """Jumped-ahead lane words against numpy's ``random_raw``."""

    def streams(self, years=40):
        return child_streams(
            np.random.SeedSequence(2**70 + 3), [(i, 0) for i in range(years)]
        )

    def test_ragged_words_equal_numpy(self):
        rows = self.streams()
        counts = np.arange(len(rows)) % 7
        first = np.arange(len(rows)) % 3
        words = PCG64Lanes(rows).words(counts, first)
        assert words.dtype == np.uint64
        assert words.tolist() == numpy_words(rows, counts, first)

    def test_scalar_counts_and_first(self):
        rows = self.streams(5)
        words = PCG64Lanes(rows).words(2, 1)
        assert words.tolist() == numpy_words(rows, [2] * 5, [1] * 5)

    def test_far_positions_grow_the_jump_table(self):
        rows = self.streams(3)
        words = PCG64Lanes(rows).words(3, 300)
        assert words.tolist() == numpy_words(rows, [3] * 3, [300] * 3)

    def test_no_words(self):
        lanes = PCG64Lanes(self.streams(4))
        assert lanes.words(np.zeros(4, dtype=np.int64)).shape == (0,)
        assert PCG64Lanes(np.empty((0, 4), dtype=np.uint64)).words(2).shape == (0,)

    def test_many_passes(self):
        # More words than one pass holds, split mid-lane.
        rows = self.streams(300)
        counts = np.full(len(rows), 11)
        words = PCG64Lanes(rows).words(counts)
        assert words.tolist() == numpy_words(rows, counts, [0] * len(rows))

    def test_doubles_are_generator_random(self):
        rows = self.streams(6)
        doubles = word_doubles(PCG64Lanes(rows).words(4))
        rng = Generator(PCG64(0))
        expected = [v for row in rows for v in restate(rng, row).random(4).tolist()]
        assert doubles.tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        entropy=st.integers(0, 2**130),
        counts=st.lists(st.integers(0, 12), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_property_random_streams(self, entropy, counts, data):
        first = data.draw(
            st.lists(st.integers(0, 50), min_size=len(counts), max_size=len(counts))
        )
        rows = child_streams(
            np.random.SeedSequence(entropy), [(i, 1) for i in range(len(counts))]
        )
        words = PCG64Lanes(rows).words(np.array(counts), np.array(first))
        assert words.tolist() == numpy_words(rows, counts, first)


class TestYearStreams:
    """Per-year seeds, grouped under their spawn parent, against numpy."""

    def expected(self, seeds, paths):
        return np.array(
            [
                [child_seed(seed, *path).generate_state(4, np.uint64)
                 for path in paths]
                for seed in seeds
            ],
            dtype=np.uint64,
        ).reshape(len(seeds), len(paths), 4)

    @pytest.mark.parametrize(
        "seeds",
        [
            lambda: np.random.SeedSequence(11).spawn(4),
            lambda: [
                child_seed(np.random.SeedSequence(5), y) for y in range(5)
            ],
            lambda: [np.random.SeedSequence(5)],
            lambda: [
                np.random.SeedSequence(5),
                np.random.SeedSequence(5, spawn_key=(2**33,)),
                np.random.SeedSequence(5, spawn_key=(2**33, 1)),
                np.random.SeedSequence(6, spawn_key=(1,), pool_size=8),
                np.random.SeedSequence(5, spawn_key=(1,)),
            ],
        ],
        ids=["spawned", "child-seed-years", "root", "mixed-families"],
    )
    def test_equal_numpy(self, seeds):
        seeds = seeds()
        paths = [(i, k) for i in range(3) for k in (0, 1)]
        assert np.array_equal(
            year_streams(seeds, paths), self.expected(seeds, paths)
        )
        assert np.array_equal(
            year_streams(seeds, [(3,)]), self.expected(seeds, [(3,)])
        )

    def test_no_seeds(self):
        assert year_streams([], [(0, 0)]).shape == (0, 1, 4)


class TestMakeJobs:
    def test_indices_and_labels(self):
        jobs = make_jobs(echo, [{"x": 1}, {"x": 2}], labels=["a", "b"])
        assert [j.index for j in jobs] == [0, 1]
        assert [j.display_name() for j in jobs] == ["a", "b"]

    def test_label_mismatch_rejected(self):
        with pytest.raises(RunnerError):
            make_jobs(echo, [{"x": 1}], labels=["a", "b"])

    def test_run_executes(self):
        (job,) = make_jobs(echo, [{"x": 9}])
        assert job.run() == 9
