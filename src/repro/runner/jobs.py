"""The job model: picklable units of work with deterministic identity.

A :class:`Job` binds a top-level callable to a *spec* (the inputs that
define the result) and an optional per-job random stream.  Two properties
make the executor layer trustworthy:

* **Deterministic fingerprint** — :attr:`Job.fingerprint` is a stable
  SHA-256 over the callable's qualified name, a canonical encoding of the
  spec, and the seed material.  The fingerprint is identical across
  processes and Python invocations (no ``id()``, no ``hash()``
  randomisation), so it can key an on-disk result cache.
* **Order-independent randomness** — per-job streams come from
  :meth:`numpy.random.SeedSequence.spawn`, so a job draws the same random
  numbers whether it runs first or last, serially or on eight workers.

Job callables have one fixed signature::

    def fn(spec: Mapping[str, Any], seed: Optional[SeedSequence]) -> Any: ...

and must be defined at module top level (process pools pickle them by
qualified name).  Deterministic jobs simply ignore ``seed``; stochastic
jobs build one or more :class:`numpy.random.Generator` instances from it
(deriving independent child streams with :func:`child_seed`).  A job
drawing from many streams seeds them all in one array pass
(:func:`child_streams`, :func:`year_streams`) and either draws from all
of them at once (:class:`PCG64Lanes`: raw PCG64 words by jump-ahead on
uint64 arrays) or re-states one reused generator per stream
(:func:`restate`); the results are ``==`` to the ``child_seed``
streams.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import RunnerError
from repro.memo import BoundedMemo

#: The one job-callable signature the executors understand.
JobFn = Callable[[Mapping[str, Any], Optional[np.random.SeedSequence]], Any]


def canonical_encode(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-able structure with a stable encoding.

    Handles the vocabulary job specs are made of: primitives, sequences,
    mappings (key-sorted), enums, dataclasses (encoded as class name +
    fields), plain objects (class name + ``vars()``), numpy
    scalars/arrays, and non-finite floats.  The last resort is ``repr``
    — rejected when it contains a memory address (`` at 0x``), because an
    address-bearing key would silently change every process and defeat
    both caching and fingerprint comparison.

    A frozen dataclass's encoding is memoized by object identity
    (:data:`_ENCODINGS`), so the jobs of a sweep, which share one
    ``WorkloadSpec`` and one ``ServerSpec``, encode each of them once.
    The encoding is shared between calls: treat it as read-only.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {
            "__enum__": type(obj).__qualname__,
            "value": canonical_encode(obj.value),
        }
    if isinstance(obj, float):
        if math.isnan(obj):
            return {"__float__": "nan"}
        if math.isinf(obj):
            return {"__float__": "inf" if obj > 0 else "-inf"}
        return obj
    if isinstance(obj, np.generic):
        return canonical_encode(obj.item())
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": [canonical_encode(x) for x in obj.tolist()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        frozen = type(obj).__dataclass_params__.frozen
        if frozen:
            found = _ENCODINGS.get(id(obj))
            if found is not None:
                return found[1]
        fields = {
            f.name: canonical_encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        encoded = {"__dataclass__": type(obj).__qualname__, "fields": fields}
        if frozen:
            return _ENCODINGS.put(id(obj), (obj, encoded))[1]
        return encoded
    if isinstance(obj, Mapping):
        return {
            "__mapping__": [
                [canonical_encode(k), canonical_encode(obj[k])]
                for k in sorted(obj, key=repr)
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_encode(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(canonical_encode(x) for x in obj)}
    if isinstance(obj, type):
        return {"__type__": f"{obj.__module__}.{obj.__qualname__}"}
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict) and state:
        return {
            "__object__": type(obj).__qualname__,
            "state": canonical_encode(state),
        }
    rendered = repr(obj)
    if " at 0x" in rendered:
        raise RunnerError(
            f"cannot canonically encode {type(obj).__qualname__}: its repr "
            "embeds a memory address; give it a value-style repr, make it a "
            "dataclass, or pass primitive spec fields instead"
        )
    return {"__repr__": rendered}


#: id(frozen dataclass) -> (the object, its encoding).  Keyed by identity,
#: not value: equal specs can encode differently (``0.0`` and ``-0.0``,
#: ``1`` and ``1.0``).  The entry pins the object, so its id cannot be
#: reused while the entry stands.
_ENCODINGS = BoundedMemo(256)


def _seed_material(seed: Optional[np.random.SeedSequence]) -> Any:
    """A stable, JSON-able identity for a SeedSequence (or None)."""
    if seed is None:
        return None
    return {
        "entropy": canonical_encode(seed.entropy),
        "spawn_key": list(seed.spawn_key),
    }


@dataclass(frozen=True)
class Job:
    """One unit of work.

    Attributes:
        fn: Top-level callable ``fn(spec, seed) -> value``.
        spec: The inputs that define the result; everything the fingerprint
            should cover must be in here (or in ``seed``).
        index: Position in the submission order.  Executors return values
            sorted by index, so aggregation is order-stable regardless of
            completion order.
        seed: Per-job random stream (None for deterministic jobs).
        label: Short human-readable tag for progress events and failures.
    """

    fn: JobFn
    spec: Mapping[str, Any]
    index: int = 0
    seed: Optional[np.random.SeedSequence] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise RunnerError("job index must be >= 0")
        fn = self.fn
        if getattr(fn, "__name__", "<lambda>") == "<lambda>":
            raise RunnerError(
                "job callables must be top-level named functions "
                "(lambdas cannot be pickled for process pools)"
            )

    @property
    def fingerprint(self) -> str:
        """Stable SHA-256 identity of (callable, spec, seed).

        Computed once and memoised — specs are treated as immutable
        after job construction.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = {
            "fn": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "spec": canonical_encode(self.spec),
            "seed": _seed_material(self.seed),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.fn(self.spec, self.seed)

    def display_name(self) -> str:
        return self.label or f"job[{self.index}]"


def spawn_seeds(
    base_seed: Optional[int], count: int
) -> List[Optional[np.random.SeedSequence]]:
    """``count`` independent child streams of ``SeedSequence(base_seed)``.

    ``base_seed=None`` yields all-``None`` (deterministic jobs).  The
    children depend only on (base_seed, position), never on execution
    order — the key property behind serial == parallel reproducibility.
    """
    if count < 0:
        raise RunnerError("count must be >= 0")
    if base_seed is None:
        return [None] * count
    return list(np.random.SeedSequence(base_seed).spawn(count))


def child_seed(
    seed: np.random.SeedSequence, *path: int
) -> np.random.SeedSequence:
    """The descendant of ``seed`` at ``path``, by spawn-key arithmetic.

    ``child_seed(s, i, j)`` is the stream ``s.spawn(i + 1)[i].spawn(j +
    1)[j]`` names when ``s`` has spawned nothing yet, built directly:
    no sibling is constructed and ``seed`` is not mutated, so the same
    seed object always yields the same children (``spawn`` counts the
    children it has handed out and continues from there on every call).
    """
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + path, pool_size=seed.pool_size
    )


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: Any) -> List[int]:
    """``value`` as SeedSequence reads it: little-endian 32-bit words."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for item in value for word in _uint32_words(item)]


def _mix(x: Any, y: Any) -> Any:
    """SeedSequence's ``mix`` on uint32 words (ints or uint64 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def child_streams(
    seed: np.random.SeedSequence, paths: Sequence[Sequence[int]]
) -> np.ndarray:
    """Every path's stream seed, ``child_seed(seed, *path)``, in one pass.

    Row ``k`` is ``child_seed(seed, *paths[k]).generate_state(4,
    np.uint64)`` — the words ``PCG64`` seeds itself from — without
    building a SeedSequence per path.  The entropy and ``seed``'s spawn
    key are mixed into SeedSequence's pool once, in Python (numpy's
    ``hashmix``/``mix`` on uint32); each path word is then mixed in for
    all rows at once as uint64-masked arrays, and ``generate_state``'s
    ``INIT_B``/``MULT_B`` pass runs on the array pool.  ``paths`` are
    equal-length, non-empty tuples of words in ``[0, 2**32)`` (one
    SeedSequence word each); anything else is a :class:`RunnerError`.
    ``tests/runner/test_jobs.py`` and ``tests/golden/test_stream_oracle.py``
    hold every row ``==`` to numpy's.
    """
    if not len(paths):
        return np.empty((0, 4), dtype=np.uint64)
    try:
        words = np.asarray(paths)
    except ValueError:
        words = np.empty(0)
    if (
        words.ndim != 2
        or not words.shape[1]
        or words.dtype.kind not in "iu"
        or ((words < 0) | (words > _MASK32)).any()
    ):
        raise RunnerError(
            "paths must be equal-length tuples of words in [0, 2**32)"
        )
    words = words.astype(np.uint64)

    hash_const = _INIT_A

    def hashmix(value: Any) -> Any:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    # A non-empty spawn key pads the entropy to the pool size first.
    pool_size = seed.pool_size
    run_entropy = _uint32_words(seed.entropy)
    run_entropy += [0] * (pool_size - len(run_entropy))
    prefix = run_entropy + _uint32_words(seed.spawn_key)
    pool: List[Any] = [hashmix(word) for word in prefix[:pool_size]]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # The rest of the prefix as ints, then each path column as an array.
    for word in prefix[pool_size:] + list(words.T):
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): 8 uint32 words, paired little-endian.
    state = []
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % pool_size] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return np.stack(
        [state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)], axis=1
    )


def year_streams(
    seeds: Sequence[np.random.SeedSequence], paths: Sequence[Sequence[int]]
) -> np.ndarray:
    """:func:`child_streams` for every seed in one array.

    The shape is ``(len(seeds), len(paths), 4)``; entry ``[y, k]`` is
    the stream seed of ``child_seed(seeds[y], *paths[k])``.  Seeds one
    spawn level below a common parent (the children :func:`spawn_seeds`
    hands out, the years ``child_seed(s, y)``) share one pass: each is
    that parent's child at its last spawn-key word.  A seed with no
    spawn key, or a last word wider than one SeedSequence word, is its
    own parent.
    """
    out = np.empty((len(seeds), len(paths), 4), dtype=np.uint64)
    families: Dict[Any, List[int]] = {}
    for y, seed in enumerate(seeds):
        key = seed.spawn_key
        lead = int(bool(key) and key[-1] <= _MASK32)
        family = (
            tuple(_uint32_words(seed.entropy)), seed.pool_size,
            key[: len(key) - lead], lead,
        )
        families.setdefault(family, []).append(y)
    for (_, pool_size, parent_key, _), rows in families.items():
        depth = len(parent_key)
        parent = np.random.SeedSequence(
            seeds[rows[0]].entropy, spawn_key=parent_key, pool_size=pool_size
        )
        rows_paths = [
            seeds[y].spawn_key[depth:] + tuple(path)
            for y in rows
            for path in paths
        ]
        out[rows] = child_streams(parent, rows_paths).reshape(
            len(rows), len(paths), 4
        )
    return out


def restate(
    rng: np.random.Generator, words: Sequence[int]
) -> np.random.Generator:
    """``rng`` re-seeded as ``PCG64`` seeds itself from ``words``.

    ``words`` is one :func:`child_streams` row.  PCG64's seeding step
    (``state = 0; inc = (seq << 1) | 1; step; state += s; step``) runs
    on 128-bit Python ints, and the result is assigned to the reused
    ``rng``'s ``bit_generator.state`` — after which ``rng`` draws
    exactly what a fresh ``Generator(PCG64(child_seed(...)))`` draws,
    with neither object built.  ``rng`` must be a PCG64 generator.
    """
    s_high, s_low, i_high, i_low = map(int, words)
    inc = ((((i_high << 64) | i_low) << 1) | 1) & _MASK128
    state = (inc + ((s_high << 64) | s_low)) * _PCG64_MULT + inc
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# Word ``k`` of a restated stream is the XSL-RR output of the state
# ``k + 1`` LCG steps past ``restate``'s, which is linear in the seed
# words: ``A[k] * s + C[k] * inc`` (mod 2**128), with ``A[k] =
# MULT**(k + 2)`` and ``C[k] = 1 + MULT + ... + MULT**(k + 2)``.  Each
# product is taken as seven uint64 products (see ``_xsl_rr``), so the
# table stores the constants as the seven left-hand factors — the low
# word's 32-bit limbs ``l0, l0, l1, l1``, then ``low, high, low`` — for
# ``A`` and ``C`` side by side.
_MASK64 = (1 << 64) - 1
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_U1, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 32, 58, 63, 64))
_U_MASK32 = np.uint64(_MASK32)


@functools.lru_cache(maxsize=None)
def _jump_constants(size: int) -> np.ndarray:
    """The ``(7, 2, size)`` factor table for words ``0 .. size - 1``,
    read-only; :meth:`PCG64Lanes.words` asks for powers of two."""
    power, total = _PCG64_MULT, 1 + _PCG64_MULT
    columns = []
    for _ in range(size):
        power = (power * _PCG64_MULT) & _MASK128
        total = (total + power) & _MASK128
        column = []
        for value in (power, total):
            low, high = value & _MASK64, value >> 64
            limb0, limb1 = low & _MASK32, low >> 32
            column.append([limb0, limb0, limb1, limb1, low, high, low])
        columns.append(column)
    table = np.array(columns, dtype=np.uint64).transpose(2, 1, 0).copy()
    table.flags.writeable = False
    return table


class PCG64Lanes:
    """Many PCG64 streams stepped at once, one lane per stream.

    Lane ``l`` is the stream ``restate(rng, streams[l])`` starts, for
    ``streams`` a set of :func:`child_streams` rows.  PCG64's seeding
    step, its 128-bit LCG and the XSL-RR output run on uint64 arrays
    (64-bit words and their 32-bit limbs) — no per-lane Python int —
    and every requested word is reached by jump-ahead, so a request is
    a few flat passes over ``(lane, word)`` pairs, not one per word.
    ``tests/runner/test_jobs.py`` and ``tests/golden/test_lane_oracle.py``
    hold the words ``==`` numpy's ``random_raw``.
    """

    def __init__(self, streams: np.ndarray):
        streams = np.asarray(streams, dtype=np.uint64).reshape(-1, 4)
        self.streams = streams
        s_high, s_low, i_high, i_low = streams.T
        # The right-hand factors of the seven products, for s and inc:
        # the low word's limbs ``b0, b1, b0, b1``, then ``high, low, low``.
        factors = np.empty((7, 2, len(streams)), dtype=np.uint64)
        factors[4, 0] = s_high
        factors[4, 1] = (i_high << _U1) | (i_low >> _U63)
        factors[5, 0] = s_low
        factors[5, 1] = (i_low << _U1) | _U1
        factors[6] = factors[5]
        np.bitwise_and(factors[5], _U_MASK32, out=factors[0])
        np.right_shift(factors[5], _U32, out=factors[1])
        factors[2:4] = factors[0:2]
        self._factors = factors

    def words(self, counts: Any, first: Any = 0) -> np.ndarray:
        """Raw words ``first[l] .. first[l] + counts[l] - 1`` of each lane.

        Flat and lane-major; positions count from 0, the first
        ``random_raw`` word after :func:`restate`.  ``counts`` and
        ``first`` are per-lane integer arrays or scalars.
        """
        lanes = np.arange(len(self.streams)).repeat(counts)
        if np.ndim(counts):
            ends = np.cumsum(counts)
            positions = np.arange(len(lanes)) - (ends - counts)[lanes]
        else:
            positions = np.tile(np.arange(counts), len(self.streams))
        positions += first[lanes] if np.ndim(first) else first
        if not len(positions):
            return np.empty(0, dtype=np.uint64)
        table = _jump_constants(max(64, 1 << int(positions.max()).bit_length()))
        out = np.empty(len(positions), dtype=np.uint64)
        for at in range(0, len(positions), _WORDS_PER_PASS):
            chunk = slice(at, at + _WORDS_PER_PASS)
            out[chunk] = _xsl_rr(
                table[:, :, positions[chunk]] * self._factors[:, :, lanes[chunk]]
            )
        return out


#: Words per flat pass of :meth:`PCG64Lanes.words`: a pass's uint64
#: temporaries (~20 of ``14 x`` this many words) stay cache-sized.
_WORDS_PER_PASS = 2048


def _xsl_rr(product: np.ndarray) -> np.ndarray:
    """The output words from the seven ``(7, 2, words)`` factor products.

    ``a * b mod 2**128`` from 64-bit halves: the low words' product
    wraps, and the high word adds both cross products and the low
    words' carry-out, a 64x64 high product from four limb products.
    ``A*s + C*inc`` is the state; XSL-RR XORs its halves and rotates
    right by its top 6 bits.
    """
    limb_high = product[:3] >> _U32
    carry = limb_high[0] + (product[1] & _U_MASK32) + (product[2] & _U_MASK32)
    carry >>= _U32
    high = product[3] + product[4] + product[5] + limb_high[1] + limb_high[2]
    high += carry
    low = product[6]
    state_low = low[0] + low[1]
    state_high = high[0] + high[1] + (state_low < low[0])
    value = state_high ^ state_low
    rotation = state_high >> _U58
    return (value >> rotation) | (value << ((_U64 - rotation) & _U63))


def word_doubles(words: np.ndarray) -> np.ndarray:
    """Raw PCG64 words as the doubles ``Generator.random`` makes of them:
    ``(word >> 11) * 2**-53``."""
    return (words >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT


def make_jobs(
    fn: JobFn,
    specs: Sequence[Mapping[str, Any]],
    base_seed: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[Job]:
    """Build an indexed job list over ``specs`` with spawned seeds."""
    if labels is not None and len(labels) != len(specs):
        raise RunnerError("labels must match specs one-to-one")
    seeds = spawn_seeds(base_seed, len(specs))
    return [
        Job(
            fn=fn,
            spec=spec,
            index=i,
            seed=seeds[i],
            label=labels[i] if labels is not None else "",
        )
        for i, spec in enumerate(specs)
    ]
