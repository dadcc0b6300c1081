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
(deriving independent child streams with :func:`child_seed`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import RunnerError

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
        fields = {
            f.name: canonical_encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__qualname__, "fields": fields}
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
