"""On-disk result cache keyed by job fingerprint + code version.

Repeated sweeps and benchmark re-runs recompute mostly identical cells;
the cache turns those into disk reads.  Entries are pickles stored under
``root/<version>/<fp[:2]>/<fp>.pkl`` — the version prefix (defaulting to
the installed ``repro`` version) invalidates the whole cache on upgrade
without touching any files, and the two-character fan-out keeps
directories small for large sweeps.

Robustness over cleverness: a corrupt, truncated, or unreadable entry is
a miss; a failed write is ignored (the value is simply recomputed next
time).  Writes go through a same-directory temp file and ``os.replace``
so concurrent runs never observe half-written entries.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RunnerError
from repro.runner.jobs import Job

_SENTINEL = object()

#: Entry suffixes the GC accounts for: live entries, quarantined corrupt
#: entries, temp files a crashed writer may have left behind, and
#: single-flight lease files a killed worker may have stranded.
_GC_SUFFIXES = (".pkl", ".pkl.corrupt", ".tmp", ".flight")

#: Suffixes that are never a live entry: a crashed writer's temp file or
#: a dead flight lease.  ``prune`` removes these past a short grace
#: period even when the cache is within its size/age budget — a torn
#: write must not linger just because the cache is small.
_ORPHAN_SUFFIXES = (".tmp", ".flight")


@dataclass(frozen=True)
class CacheStats:
    """A disk-level snapshot of one cache root.

    Attributes:
        entries: Live ``*.pkl`` entries across every version namespace.
        bytes: Total bytes of live entries.
        corrupt_entries / corrupt_bytes: Quarantined ``*.pkl.corrupt``
            files awaiting post-mortem (or GC).
        versions: Per-version-namespace ``(entries, bytes)`` breakdown.
    """

    entries: int = 0
    bytes: int = 0
    corrupt_entries: int = 0
    corrupt_bytes: int = 0
    versions: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes + self.corrupt_bytes


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`ResultCache.prune` pass removed and kept."""

    removed_files: int = 0
    removed_bytes: int = 0
    kept_files: int = 0
    kept_bytes: int = 0

    def summary(self) -> str:
        return (
            f"pruned {self.removed_files} files ({self.removed_bytes} B), "
            f"kept {self.kept_files} ({self.kept_bytes} B)"
        )


def default_cache_version() -> str:
    """The installed library version (the default cache namespace)."""
    import repro

    return getattr(repro, "__version__", "0")


class ResultCache:
    """Pickle-on-disk memoisation of job results.

    Args:
        root: Cache directory (created on first write).
        version: Namespace folded into every path; results computed by a
            different code version are invisible, not deleted.
    """

    def __init__(self, root: os.PathLike, version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else default_cache_version()
        if not self.version or any(sep in self.version for sep in ("/", "\\")):
            raise RunnerError(f"invalid cache version {self.version!r}")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        # Counter updates are load-add-store sequences; a long-lived
        # server hits one cache from many handler threads, and torn
        # increments would make hit-rate telemetry drift from the truth.
        self._lock = threading.Lock()

    def _path(self, fingerprint: str) -> Path:
        return self.root / self.version / fingerprint[:2] / f"{fingerprint}.pkl"

    def entry_path(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives (it may not exist).
        Exposed for tooling — the chaos harness corrupts entries in place
        to exercise quarantine."""
        return self._path(fingerprint)

    def get(self, job: Job) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        value = self._read(self._path(job.fingerprint))
        if value is _SENTINEL:
            with self._lock:
                self.misses += 1
            return False, None
        with self._lock:
            self.hits += 1
        return True, value

    def put(self, job: Job, value: Any) -> bool:
        """Store ``value``; returns False (and stays silent) on failure."""
        path = self._path(job.fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            return False
        with self._lock:
            self.stores += 1
        return True

    def _read(self, path: Path) -> Any:
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _SENTINEL
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # Corrupt or stale entry: treat as a miss and quarantine it —
            # renamed aside (``*.pkl.corrupt``) rather than deleted, so a
            # clean copy gets rewritten on the next store while the bad
            # bytes stay available for post-mortem.
            with self._lock:
                self.corrupt += 1
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return _SENTINEL

    def __len__(self) -> int:
        base = self.root / self.version
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.pkl"))

    # Locks do not pickle; the cache itself never crosses a process
    # boundary (executors consult it in the coordinator), but anything
    # that snapshots executor state should not explode on it either.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- garbage collection ---------------------------------------------------

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """Every GC-visible file under the root (all version namespaces)
        as ``(mtime, bytes, path)``.  Files that vanish mid-scan (another
        process pruned or replaced them) are simply skipped."""
        found: List[Tuple[float, int, Path]] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.rglob("*")):
            if not path.name.endswith(_GC_SUFFIXES):
                continue
            try:
                meta = path.stat()
            except OSError:
                continue
            found.append((meta.st_mtime, meta.st_size, path))
        return found

    def stats(self) -> CacheStats:
        """Disk-level size/entry statistics across every version namespace."""
        entries = live_bytes = corrupt = corrupt_bytes = 0
        versions: Dict[str, List[int]] = {}
        for _, size, path in self._scan():
            try:
                version = path.relative_to(self.root).parts[0]
            except (ValueError, IndexError):  # pragma: no cover - defensive
                version = "?"
            if path.name.endswith(".pkl"):
                entries += 1
                live_bytes += size
                per = versions.setdefault(version, [0, 0])
                per[0] += 1
                per[1] += size
            elif path.name.endswith(".pkl.corrupt"):
                corrupt += 1
                corrupt_bytes += size
        return CacheStats(
            entries=entries,
            bytes=live_bytes,
            corrupt_entries=corrupt,
            corrupt_bytes=corrupt_bytes,
            versions={v: (n, b) for v, (n, b) in sorted(versions.items())},
        )

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
        orphan_grace_s: float = 300.0,
    ) -> PruneReport:
        """Evict oldest-mtime-first until the cache fits the given bounds.

        A long-lived server must not grow its cache without bound; this
        is the GC it runs on a timer (or that ``repro cache`` runs by
        hand).  Quarantined ``*.pkl.corrupt`` files and orphaned
        writer temp files count against the budget and are eligible for
        eviction like any entry; *every* version namespace is swept, so
        entries stranded by an upgrade eventually leave the disk.

        Orphans are also swept unconditionally: a ``*.tmp`` left by a
        writer killed between temp-write and rename, or a ``*.flight``
        lease stranded by a dead worker, is removed once older than
        ``orphan_grace_s`` even when the cache is inside its budget —
        the grace period only protects writes/leases in progress.

        Args:
            max_bytes: Keep total on-disk size at or under this.
            max_age_s: Evict anything whose mtime is older than this.
            now: Reference time for ``max_age_s`` (default
                ``time.time()``), injectable for tests.
            orphan_grace_s: Age past which ``*.tmp`` / ``*.flight``
                orphans are removed regardless of the budget.

        Eviction failures are skipped, not fatal — a file another process
        already removed is success by other means.
        """
        if max_bytes is not None and max_bytes < 0:
            raise RunnerError("max_bytes must be >= 0")
        if max_age_s is not None and max_age_s < 0:
            raise RunnerError("max_age_s must be >= 0")
        files = sorted(self._scan())  # oldest mtime first
        clock = time.time() if now is None else now
        total = sum(size for _, size, _ in files)
        removed_files = removed_bytes = 0
        for mtime, size, path in files:
            too_old = max_age_s is not None and clock - mtime > max_age_s
            too_big = max_bytes is not None and total > max_bytes
            stale_orphan = (
                path.name.endswith(_ORPHAN_SUFFIXES)
                and clock - mtime > orphan_grace_s
            )
            if not (too_old or too_big or stale_orphan):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed_files += 1
            removed_bytes += size
        self._remove_empty_dirs()
        return PruneReport(
            removed_files=removed_files,
            removed_bytes=removed_bytes,
            kept_files=len(files) - removed_files,
            kept_bytes=total,
        )

    def _remove_empty_dirs(self) -> None:
        """Drop fan-out/version directories the prune emptied."""
        if not self.root.is_dir():
            return
        for path in sorted(
            (p for p in self.root.rglob("*") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                path.rmdir()  # refuses non-empty directories
            except OSError:
                pass


class SingleFlightCache(ResultCache):
    """A :class:`ResultCache` with cross-process single-flight misses.

    When several worker processes share one cache directory, a popular
    fingerprint that misses everywhere gets computed N times — wasted
    work, and N racing writers.  This subclass adds a lease protocol on
    top of the plain cache: the first process to miss creates
    ``<entry>.flight`` with ``O_EXCL`` (atomic on every platform the
    repo targets) and computes; later missers find the fresh foreign
    lease and poll for the entry instead of computing.

    The protocol is crash-safe by construction, never by coordination:

    * A lease names its owner (``pid:unix``).  A waiter that sees the
      owner dead — or the lease older than ``lease_s`` — breaks it and
      computes itself.  Duplicated compute after a broken lease is
      *safe*: results are idempotent by fingerprint and writes are
      atomic, so the worst case is wasted effort, never a torn entry.
    * :meth:`put` releases the lease after the atomic rename; a worker
      that fails mid-compute releases via :meth:`release_all` (the
      supervisor's worker loop calls it in a ``finally``); a worker that
      is SIGKILLed strands the lease, which dies by pid-check or age.
    * A filesystem that refuses the lock degrades to plain-cache
      behaviour — single-flight is an optimisation, not a correctness
      requirement.

    ``flights_won`` / ``flights_waited`` / ``flights_broken`` count the
    protocol outcomes for ``/stats``.
    """

    def __init__(
        self,
        root: os.PathLike,
        version: Optional[str] = None,
        lease_s: float = 30.0,
        wait_s: Optional[float] = None,
        poll_s: float = 0.02,
    ) -> None:
        super().__init__(root, version=version)
        if lease_s <= 0:
            raise RunnerError("lease_s must be > 0")
        if poll_s <= 0:
            raise RunnerError("poll_s must be > 0")
        self.lease_s = lease_s
        self.wait_s = lease_s if wait_s is None else wait_s
        self.poll_s = poll_s
        self.flights_won = 0
        self.flights_waited = 0
        self.flights_broken = 0
        #: fingerprint -> lease path held by *this* process.
        self._held: Dict[str, Path] = {}

    def _flight_path(self, fingerprint: str) -> Path:
        return self._path(fingerprint).parent / f"{fingerprint}.flight"

    def get(self, job: Job) -> Tuple[bool, Any]:
        """Hit, or a miss that this process holds the flight lease for.

        ``(False, None)`` means: compute it — you own the lease (or the
        filesystem would not grant one).  If another process holds a
        fresh lease, block (up to ``wait_s``) polling for its entry to
        land; a stale lease is broken and the miss returned.
        """
        path = self._path(job.fingerprint)
        value = self._read(path)
        if value is not _SENTINEL:
            with self._lock:
                self.hits += 1
            return True, value
        flight = self._flight_path(job.fingerprint)
        deadline = time.monotonic() + self.wait_s
        waited = False
        while True:
            if self._try_acquire(job.fingerprint, flight):
                with self._lock:
                    self.misses += 1
                return False, None
            if not waited:
                waited = True
                with self._lock:
                    self.flights_waited += 1
            if time.monotonic() >= deadline:
                # Waited out the whole lease window: break and compute.
                self._break_lease(flight)
                continue
            time.sleep(self.poll_s)
            value = self._read(path)
            if value is not _SENTINEL:
                with self._lock:
                    self.hits += 1
                return True, value
            if self._lease_stale(flight):
                self._break_lease(flight)

    def put(self, job: Job, value: Any) -> bool:
        """Store and release this process's lease on the fingerprint."""
        try:
            return super().put(job, value)
        finally:
            self._release(job.fingerprint)

    def release_all(self) -> None:
        """Drop every lease this process still holds (failure cleanup)."""
        with self._lock:
            held = dict(self._held)
            self._held.clear()
        for flight in held.values():
            try:
                os.unlink(flight)
            except OSError:
                pass

    # -- lease protocol --------------------------------------------------------

    def _try_acquire(self, fingerprint: str, flight: Path) -> bool:
        try:
            flight.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(flight, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Cannot lock here (read-only dir, exotic fs): plain-cache
            # semantics — compute without coordination.
            return True
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()}:{time.time():.3f}")
        except OSError:
            pass
        with self._lock:
            self._held[fingerprint] = flight
            self.flights_won += 1
        return True

    def _lease_stale(self, flight: Path) -> bool:
        """Owner dead, lease expired, or lease already gone."""
        try:
            text = flight.read_text()
            pid_text, _, stamp_text = text.partition(":")
            pid = int(pid_text)
            stamp = float(stamp_text)
        except (OSError, ValueError):
            # Vanished (released) or unreadable: treat as stale; the
            # next acquire attempt settles it atomically either way.
            return True
        if time.time() - stamp > self.lease_s:
            return True
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False
        return False

    def _break_lease(self, flight: Path) -> None:
        try:
            os.unlink(flight)
        except OSError:
            return
        with self._lock:
            self.flights_broken += 1

    def _release(self, fingerprint: str) -> None:
        with self._lock:
            flight = self._held.pop(fingerprint, None)
        if flight is not None:
            try:
                os.unlink(flight)
            except OSError:
                pass
