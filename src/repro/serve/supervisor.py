"""A supervised pool of worker processes behind the admission queue.

The batcher stays the single front door — admission, coalescing,
deadlines and backpressure are unchanged — but with a pool attached its
dispatcher stops *executing* batches and starts *routing* them:

* **Fingerprint-sharded routing.**  Each request fingerprint hashes to
  one shard (worker process), so identical requests always land on the
  same worker and coalescing survives sharding — there is never a second
  worker computing the entry a first one already owns.  A batch cut by
  the dispatcher is regrouped per shard and each shard group is sent as
  *one* work item, keeping the micro-batching amortisation.
* **Bit-identical execution.**  A worker evaluates its shard group with
  :func:`repro.serve.analyses.evaluate_batch` on a
  :class:`~repro.runner.SerialExecutor` — the one function that
  evaluates a served batch, which the in-process dispatcher calls too —
  so every job still carries its own seed tree and the response payload
  is byte-for-byte what the in-process path (or the CLI) produces.
  Workers share one on-disk cache through
  :class:`~repro.runner.cache.SingleFlightCache`, so concurrent misses
  on one fingerprint compute once.
* **Supervision.**  A worker death (crash, OOM-kill, SIGKILL) is
  detected by its broken pipe.  The supervisor marks each in-flight
  request with a death (see
  :class:`~repro.serve.resilience.PoisonRegistry`), re-queues the
  survivors as *singleton* tasks — so a second death pins the culprit
  exactly — and restarts the worker under exponential backoff.  Replays
  are idempotent by fingerprint: either the cache already holds the
  entry or it is recomputed bit-identically.
* **Poison quarantine.**  A fingerprint whose death marks reach the
  registry threshold is failed with
  :class:`~repro.errors.PoisonedRequestError` instead of being replayed
  — one poison request cannot crash-loop the pool.

The supervisor deals in :class:`WorkItem` values and reports every
completion through a single ``on_done(item, outcome)`` callback (outcome
is a payload dict or an exception), which is how the batcher resolves
its entry futures without the two layers sharing internals.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.errors import PoisonedRequestError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.runner.cache import SingleFlightCache
from repro.runner.executor import SerialExecutor
from repro.serve import analyses
from repro.serve.protocol import Request
from repro.serve.resilience import PoisonRegistry

#: Outcome callback: payload dict on success, exception on failure.
DoneCallback = Callable[["WorkItem", Any], None]


# --------------------------------------------------------------------------
# Worker side (runs in the child process; everything top-level and
# picklable so both fork and spawn start methods work).
# --------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    conn: Any,
    cache_dir: Optional[str],
    cache_version: Optional[str],
    lease_s: float,
) -> None:
    """The worker process loop: receive shard batches, evaluate, reply.

    Protocol (parent -> worker): ``("batch", task_id, [Request, ...])``,
    ``("latency", seconds)`` (chaos-drill injection: sleep that long
    before each subsequent batch), ``("stop",)``.
    Worker -> parent: ``("result", task_id, [outcome, ...])``.
    """
    # The parent owns lifecycle; an operator ^C must not kill workers
    # mid-batch before the parent has drained.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass
    cache = (
        SingleFlightCache(cache_dir, version=cache_version, lease_s=lease_s)
        if cache_dir
        else None
    )
    injected_latency_s = 0.0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "latency":
            injected_latency_s = max(0.0, float(message[1]))
            continue
        if kind != "batch":  # pragma: no cover - future protocol slack
            continue
        _, task_id, requests = message
        if injected_latency_s > 0:
            time.sleep(injected_latency_s)
        try:
            outcomes = analyses.evaluate_batch(
                requests, SerialExecutor(cache=cache)
            )
        except BaseException as exc:  # noqa: BLE001 - keep the loop alive
            outcomes = [{"ok": False, "error": exc} for _ in requests]
        finally:
            if cache is not None:
                cache.release_all()
        for outcome in outcomes:
            if not outcome["ok"]:
                # Exceptions need not pickle; the pipe carries the
                # "Type: message" string.
                error = outcome["error"]
                outcome["error"] = f"{type(error).__name__}: {error}"
        try:
            conn.send(("result", task_id, outcomes))
        except (OSError, ValueError, BrokenPipeError):
            return


# --------------------------------------------------------------------------
# Parent side.
# --------------------------------------------------------------------------


@dataclass
class WorkItem:
    """One request the batcher handed to the pool.

    ``context`` is opaque to the supervisor — the batcher stores its
    queue entry there and gets it back in ``on_done``.  ``attempts``
    counts worker deaths this item lived through (replays).
    """

    request: Request
    context: Any = None
    attempts: int = 0


@dataclass
class _Task:
    """One shard-group in flight on one worker."""

    task_id: int
    items: List[WorkItem]
    sent_at: float = 0.0


class _Shard:
    """One worker process slot and its routing state."""

    __slots__ = (
        "id",
        "proc",
        "conn",
        "lock",
        "inflight",
        "backlog",
        "alive",
        "restarts",
        "consecutive_deaths",
        "spawned_at",
        "tasks_done",
    )

    def __init__(self, shard_id: int) -> None:
        self.id = shard_id
        self.proc: Optional[Any] = None
        self.conn: Optional[Any] = None
        self.lock = threading.Lock()
        self.inflight: Dict[int, _Task] = {}
        self.backlog: List[_Task] = []
        self.alive = False
        self.restarts = 0
        self.consecutive_deaths = 0
        self.spawned_at = 0.0
        self.tasks_done = 0


class Supervisor:
    """Owns N worker processes; routes, replays, restarts, quarantines.

    Args:
        workers: Pool size (>= 1).
        on_done: Completion callback; called from receiver threads with
            ``(item, outcome)`` where outcome is the worker's payload
            dict or an exception.  Must not block for long.
        cache_dir / cache_version: The shared on-disk cache workers open
            (with single-flight semantics); ``None`` disables caching.
        metrics: Optional registry for ``serve.worker.*`` counters and
            the ``serve.workers_alive`` gauge.
        poison: Optional circuit breaker consulted on worker deaths.
        backoff_base_s / backoff_max_s: Exponential restart backoff
            (``base * 2**(consecutive_deaths - 1)``, capped).
        stable_after_s: A worker surviving this long resets its
            consecutive-death count (a crash after a week is not part of
            a crash loop).
        lease_s: Single-flight lease passed through to worker caches.
    """

    def __init__(
        self,
        workers: int,
        on_done: DoneCallback,
        cache_dir: Optional[str] = None,
        cache_version: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        poison: Optional[PoisonRegistry] = None,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
        stable_after_s: float = 30.0,
        lease_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ServeError("workers must be >= 1")
        if backoff_base_s <= 0 or backoff_max_s < backoff_base_s:
            raise ServeError("need 0 < backoff_base_s <= backoff_max_s")
        self.workers = workers
        self._on_done = on_done
        self._cache_dir = cache_dir
        self._cache_version = cache_version
        self._metrics = metrics
        self._poison = poison
        self._backoff_base_s = backoff_base_s
        self._backoff_max_s = backoff_max_s
        self._stable_after_s = stable_after_s
        self._lease_s = lease_s
        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in start_methods else None
        )
        self._shards = [_Shard(i) for i in range(workers)]
        self._task_ids = itertools.count(1)
        self._closed = False
        self._started = False
        #: Items submitted and not yet reported through ``on_done`` —
        #: includes items in the replay gap between a death and the
        #: respawned worker, which live in neither inflight nor backlog.
        self._pending_items = 0
        self._pending_lock = threading.Lock()
        self.deaths_total = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._started:
            return self
        self._started = True
        for shard in self._shards:
            self._spawn(shard)
        return self

    def _spawn(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                shard.id,
                child_conn,
                self._cache_dir,
                self._cache_version,
                self._lease_s,
            ),
            name=f"serve-worker-{shard.id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with shard.lock:
            shard.proc = proc
            shard.conn = parent_conn
            shard.alive = True
            shard.spawned_at = time.monotonic()
        threading.Thread(
            target=self._recv_loop,
            args=(shard, proc, parent_conn),
            name=f"serve-recv-{shard.id}",
            daemon=True,
        ).start()
        self._gauge_alive()

    def close(
        self, drain: bool = False, timeout: Optional[float] = None
    ) -> None:
        """Stop the pool; optionally wait for in-flight work first.

        With ``drain``, waits (bounded by ``timeout``) for every
        submitted item to resolve; anything still unresolved after the
        workers stop is failed with :class:`ServeError` so no caller
        hangs on a future that will never be set.
        """
        if drain:
            self.drain(timeout)
        self._closed = True
        for shard in self._shards:
            with shard.lock:
                conn = shard.conn
                if conn is not None:
                    try:
                        conn.send(("stop",))
                    except (OSError, ValueError, BrokenPipeError):
                        pass
        for shard in self._shards:
            proc = shard.proc
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=0.5)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=0.5)
            with shard.lock:
                shard.alive = False
        self._fail_outstanding(ServeError("server shut down before dispatch"))
        self._gauge_alive()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every submitted item has resolved; True on empty."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            with self._pending_lock:
                pending = self._pending_items
            if pending == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def _fail_outstanding(self, exc: BaseException) -> None:
        for shard in self._shards:
            with shard.lock:
                tasks = list(shard.inflight.values()) + shard.backlog
                shard.inflight.clear()
                shard.backlog = []
            for task in tasks:
                for item in task.items:
                    self._done(item, exc)

    # -- routing --------------------------------------------------------------

    def shard_of(self, fingerprint: str) -> int:
        """Stable fingerprint -> worker mapping (hex prefix mod N)."""
        return int(fingerprint[:8], 16) % self.workers

    def submit(self, items: Sequence[WorkItem]) -> None:
        """Route ``items`` to their shards, one task per shard group."""
        if self._closed:
            raise ServeError("supervisor is shutting down")
        groups: Dict[int, List[WorkItem]] = {}
        for item in items:
            groups.setdefault(
                self.shard_of(item.request.fingerprint), []
            ).append(item)
        with self._pending_lock:
            self._pending_items += len(items)
        for shard_id in sorted(groups):
            self._send(
                self._shards[shard_id],
                _Task(next(self._task_ids), groups[shard_id]),
            )

    def _send(self, shard: _Shard, task: _Task) -> None:
        task.sent_at = time.monotonic()
        with shard.lock:
            if not shard.alive:
                # Worker is mid-restart: hold the task; the restart path
                # flushes the backlog once the replacement is up.
                shard.backlog.append(task)
                return
            shard.inflight[task.task_id] = task
            try:
                shard.conn.send(
                    ("batch", task.task_id, [i.request for i in task.items])
                )
            except (OSError, ValueError, BrokenPipeError):
                # Death detected at send time; the receiver thread will
                # notice the broken pipe and run the restart path.
                shard.inflight.pop(task.task_id, None)
                shard.backlog.append(task)

    # -- receive / supervision -------------------------------------------------

    def _recv_loop(self, shard: _Shard, proc: Any, conn: Any) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] != "result":  # pragma: no cover - protocol slack
                continue
            _, task_id, outcomes = message
            with shard.lock:
                task = shard.inflight.pop(task_id, None)
                shard.tasks_done += 1
            if task is None:
                continue
            for item, outcome in zip(task.items, outcomes):
                if isinstance(outcome, dict):
                    if outcome.get("ok") and self._poison is not None:
                        self._poison.record_success(
                            item.request.fingerprint
                        )
                    outcome.setdefault("worker", shard.id)
                    outcome["attempts"] = item.attempts + 1
                self._done(item, outcome)
        with shard.lock:
            stale = shard.proc is not proc
        if stale or self._closed:
            return
        self._handle_death(shard, proc)

    def _handle_death(self, shard: _Shard, proc: Any) -> None:
        """Runs on the dead worker's receiver thread: mark, replay,
        backoff, respawn."""
        proc.join(timeout=2.0)  # reap, so pid-liveness lease checks work
        with shard.lock:
            shard.alive = False
            orphans = list(shard.inflight.values())
            shard.inflight.clear()
            shard.restarts += 1
            if (
                time.monotonic() - shard.spawned_at > self._stable_after_s
            ):
                shard.consecutive_deaths = 1
            else:
                shard.consecutive_deaths += 1
            consecutive = shard.consecutive_deaths
        self.deaths_total += 1
        self._count("serve.worker.deaths")
        self._gauge_alive()

        replay: List[WorkItem] = []
        for task in orphans:
            for item in task.items:
                item.attempts += 1
                fingerprint = item.request.fingerprint
                if self._poison is not None:
                    deaths = self._poison.record_death(
                        fingerprint,
                        analysis=item.request.analysis,
                        worker=shard.id,
                    )
                    if self._poison.is_quarantined(fingerprint):
                        self._done(
                            item,
                            PoisonedRequestError(
                                f"request {fingerprint[:12]} quarantined "
                                f"after {deaths} worker deaths",
                                fingerprint=fingerprint,
                                analysis=item.request.analysis,
                                deaths=deaths,
                            ),
                        )
                        continue
                replay.append(item)

        backoff = min(
            self._backoff_max_s,
            self._backoff_base_s * (2 ** (consecutive - 1)),
        )
        deadline = time.monotonic() + backoff
        while not self._closed and time.monotonic() < deadline:
            time.sleep(min(0.05, backoff))
        if self._closed:
            with shard.lock:
                backlog = shard.backlog
                shard.backlog = []
            for item in replay:
                self._done(
                    item, ServeError("server shut down during worker restart")
                )
            for task in backlog:
                for item in task.items:
                    self._done(
                        item,
                        ServeError("server shut down during worker restart"),
                    )
            return
        self._spawn(shard)
        self._count("serve.worker.restarts")
        with shard.lock:
            backlog = shard.backlog
            shard.backlog = []
        # Replay orphans as singletons: if one of them is poison, the
        # next death marks exactly the culprit, not its batch-mates.
        for item in replay:
            self._send(shard, _Task(next(self._task_ids), [item]))
        for task in backlog:
            self._send(shard, task)

    def _done(self, item: WorkItem, outcome: Any) -> None:
        with self._pending_lock:
            self._pending_items -= 1
        try:
            self._on_done(item, outcome)
        except Exception:  # noqa: BLE001 - callbacks must not kill recv
            pass

    # -- chaos hooks (the drill drives these) ---------------------------------

    def kill_worker(self, shard_id: int, sig: int = signal.SIGKILL) -> bool:
        """Send ``sig`` to one worker process (chaos injection)."""
        shard = self._shards[shard_id]
        proc = shard.proc
        if proc is None or proc.pid is None or not proc.is_alive():
            return False
        try:
            os.kill(proc.pid, sig)
        except (OSError, ProcessLookupError):
            return False
        return True

    def inject_latency(
        self, seconds: float, shard_id: Optional[int] = None
    ) -> None:
        """Ask worker(s) to sleep before each batch (chaos injection)."""
        targets = (
            self._shards
            if shard_id is None
            else [self._shards[shard_id]]
        )
        for shard in targets:
            with shard.lock:
                if shard.conn is None or not shard.alive:
                    continue
                try:
                    shard.conn.send(("latency", float(seconds)))
                except (OSError, ValueError, BrokenPipeError):
                    pass

    def inflight_fingerprints(self, shard_id: int) -> Set[str]:
        """Fingerprints currently on one worker (drill targeting aid)."""
        shard = self._shards[shard_id]
        with shard.lock:
            return {
                item.request.fingerprint
                for task in shard.inflight.values()
                for item in task.items
            }

    # -- introspection ---------------------------------------------------------

    def pending_items(self) -> int:
        """Items submitted and not yet resolved (the pool's backlog).

        In pool mode the admission queue drains into the shards almost
        instantly, so *this* is where load pressure shows up — the
        brownout controller folds it into its queue signal.
        """
        with self._pending_lock:
            return self._pending_items

    def alive_count(self) -> int:
        count = 0
        for shard in self._shards:
            with shard.lock:
                if shard.alive and shard.proc is not None and shard.proc.is_alive():
                    count += 1
        return count

    def alive_fraction(self) -> float:
        return self.alive_count() / float(self.workers)

    def stats(self) -> Dict[str, Any]:
        per_worker = []
        for shard in self._shards:
            with shard.lock:
                per_worker.append(
                    {
                        "worker": shard.id,
                        "pid": shard.proc.pid if shard.proc else None,
                        "alive": bool(
                            shard.alive
                            and shard.proc is not None
                            and shard.proc.is_alive()
                        ),
                        "restarts": shard.restarts,
                        "inflight": sum(
                            len(t.items) for t in shard.inflight.values()
                        ),
                        "backlog": sum(
                            len(t.items) for t in shard.backlog
                        ),
                        "tasks_done": shard.tasks_done,
                    }
                )
        with self._pending_lock:
            pending = self._pending_items
        return {
            "configured": self.workers,
            "alive": sum(1 for w in per_worker if w["alive"]),
            "deaths": self.deaths_total,
            "pending_items": pending,
            "per_worker": per_worker,
        }

    def _count(self, name: str, n: float = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(n)

    def _gauge_alive(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("serve.workers_alive").set(
                self.alive_count()
            )
