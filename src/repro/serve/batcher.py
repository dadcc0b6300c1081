"""Micro-batching admission queue with coalescing and backpressure.

The service's query pattern — many small cost/availability evaluations
against one shared model — is the same shape inference serving deals
with, and the same two amortisations apply:

* **Coalescing.**  Concurrent requests with the same fingerprint (same
  analysis, same normalised params) are one evaluation: later arrivals
  attach to the in-flight entry's future and the runner sees exactly one
  job set.  ``serve.coalesced`` counts the requests that rode along.
* **Micro-batching.**  The dispatcher cuts whatever is queued (up to
  ``max_batch`` requests), concatenates their job lists, and makes **one**
  executor submission.  In-process it cuts as soon as it is free: the
  requests that arrived while the previous batch ran are the next batch.
  With a worker pool it first lingers a short window (``max_wait_s``
  after the first arrival) so each shard's items go out in one IPC
  submission — amortising pool dispatch the way inference servers
  amortise kernel launches.  Each request's jobs keep their own seeds
  and fingerprints, so batched results are bit-identical to dedicated
  runs (and hit the same cache entries).

One function evaluates a batch wherever it runs:
:func:`repro.serve.analyses.evaluate_batch`, called here in-process or
by a pool worker (:mod:`repro.serve.supervisor`) on its shard group.
One method, :meth:`Batcher._complete`, resolves every dispatched entry
from its outcome in both modes — failure accounting, ``meta``, and the
``queued → execute → reduce`` spans.

Backpressure is explicit: the queue is bounded, and an arrival that
finds it full is shed with :class:`~repro.errors.QueueFullError` (the
HTTP layer turns that into 429 + ``Retry-After``) instead of growing
every queued request's latency.  Deadlines bound queueing: a request
still queued when its deadline passes fails with
:class:`~repro.errors.DeadlineError`.  Once dispatched, a batch runs to
completion; the HTTP handler stops waiting ``deadline_s + 1`` s after
admission.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlineError, QueueFullError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RequestTrace, Telemetry
from repro.runner.cache import ResultCache
from repro.runner.executor import SerialExecutor
from repro.serve import analyses
from repro.serve.protocol import Request
from repro.serve.supervisor import Supervisor, WorkItem


@dataclass
class _Entry:
    """One admitted request riding the queue."""

    request: Request
    future: "concurrent.futures.Future" = field(
        default_factory=concurrent.futures.Future
    )
    enqueued_at: float = 0.0
    enqueued_unix: float = 0.0
    deadline_at: Optional[float] = None  # monotonic, None = no deadline
    riders: int = 1  # coalesced requests sharing this entry
    request_id: Optional[str] = None
    trace: Optional[RequestTrace] = None
    #: Traces of coalesced riders; they finish when the leader resolves.
    rider_traces: List[RequestTrace] = field(default_factory=list)


class Batcher:
    """The admission queue + dispatcher behind the evaluation service.

    Args:
        cache: Optional :class:`~repro.runner.ResultCache` shared by
            every in-process batch (cross-request caching).  Each batch
            runs on a fresh :class:`~repro.runner.SerialExecutor` over
            it — the same call a pool worker makes on its shard group.
        queue_bound: Admitted-but-undispatched requests allowed before
            arrivals are shed.  Coalesced duplicates do not consume
            slots — they attach to the entry already holding one.
        max_batch: Most requests dispatched in one executor submission.
        max_wait_s: How long the dispatcher lingers after the first
            arrival to let a batch accumulate, in pool mode.  Zero
            dispatches eagerly.  Without a pool it never lingers.
        metrics: Optional :class:`~repro.obs.MetricsRegistry` receiving
            the ``serve.*`` queue instrumentation.
        telemetry: Optional :class:`~repro.obs.Telemetry` bundle; when
            present (and the HTTP layer passes request ids to
            :meth:`submit`), every resolved request leaves a retrievable
            queued→execute→reduce span tree in the trace store —
            coalesced riders get their own trace carrying the leader's
            id.  ``None`` (the default) keeps the pre-telemetry path.
        pool: Optional :class:`~repro.serve.supervisor.Supervisor`.
            When present the dispatcher routes instead of executing:
            each cut batch is regrouped by fingerprint shard and handed
            to the pool, and entry futures resolve from the pool's
            completion callbacks (:meth:`pool_done`).  ``None`` keeps
            the in-process execute path.
        linger_policy: Optional override for the pool-mode micro-batch
            linger window, consulted at every collect — the brownout
            controller's hook for shrinking the window under pressure.
            ``None`` always lingers ``max_wait_s``.  Unused without a
            pool.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        queue_bound: int = 64,
        max_batch: int = 16,
        max_wait_s: float = 0.005,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[Telemetry] = None,
        pool: Optional[Supervisor] = None,
        linger_policy: Optional[Callable[[], float]] = None,
    ) -> None:
        if queue_bound < 1:
            raise ServeError("queue_bound must be >= 1")
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ServeError("max_wait_s must be >= 0")
        self._cache = cache
        self.queue_bound = queue_bound
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._metrics = metrics
        self._telemetry = telemetry
        self._pool = pool
        self._linger_policy = linger_policy
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: List[_Entry] = []
        #: fingerprint -> entry, for everything admitted and not yet
        #: resolved (queued *and* in-flight) — the coalescing map.
        self._pending: Dict[str, _Entry] = {}
        self._closed = False
        self._drain = True
        self._worker: Optional[threading.Thread] = None
        # Totals mirrored into metrics; kept here too so /stats works
        # without an obs registry.
        self.requests = 0
        self.coalesced = 0
        self.sheds = 0
        self.expired = 0
        self.batches = 0
        self.jobs_run = 0
        self.failures = 0
        #: Per-analysis breakdown of the totals above (``/stats`` shows
        #: which analyses the traffic is made of, not just how much).
        self.by_analysis: Dict[str, Dict[str, int]] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Batcher":
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._loop, name="serve-batcher", daemon=True
                )
                self._worker.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admitting; drain or cancel what is queued.

        Args:
            drain: Finish queued work before stopping (deadline-expired
                entries still fail with :class:`DeadlineError`).  With
                ``False``, queued entries fail immediately.
            timeout: Bound on waiting for the dispatcher to exit.
        """
        with self._cond:
            self._closed = True
            self._drain = drain
            if not drain:
                for entry in self._queue:
                    self._resolve_error(
                        entry, ServeError("server shut down before dispatch")
                    )
                self._queue.clear()
                self._gauge_depth()
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout=timeout)

    # -- admission ------------------------------------------------------------

    def submit(
        self, request: Request, request_id: Optional[str] = None
    ) -> "concurrent.futures.Future":
        """Admit ``request``; returns the future its response resolves on.

        ``request_id`` is the id the HTTP layer minted at admission;
        when telemetry is on it keys the request's span tree in the
        trace store.  A coalesced arrival keeps its *own* id — its trace
        records the leader's id it rode on.

        Raises:
            QueueFullError: The bounded queue is full (shed; HTTP 429).
            ServeError: The batcher is shutting down.
        """
        now = time.monotonic()
        with self._cond:
            if self._closed:
                raise ServeError("server is shutting down")
            self._count("serve.requests")
            self._count(f"serve.requests[{request.analysis}]")
            self.requests += 1
            self._analysis_stat(request.analysis)["requests"] += 1
            existing = self._pending.get(request.fingerprint)
            if existing is not None:
                existing.riders += 1
                self.coalesced += 1
                self._count("serve.coalesced")
                self._analysis_stat(request.analysis)["coalesced"] += 1
                if self._telemetry is not None and request_id is not None:
                    existing.rider_traces.append(
                        RequestTrace(
                            request_id,
                            request.analysis,
                            coalesced=True,
                            leader_id=existing.request_id,
                            fingerprint=request.fingerprint,
                        )
                    )
                return existing.future
            if len(self._queue) >= self.queue_bound:
                self.sheds += 1
                self._count("serve.shed")
                raise QueueFullError(
                    f"admission queue full ({self.queue_bound} waiting); "
                    "retry shortly"
                )
            entry = _Entry(
                request=request,
                enqueued_at=now,
                enqueued_unix=time.time(),
                request_id=request_id,
            )
            if self._telemetry is not None and request_id is not None:
                entry.trace = RequestTrace(
                    request_id,
                    request.analysis,
                    fingerprint=request.fingerprint,
                )
            if request.deadline_s is not None:
                entry.deadline_at = now + request.deadline_s
            self._queue.append(entry)
            self._pending[request.fingerprint] = entry
            self._gauge_depth()
            self._cond.notify_all()
            return entry.future

    # -- dispatch loop ---------------------------------------------------------

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            if batch:
                self._dispatch(batch)

    def _linger_s(self) -> float:
        """How long to wait for riders after the first arrival.

        Only pool mode lingers.  There :meth:`_dispatch_pool` returns at
        once and the window is what groups a shard's items into one IPC
        submission.  In-process the dispatcher *is* the executor: a
        batch of two costs what two batches of one cost on the
        :class:`~repro.runner.SerialExecutor`, so waiting would only
        idle it.  Requests that arrive while a batch runs still queue
        up and become the next cut.
        """
        if self._pool is None:
            return 0.0
        if self._linger_policy is not None:
            return self._linger_policy()
        return self.max_wait_s

    def _collect(self) -> Optional[List[_Entry]]:
        """Block for work, linger (pool mode) for riders, cut a batch.

        Returns None when closed and fully drained (thread exit)."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait(timeout=0.1)
            window_ends = time.monotonic() + max(0.0, self._linger_s())
            while (
                len(self._queue) < self.max_batch
                and not self._closed
            ):
                remaining = window_ends - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
            self._gauge_depth()
            return batch

    def _dispatch(self, batch: List[_Entry]) -> None:
        now = time.monotonic()
        with self._lock:
            self.batches += 1
            self._count("serve.batches")
            self._observe("serve.batch_size", len(batch))
            for entry in batch:
                self._observe(
                    "serve.queue_wait_seconds", now - entry.enqueued_at
                )

        live: List[_Entry] = []
        for entry in batch:
            if entry.deadline_at is not None and entry.deadline_at <= now:
                with self._lock:
                    self.expired += 1
                    self._count("serve.deadline_expired")
                    self._resolve_error(
                        entry,
                        DeadlineError(
                            f"deadline ({entry.request.deadline_s:.3f}s) "
                            "expired while queued"
                        ),
                    )
                continue
            live.append(entry)
        if not live:
            return

        if self._pool is not None:
            self._dispatch_pool(live, now)
            return
        self._count_analysis_batches(live)
        outcomes = analyses.evaluate_batch(
            [entry.request for entry in live],
            SerialExecutor(cache=self._cache),
        )
        for entry, outcome in zip(live, outcomes):
            self._complete(entry, outcome, now)

    # -- pool routing ----------------------------------------------------------

    def _dispatch_pool(self, live: List[_Entry], now: float) -> None:
        """Hand one cut batch to the worker pool, regrouped by shard.

        The pool owns execution from here; entry futures resolve from
        :meth:`pool_done` on the supervisor's receiver threads.  Shard
        groups keep the micro-batching amortisation — each group is one
        work item, one executor submission on its worker.
        """
        groups: Dict[int, List[_Entry]] = {}
        for entry in live:
            shard = self._pool.shard_of(entry.request.fingerprint)
            groups.setdefault(shard, []).append(entry)
        self._count("serve.pool.groups", len(groups))
        for entries in groups.values():
            self._count_analysis_batches(entries)
        items = [
            WorkItem(request=entry.request, context=(entry, now))
            for entry in live
        ]
        try:
            self._pool.submit(items)
        except ServeError as exc:
            with self._lock:
                for entry in live:
                    self._resolve_error(entry, exc)

    def pool_done(self, item: WorkItem, outcome: Any) -> None:
        """Supervisor completion callback (runs on a receiver thread)."""
        entry, dispatched_at = item.context
        self._complete(entry, outcome, dispatched_at)

    # -- completion ------------------------------------------------------------

    def _complete(
        self, entry: _Entry, outcome: Any, dispatched_at: float
    ) -> None:
        """Resolve one dispatched entry — the one completion path of both
        modes.

        ``outcome`` is an :func:`~repro.serve.analyses.evaluate_batch`
        outcome (a pool worker's carries ``worker``/``attempts`` too, and
        its ``error`` is the ``"Type: message"`` string the pipe carried,
        failed here as :class:`ServeError`), or an exception when the
        pool gave up on the entry (poison quarantine, shutdown) — that is
        not an evaluation failure and is not counted as one.  Stage
        timings come from the process that did the work.  May run on a
        receiver thread, so everything shared takes the batcher lock.
        """
        if isinstance(outcome, BaseException):
            with self._lock:
                self._resolve_error(entry, outcome)
            return
        analysis = entry.request.analysis
        jobs = outcome.get("jobs", 0)
        with self._lock:
            self.jobs_run += jobs
            self._count("serve.jobs", jobs)
            self._analysis_stat(analysis)["jobs"] += jobs
            if not outcome["ok"]:
                error = outcome["error"]
                self.failures += 1
                self._count("serve.failures")
                self._analysis_stat(analysis)["failures"] += 1
                self._resolve_error(
                    entry,
                    error
                    if isinstance(error, BaseException)
                    else ServeError(str(error)),
                )
                return
            self._pending.pop(entry.request.fingerprint, None)
            execute_at, execute_s = outcome["execute"]
            self._observe("serve.batch_seconds", execute_s)
        reduce_at, reduce_s = outcome["reduce"]
        attrs = {
            "jobs": jobs,
            "batch_size": outcome["batch_size"],
            "cache_hits": outcome["cache_hits"],
            # Pool mode only.
            **{k: outcome[k] for k in ("worker", "attempts") if k in outcome},
        }
        meta = {
            **attrs,
            "coalesced_riders": entry.riders - 1,
            "queue_wait_s": round(dispatched_at - entry.enqueued_at, 6),
            "batch_seconds": round(execute_s, 6),
        }
        if entry.trace is not None:
            entry.trace.add_span(
                "queued",
                ts=entry.enqueued_unix,
                dur=dispatched_at - entry.enqueued_at,
            )
            execute_id = entry.trace.add_span(
                "execute", ts=execute_at, dur=execute_s, **attrs
            )
            entry.trace.add_span(
                "reduce", ts=reduce_at, dur=reduce_s, parent_id=execute_id
            )
            entry.trace.set_root(riders=entry.riders - 1)
        self._finish_traces(entry, "ok")
        entry.future.set_result({"result": outcome["payload"], "meta": meta})

    def _resolve_error(self, entry: _Entry, exc: BaseException) -> None:
        """Fail an entry's future; caller holds the lock."""
        self._pending.pop(entry.request.fingerprint, None)
        if entry.trace is not None:
            entry.trace.set_root(error=f"{type(exc).__name__}: {exc}")
        self._finish_traces(entry, "error")
        if not entry.future.done():
            entry.future.set_exception(exc)

    def _finish_traces(self, entry: _Entry, outcome: str) -> None:
        """Close and store the leader's trace plus any rider traces."""
        if self._telemetry is None:
            return
        if entry.trace is not None:
            self._telemetry.store.put(entry.trace.finish(outcome))
            entry.trace = None
        for rider in entry.rider_traces:
            self._telemetry.store.put(rider.finish(outcome))
        entry.rider_traces = []

    # -- telemetry -------------------------------------------------------------

    def _analysis_stat(self, analysis: str) -> Dict[str, int]:
        """Per-analysis counter row; caller holds the lock."""
        row = self.by_analysis.get(analysis)
        if row is None:
            row = {
                "requests": 0,
                "coalesced": 0,
                "batches": 0,
                "jobs": 0,
                "failures": 0,
            }
            self.by_analysis[analysis] = row
        return row

    def _count_analysis_batches(self, entries: List[_Entry]) -> None:
        """One batch for each analysis among ``entries`` (one executor
        submission)."""
        with self._lock:
            for analysis in {entry.request.analysis for entry in entries}:
                self._analysis_stat(analysis)["batches"] += 1

    def _count(self, name: str, n: float = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(n)

    def _observe(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.histogram(name).observe(value)

    def _gauge_depth(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("serve.queue_depth").set(len(self._queue))

    def stats(self) -> Dict[str, Any]:
        """A point-in-time counters snapshot for ``/stats``."""
        with self._lock:
            return {
                "requests": self.requests,
                "coalesced": self.coalesced,
                "sheds": self.sheds,
                "deadline_expired": self.expired,
                "batches": self.batches,
                "jobs_run": self.jobs_run,
                "failures": self.failures,
                "queue_depth": len(self._queue),
                "in_flight": len(self._pending) - len(self._queue),
                "queue_bound": self.queue_bound,
                "max_batch": self.max_batch,
                "analyses": {
                    name: dict(row)
                    for name, row in sorted(self.by_analysis.items())
                },
            }
