"""Executors: run job lists serially or on a process pool.

Both executors share one contract:

* results come back **in submission order** (by :attr:`Job.index`), so
  callers aggregate identically regardless of completion order;
* the optional :class:`~repro.runner.cache.ResultCache` is consulted in
  the coordinating process before any dispatch, so cache hits never pay
  worker-transfer costs;
* every transition is reported to the optional
  :class:`~repro.runner.progress.ProgressListener`, and the returned
  :class:`RunReport` carries a full :class:`RunStats`.

:class:`ParallelExecutor` dispatches misses to a
:class:`concurrent.futures.ProcessPoolExecutor` in bounded windows
(``chunk_size`` futures in flight per worker) with a per-job timeout,
and degrades to in-process execution when the pool cannot start or
breaks mid-run — sandboxes without ``fork``/semaphores get a slower run,
not a crash.  Because jobs carry their own
:class:`numpy.random.SeedSequence` streams, a fallback (or any worker
count) changes nothing about the numbers produced.

**Observability.**  When an ambient :mod:`repro.obs` session is active at
executor construction, the whole run is wrapped in a ``runner.run`` span
and every job in a ``job`` span.  Every traced job — in a pool worker or
in-process — runs under a private per-job session whose finished span
records and metrics snapshot travel back with the result; the coordinator
re-parents the spans under ``runner.run`` and merges metric snapshots
**in job submission order**.  Per-job subtotals combined in a fixed order
are what make the merged registry bit-identical at every worker count
(including serial).  With no session active (the default) every hook is
one ``is None`` check.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RetryExhaustedError, RunnerError
from repro.obs import ObsSession, activate, current_metrics, current_tracer, deactivate
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.jobs import Job
from repro.runner.progress import JobEvent, JobEventKind, ProgressListener, RunStats
from repro.runner.retry import RetryPolicy

DEFAULT_CHUNK_SIZE = 8

#: ``(index, ok, value_or_error, traceback_text, seconds, obs_payload)``
JobResult = Tuple[int, bool, Any, str, float, Optional[Dict[str, Any]]]


@dataclass(frozen=True)
class JobFailure:
    """One failed job.

    Attributes:
        index: The job's submission index.
        label: The job's display name.
        error: Exception message (with the exception type's name).
        traceback_text: Formatted worker-side traceback when available.
    """

    index: int
    label: str
    error: str
    traceback_text: str = ""


@dataclass(frozen=True)
class RunReport:
    """The outcome of one executor run.

    Attributes:
        values: Per-job results in submission order; failed jobs hold
            ``None`` (only observable with ``strict=False``).
        stats: Aggregate run telemetry.
        failures: The failed jobs, submission order.
    """

    values: Sequence[Any]
    stats: RunStats
    failures: Sequence[JobFailure] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


def _pristine(job: Job) -> Job:
    """A copy of ``job`` with an unspawned seed.

    A job that spawned child streams in-process and *then* failed would,
    if retried with the same :class:`~numpy.random.SeedSequence` object,
    spawn *different* children (spawning advances a counter).  Re-queues
    therefore rebuild the seed from its entropy + spawn key, so a retry
    draws exactly what the first attempt drew.
    """
    if job.seed is None or job.seed.n_children_spawned == 0:
        return job
    fresh = np.random.SeedSequence(
        entropy=job.seed.entropy, spawn_key=job.seed.spawn_key
    )
    return dataclasses.replace(job, seed=fresh)


def _execute_job(job: Job, obs_mode: str = "off") -> JobResult:
    """Worker-side wrapper: never raises, always reports duration.

    Returns ``(index, ok, value_or_error, traceback_text, seconds,
    obs_payload)``.  Exceptions are rendered to strings here because
    traceback objects do not survive pickling back to the coordinator.

    ``obs_mode`` is ``"off"`` (no instrumentation at all — the default
    path) or ``"on"``.  A traced job always runs under a *private*
    :class:`ObsSession` — in a pool worker (where a fork-started child may
    have inherited the coordinator's ambient session, which we drop) and
    in-process (serial execution, pool fallback) alike — with the job's
    spans and metrics snapshot shipped back in the payload for the
    coordinator to ingest and merge in submission order.  One mechanism
    for every worker count is what makes the merged metrics bit-identical
    between serial and parallel runs: per-job subtotals always combine in
    the same grouping and order, so float addition cannot diverge.
    """
    own_session = None
    span = None
    prior = None
    if obs_mode != "off":
        prior = deactivate()
        own_session = activate(ObsSession())
        span = own_session.tracer.start_span(
            "job",
            "runner",
            label=job.display_name(),
            index=job.index,
            fingerprint=job.fingerprint,
        )
    start = time.perf_counter()
    try:
        value = job.run()
        ok, payload, tb_text = True, value, ""
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        ok = False
        payload = f"{type(exc).__name__}: {exc}"
        tb_text = traceback.format_exc()
        if span is not None:
            span.event("job-error", message=payload)
    elapsed = time.perf_counter() - start
    obs_payload = None
    if own_session is not None:
        span.set("ok", ok)
        own_session.tracer.end_span(span)
        deactivate()
        if prior is not None:  # in-process: restore the coordinator session
            activate(prior)
        obs_payload = {
            "spans": own_session.tracer.records,
            "metrics": own_session.metrics.snapshot(),
        }
    return job.index, ok, payload, tb_text, elapsed, obs_payload


class BaseExecutor:
    """Shared cache/progress/aggregation plumbing; subclasses dispatch.

    Args:
        cache: Optional on-disk result cache.
        progress: Optional event listener.
        retry: Optional :class:`~repro.runner.retry.RetryPolicy`; failed
            jobs whose error classifies as transient are re-dispatched
            (with deterministic backoff) up to the policy's attempt budget
            before counting as failures.
        checkpoint: Optional :class:`~repro.runner.checkpoint.SweepCheckpoint`
            recording every completion; a checkpoint opened with
            ``resume=True`` serves already-recorded jobs from the cache
            without re-dispatching them.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressListener] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
    ) -> None:
        self.cache = cache
        self.progress = progress
        self.retry = retry
        self.checkpoint = checkpoint
        # Ambient observability, captured at construction (None = off).
        self._tracer = current_tracer()
        self._metrics = current_metrics()
        #: The most recent :class:`RunReport`; lets callers that hand an
        #: executor to a library function still read the run telemetry.
        self.last_report: Optional[RunReport] = None

    # -- subclass hook --------------------------------------------------------

    def _dispatch(self, jobs: Sequence[Job], stats: RunStats) -> List[JobResult]:
        """Compute every job in ``jobs``; any order, all of them."""
        raise NotImplementedError

    # -- public API -----------------------------------------------------------

    def run(self, jobs: Sequence[Job], strict: bool = True) -> RunReport:
        """Run ``jobs``; values return in submission order.

        Args:
            jobs: The work list; indices must be unique.
            strict: Raise :class:`RunnerError` on the first failure
                (after all jobs finish) instead of returning ``None``
                holes in :attr:`RunReport.values`.
        """
        jobs = list(jobs)
        if self._tracer is None:
            return self._run(jobs, strict)
        with self._tracer.span("runner.run", "runner", jobs=len(jobs)) as span:
            report = self._run(jobs, strict)
            span.set("cache_hits", report.stats.cache_hits)
            span.set("failures", report.stats.failures)
            span.set("workers", report.stats.workers)
            return report

    def _run(self, jobs: List[Job], strict: bool) -> RunReport:
        indices = [job.index for job in jobs]
        if len(set(indices)) != len(indices):
            raise RunnerError("job indices must be unique")
        stats = RunStats(jobs_total=len(jobs))
        started = time.perf_counter()
        values: Dict[int, Any] = {}
        failures: List[JobFailure] = []
        obs_by_index: Dict[int, Dict[str, Any]] = {}
        exhausted: set = set()
        corrupt_before = self.cache.corrupt if self.cache is not None else 0

        misses: List[Job] = []
        for job in jobs:
            resumed = (
                self.checkpoint is not None and self.checkpoint.is_done(job)
            )
            if self.cache is not None:
                hit, value = self.cache.get(job)
                if hit:
                    values[job.index] = value
                    stats.cache_hits += 1
                    if resumed:
                        stats.resumed += 1
                    if self.checkpoint is not None:
                        self.checkpoint.record(job)
                    self._emit(JobEvent(JobEventKind.CACHE_HIT, job.index,
                                        job.display_name(), job.fingerprint))
                    continue
            # A checkpointed job whose cached value is gone (or that never
            # had a cache) must re-run; the recompute is bit-identical, so
            # resume equivalence holds either way.
            misses.append(job)

        attempts = {job.index: 1 for job in misses}
        pending = misses
        while pending:
            by_index = {job.index: job for job in pending}
            retry_next: List[Job] = []
            for index, ok, payload, tb_text, seconds, obs_payload in (
                self._dispatch(pending, stats)
            ):
                job = by_index[index]
                stats.jobs_run += 1
                stats.job_seconds += seconds
                if obs_payload is not None:
                    obs_by_index[index] = obs_payload
                if ok:
                    values[index] = payload
                    if self.cache is not None:
                        self.cache.put(job, payload)
                    if self.checkpoint is not None:
                        self.checkpoint.record(job)
                    self._emit(JobEvent(JobEventKind.FINISHED, index,
                                        job.display_name(),
                                        job.fingerprint, seconds))
                    continue
                attempt = attempts[index]
                if (
                    self.retry is not None
                    and attempt < self.retry.max_attempts
                    and self.retry.is_retryable(payload)
                ):
                    attempts[index] = attempt + 1
                    stats.retries += 1
                    self._emit(JobEvent(JobEventKind.RETRIED, index,
                                        job.display_name(),
                                        job.fingerprint, seconds,
                                        error=payload))
                    delay = self.retry.delay_for(attempt, token=job.fingerprint)
                    if delay > 0:
                        time.sleep(delay)
                    retry_next.append(_pristine(job))
                    continue
                if (
                    self.retry is not None
                    and attempt >= self.retry.max_attempts
                    and self.retry.is_retryable(payload)
                ):
                    exhausted.add(index)
                    payload = (
                        f"{payload} (retries exhausted: "
                        f"{attempt} attempts)"
                    )
                values[index] = None
                stats.failures += 1
                failures.append(
                    JobFailure(index, job.display_name(), payload, tb_text)
                )
                self._emit(JobEvent(JobEventKind.FAILED, index,
                                    job.display_name(),
                                    job.fingerprint, seconds, error=payload))
            pending = retry_next

        if self.checkpoint is not None:
            self.checkpoint.flush()
        if self.cache is not None:
            stats.cache_corrupt = self.cache.corrupt - corrupt_before
        self._absorb_obs(obs_by_index, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        failures.sort(key=lambda f: f.index)
        report = RunReport(
            values=[values[i] for i in sorted(values)],
            stats=stats,
            failures=tuple(failures),
        )
        self.last_report = report
        if strict and failures:
            first = failures[0]
            detail = f"\n{first.traceback_text}" if first.traceback_text else ""
            message = (
                f"{len(failures)} of {len(jobs)} jobs failed; first: "
                f"{first.label}: {first.error}{detail}"
            )
            if first.index in exhausted:
                raise RetryExhaustedError(message)
            raise RunnerError(message)
        return report

    def _absorb_obs(
        self, obs_by_index: Dict[int, Dict[str, Any]], stats: RunStats
    ) -> None:
        """Adopt worker span trees and metric snapshots into the ambient
        session.  Iteration is sorted by submission index — the order that
        makes gauge merges (and therefore whole-registry state) identical
        at every worker count."""
        if self._tracer is not None:
            parent = self._tracer.current()
            parent_id = parent.span_id if parent is not None else None
            for index in sorted(obs_by_index):
                self._tracer.ingest(
                    obs_by_index[index]["spans"], parent_id=parent_id
                )
        if self._metrics is not None:
            for index in sorted(obs_by_index):
                self._metrics.merge(obs_by_index[index]["metrics"])
            self._metrics.counter("runner.jobs").inc(stats.jobs_total)
            self._metrics.counter("runner.cache_hits").inc(stats.cache_hits)
            self._metrics.counter("runner.cache_misses").inc(stats.jobs_run)
            self._metrics.counter("runner.failures").inc(stats.failures)
            self._metrics.histogram("runner.job_seconds").observe(
                stats.job_seconds
            )

    def _obs_mode(self) -> str:
        """Which ``_execute_job`` instrumentation mode applies."""
        if self._tracer is None and self._metrics is None:
            return "off"
        return "on"

    def _emit(self, event: JobEvent) -> None:
        if self.progress is not None:
            self.progress.on_event(event)


class SerialExecutor(BaseExecutor):
    """In-process, in-order execution — the reference semantics."""

    def _dispatch(self, jobs: Sequence[Job], stats: RunStats) -> List[JobResult]:
        mode = self._obs_mode()
        results = []
        for job in jobs:
            self._emit(JobEvent(JobEventKind.STARTED, job.index,
                                job.display_name(), job.fingerprint))
            results.append(_execute_job(job, mode))
        return results


class ParallelExecutor(BaseExecutor):
    """Process-pool execution with windowed dispatch and serial fallback.

    Args:
        max_workers: Pool size (None lets the pool pick; values are
            clamped to >= 1).
        cache: Optional on-disk result cache.
        progress: Optional event listener.
        timeout_seconds: Per-job wall-clock limit; an overrun marks the
            job failed (the worker is abandoned, not killed — pools
            cannot interrupt a running task).
        chunk_size: Futures kept in flight per worker; bounds coordinator
            memory on very large job lists.
        fallback_serial: Degrade to in-process execution when the pool
            cannot start or breaks; ``False`` re-raises instead.
        max_pool_restarts: Times a crashed pool (a worker killed by the
            OOM killer, a segfault, chaos testing) is rebuilt — with the
            dead round's unfinished jobs re-queued — before giving up and
            degrading to serial.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressListener] = None,
        timeout_seconds: Optional[float] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        fallback_serial: bool = True,
        max_pool_restarts: int = 2,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
    ) -> None:
        super().__init__(
            cache=cache, progress=progress, retry=retry, checkpoint=checkpoint
        )
        if max_workers is not None and max_workers < 1:
            raise RunnerError("max_workers must be >= 1")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise RunnerError("timeout_seconds must be positive")
        if chunk_size < 1:
            raise RunnerError("chunk_size must be >= 1")
        if max_pool_restarts < 0:
            raise RunnerError("max_pool_restarts must be >= 0")
        self.max_workers = max_workers
        self.timeout_seconds = timeout_seconds
        self.chunk_size = chunk_size
        self.fallback_serial = fallback_serial
        self.max_pool_restarts = max_pool_restarts

    def _dispatch(self, jobs: Sequence[Job], stats: RunStats) -> List[JobResult]:
        results: List[JobResult] = []
        pending: List[Job] = list(jobs)
        restarts = 0
        while pending:
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            except (OSError, ValueError, NotImplementedError) as exc:
                return results + self._fallback(pending, stats, exc)
            try:
                self._pool_round(pool, pending, stats, results)
                pending = []
            except BrokenProcessPool as exc:
                # A worker died hard (OOM kill, segfault, chaos): every
                # job of this round without a result was in flight on the
                # dead pool.  Re-queue exactly those and start a fresh
                # pool; their seeded streams make the re-run identical to
                # what the dead worker would have produced.
                done = {r[0] for r in results}
                pending = [job for job in pending if job.index not in done]
                if restarts >= self.max_pool_restarts:
                    return results + self._fallback(pending, stats, exc)
                restarts += 1
                stats.pool_restarts += 1
                if self._tracer is not None:
                    self._tracer.event(
                        "pool-restart", restart=restarts, requeued=len(pending)
                    )
                if self._metrics is not None:
                    self._metrics.counter("runner.pool_restarts").inc()
        return results

    def _pool_round(
        self,
        pool: "concurrent.futures.ProcessPoolExecutor",
        jobs: Sequence[Job],
        stats: RunStats,
        results: List[JobResult],
    ) -> None:
        """Run ``jobs`` on ``pool``, appending to ``results`` as they
        finish (so a :class:`BrokenProcessPool` abort keeps everything
        completed before the crash)."""
        stats.workers = getattr(pool, "_max_workers", self.max_workers or 1)
        mode = self._obs_mode()
        pending: List[Job] = list(jobs)
        abandoned = 0
        with pool:
            in_flight: "List[Tuple[concurrent.futures.Future, Job]]" = []
            cursor = 0
            while cursor < len(pending) or in_flight:
                # A timed-out job cannot be killed (pools cannot
                # interrupt a running task), so its worker stays busy
                # until the job finishes on its own: shrink the
                # dispatch window as if the pool had lost that worker.
                window = self.chunk_size * max(stats.workers - abandoned, 1)
                while cursor < len(pending) and len(in_flight) < window:
                    job = pending[cursor]
                    cursor += 1
                    self._emit(JobEvent(JobEventKind.STARTED, job.index,
                                        job.display_name(), job.fingerprint))
                    in_flight.append(
                        (pool.submit(_execute_job, job, mode), job)
                    )
                future, job = in_flight.pop(0)
                wait_started = time.perf_counter()
                try:
                    results.append(future.result(timeout=self.timeout_seconds))
                except concurrent.futures.TimeoutError:
                    waited = time.perf_counter() - wait_started
                    future.cancel()
                    abandoned += 1
                    stats.timeouts += 1
                    results.append((
                        job.index, False,
                        f"TimeoutError: job exceeded "
                        f"{self.timeout_seconds:.1f}s "
                        f"(waited {waited:.1f}s; worker abandoned)",
                        "", waited, None,
                    ))

    def _fallback(
        self, jobs: Sequence[Job], stats: RunStats, cause: BaseException
    ) -> List[JobResult]:
        if not self.fallback_serial:
            raise RunnerError(f"process pool unavailable: {cause}") from cause
        stats.fell_back_to_serial = True
        stats.workers = 1
        mode = self._obs_mode()
        results = []
        for job in jobs:
            self._emit(JobEvent(JobEventKind.STARTED, job.index,
                                job.display_name(), job.fingerprint))
            results.append(_execute_job(job, mode))
        return results


def make_executor(
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> BaseExecutor:
    """The conventional ``--jobs N`` mapping: 1 → serial, N → pool of N."""
    if jobs < 1:
        raise RunnerError("jobs must be >= 1")
    if jobs == 1:
        return SerialExecutor(
            cache=cache, progress=progress, retry=retry, checkpoint=checkpoint
        )
    return ParallelExecutor(
        max_workers=jobs,
        cache=cache,
        progress=progress,
        retry=retry,
        checkpoint=checkpoint,
    )
