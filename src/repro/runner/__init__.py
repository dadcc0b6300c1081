"""repro.runner: parallel, cached, observable experiment execution.

Everything quantitative in the reproduction — Monte-Carlo availability
studies, the Figure 5-9 sweep grids, the ``reproduce`` driver — reduces
to "run many independent simulations and aggregate".  This package makes
that a first-class service:

* :mod:`repro.runner.jobs` — picklable :class:`Job` units with stable
  SHA-256 fingerprints and :class:`numpy.random.SeedSequence`-spawned
  per-job random streams (bit-identical results at any worker count);
* :mod:`repro.runner.executor` — :class:`SerialExecutor` and a
  process-pool :class:`ParallelExecutor` with windowed dispatch,
  per-job timeouts, and automatic serial fallback;
* :mod:`repro.runner.cache` — an on-disk :class:`ResultCache` keyed by
  job fingerprint + code version (corrupt entries are quarantined, never
  fatal);
* :mod:`repro.runner.progress` — :class:`JobEvent` callbacks and the
  :class:`RunStats` aggregate every run returns;
* :mod:`repro.runner.retry` — :class:`RetryPolicy`: bounded re-execution
  of transient failures with deterministic seeded backoff;
* :mod:`repro.runner.checkpoint` — :class:`SweepCheckpoint`: a crash-safe
  JSONL manifest of finished work enabling ``--resume``;
* :mod:`repro.runner.chaos` — :func:`run_chaos`: kills workers and
  corrupts cache entries mid-sweep, then certifies the results are
  bit-identical to an undisturbed run.  Import it from its module: it
  drives :mod:`repro.analysis`, which itself runs on this package.

Quickstart::

    from repro.runner import ResultCache, make_executor, make_jobs

    def cell(spec, seed):          # top-level, picklable
        rng = __import__("numpy").random.default_rng(seed)
        return spec["x"] ** 2 + rng.standard_normal()

    jobs = make_jobs(cell, [{"x": x} for x in range(100)], base_seed=7)
    report = make_executor(jobs=4, cache=ResultCache("/tmp/cells")).run(jobs)
    print(report.values, report.stats.summary())
"""

from repro.runner.cache import (
    CacheStats,
    PruneReport,
    ResultCache,
    default_cache_version,
)
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.executor import (
    BaseExecutor,
    JobFailure,
    ParallelExecutor,
    RunReport,
    SerialExecutor,
    make_executor,
)
from repro.runner.jobs import Job, JobFn, canonical_encode, make_jobs, spawn_seeds
from repro.runner.progress import (
    CollectingProgress,
    ConsoleProgress,
    JobEvent,
    JobEventKind,
    ProgressListener,
    RunStats,
)
from repro.runner.retry import DEFAULT_RETRYABLE_ERRORS, RetryPolicy, classify_error

__all__ = [
    "BaseExecutor",
    "CacheStats",
    "CollectingProgress",
    "ConsoleProgress",
    "DEFAULT_RETRYABLE_ERRORS",
    "Job",
    "JobEvent",
    "JobEventKind",
    "JobFailure",
    "JobFn",
    "ParallelExecutor",
    "ProgressListener",
    "PruneReport",
    "ResultCache",
    "RetryPolicy",
    "RunReport",
    "RunStats",
    "SerialExecutor",
    "SweepCheckpoint",
    "canonical_encode",
    "classify_error",
    "default_cache_version",
    "make_executor",
    "make_jobs",
    "spawn_seeds",
]
