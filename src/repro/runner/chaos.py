"""Chaos harness: certify the runner's self-healing end to end.

Unit tests exercise retry, checkpointing and pool recovery one at a time;
this module turns them all on at once and *breaks things on purpose* while
a real fault-injected availability sweep runs:

* **worker kills** — the first ``kills`` year-cells hard-exit their pool
  worker (``os._exit``) the first time they run, forcing a
  :class:`BrokenProcessPool` and a pool restart with re-queued jobs;
* **flaky failures** — the next ``flaky`` cells raise a transient
  ``OSError`` once, exercising the :class:`~repro.runner.retry.RetryPolicy`;
* **cache corruption** — a progress listener overwrites the first
  ``corrupt`` finished cache entries with garbage, so the follow-up resume
  pass must quarantine and recompute them.

The certificate is bit-identical results along three independent paths:
a serial fault-free-harness baseline, the chaos run, and a checkpoint
resume of the chaos run.  Jobs carry their own seeded streams, so every
recovery mechanism — re-queue, retry, recompute — must reproduce exactly
what an undisturbed worker would have produced; any divergence fails the
report.

Chaos cells never kill the *coordinating* process: a sandbox without
working process pools degrades the executor to in-process execution, and
an unguarded ``os._exit`` there would take down the harness itself.  Each
kill is also one-shot (marker file), so re-queued cells complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.analysis.availability import _simulate_year
from repro.core.configurations import BackupConfiguration
from repro.core.performability import DEFAULT_NUM_SERVERS, make_plant
from repro.errors import RunnerError
from repro.faults import FaultPlan
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.executor import ParallelExecutor, SerialExecutor
from repro.runner.jobs import make_jobs
from repro.runner.progress import JobEvent, JobEventKind, ProgressListener, RunStats
from repro.runner.retry import RetryPolicy
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.base import OutageTechnique
from repro.workloads.base import WorkloadSpec


def _chaos_cell(spec, seed):
    """One availability year-cell wrapped in scheduled sabotage.

    ``kill_marker``/``flaky_marker`` make each disruption one-shot: the
    first execution leaves the marker and dies, every later one computes
    normally.  The kill additionally refuses to fire in the coordinating
    process (see module docstring).
    """
    kill_marker = spec.get("kill_marker")
    if kill_marker:
        path = Path(kill_marker)
        if not path.exists() and os.getpid() != spec["coordinator_pid"]:
            path.write_text("killed")
            os._exit(17)
    flaky_marker = spec.get("flaky_marker")
    if flaky_marker:
        path = Path(flaky_marker)
        if not path.exists():
            path.write_text("failed once")
            raise OSError("chaos: injected transient worker failure")
    return _simulate_year(spec["year"], seed)


class _CacheCorruptor(ProgressListener):
    """Overwrites the first ``limit`` finished cache entries with garbage
    *while the sweep runs* — the resume pass must then quarantine them."""

    def __init__(self, cache: ResultCache, limit: int) -> None:
        self.cache = cache
        self.limit = limit
        self.corrupted = 0

    def on_event(self, event: JobEvent) -> None:
        if event.kind is not JobEventKind.FINISHED or self.corrupted >= self.limit:
            return
        path = self.cache.entry_path(event.fingerprint)
        if path.exists():
            path.write_bytes(b"\x00chaos: deliberately corrupted entry")
            self.corrupted += 1


@dataclass(frozen=True)
class ChaosReport:
    """What the chaos run did and whether every recovery path held.

    Attributes:
        years: Year-cells in the sweep.
        kills: Worker kills planned (one-shot each).
        flaky: Transient failures planned (one-shot each).
        corrupted: Cache entries deliberately corrupted mid-run.
        chaos_stats: Telemetry of the disrupted parallel run.
        resume_stats: Telemetry of the checkpoint-resume pass.
        chaos_matches: Disrupted run produced the baseline values.
        resume_matches: Resume pass produced the baseline values.
    """

    years: int
    kills: int
    flaky: int
    corrupted: int
    chaos_stats: RunStats
    resume_stats: RunStats
    chaos_matches: bool
    resume_matches: bool

    @property
    def ok(self) -> bool:
        return self.chaos_matches and self.resume_matches

    def summary(self) -> str:
        lines = [
            f"chaos sweep: {self.years} years, {self.kills} worker kills, "
            f"{self.flaky} transient failures, {self.corrupted} cache "
            f"entries corrupted",
            f"  chaos run:  {self.chaos_stats.summary()}",
            f"  resume run: {self.resume_stats.summary()}",
            f"  chaos == baseline:  {'yes' if self.chaos_matches else 'NO'}",
            f"  resume == baseline: {'yes' if self.resume_matches else 'NO'}",
        ]
        return "\n".join(lines)


def run_chaos(
    workload: WorkloadSpec,
    configuration: BackupConfiguration,
    technique: OutageTechnique,
    years: int = 8,
    jobs: int = 2,
    kills: int = 1,
    flaky: int = 1,
    corrupt: int = 1,
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
    workdir: Optional[os.PathLike] = None,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> ChaosReport:
    """Run the three-pass chaos certification (module docstring).

    Args:
        workload / configuration / technique: The pairing under study.
        years: Monte-Carlo sample size (also the job count).
        jobs: Worker processes for the disrupted run.
        kills / flaky / corrupt: Disruption budget; ``kills + flaky``
            must not exceed ``years``.
        faults: Optional domain fault plan injected into every year —
            chaos in the simulated world on top of chaos in the harness.
        seed: Root seed shared by all three passes.
        workdir: Scratch directory for cache/checkpoint/markers; a
            temporary directory (cleaned up) when None.
    """
    if years <= 0:
        raise RunnerError("years must be positive")
    if kills < 0 or flaky < 0 or corrupt < 0:
        raise RunnerError("disruption counts must be >= 0")
    if kills + flaky > years:
        raise RunnerError(
            f"kills + flaky ({kills + flaky}) cannot exceed years ({years})"
        )
    if workdir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos(
                workload, configuration, technique,
                years=years, jobs=jobs, kills=kills, flaky=flaky,
                corrupt=corrupt, faults=faults, seed=seed, workdir=tmp,
                num_servers=num_servers, server=server,
            )

    datacenter, plan = make_plant(
        workload, configuration, technique, num_servers, server
    )
    year_spec = {
        "datacenter": datacenter,
        "plan": plan,
        "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
    }
    if faults is not None and not faults.is_null:
        year_spec["fault_plan"] = faults
    labels = [f"year={i}" for i in range(years)]

    # Pass 1 — ground truth: serial, no cache, no harness faults.
    baseline = SerialExecutor().run(
        make_jobs(_simulate_year, [year_spec] * years, base_seed=seed,
                  labels=labels)
    )

    # Pass 2 — the disrupted parallel sweep.
    root = Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(root / "cache", version="chaos")
    specs: List[dict] = []
    for i in range(years):
        cell = {"year": year_spec, "coordinator_pid": os.getpid()}
        if i < kills:
            cell["kill_marker"] = str(root / f"kill-{i}")
        elif i < kills + flaky:
            cell["flaky_marker"] = str(root / f"flaky-{i}")
        specs.append(cell)
    corruptor = _CacheCorruptor(cache, limit=corrupt)
    checkpoint_path = root / "checkpoint.jsonl"
    with SweepCheckpoint(checkpoint_path) as checkpoint:
        executor = ParallelExecutor(
            max_workers=jobs,
            cache=cache,
            progress=corruptor,
            retry=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.01, seed=seed
            ),
            checkpoint=checkpoint,
        )
        chaos_run = executor.run(
            make_jobs(_chaos_cell, specs, base_seed=seed, labels=labels)
        )

    # Pass 3 — resume from the checkpoint: recorded cells come from the
    # cache (corrupted ones are quarantined and recomputed), stragglers
    # re-run; every marker is spent, so cells compute cleanly.
    with SweepCheckpoint(checkpoint_path, resume=True) as resumed:
        resume_exec = SerialExecutor(cache=cache, checkpoint=resumed)
        resume_run = resume_exec.run(
            make_jobs(_chaos_cell, specs, base_seed=seed, labels=labels)
        )

    return ChaosReport(
        years=years,
        kills=kills,
        flaky=flaky,
        corrupted=corruptor.corrupted,
        chaos_stats=chaos_run.stats,
        resume_stats=resume_run.stats,
        chaos_matches=list(chaos_run.values) == list(baseline.values),
        resume_matches=list(resume_run.values) == list(baseline.values),
    )
