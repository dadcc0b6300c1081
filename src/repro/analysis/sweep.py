"""Sweep harness: the data generator behind Figures 5-9.

Two sweeps cover the evaluation:

* :func:`sweep_configurations` — fixed workload, sweep configurations x
  outage durations with best-technique selection (Figure 5);
* :func:`sweep_techniques` — fixed workload, sweep techniques x outage
  durations, each at its lowest-cost UPS sizing (Figures 6-9).

Every (row x duration) cell is an independent, deterministic
:class:`repro.runner.Job`, so both sweeps accept the runner's knobs:
``jobs=N`` fans the grid out over worker processes, ``cache=`` memoises
cells across runs (repeated benchmark invocations skip already-computed
cells), and results always come back in grid order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configurations import BackupConfiguration, get_configuration
from repro.core.performability import DEFAULT_NUM_SERVERS, PerformabilityPoint
from repro.core.selection import best_technique, lowest_cost_backup
from repro.errors import InfeasibleError
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, make_jobs
from repro.runner.progress import ProgressListener
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.registry import get_technique
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell.

    Attributes:
        row_key: Configuration or technique name (figure series).
        outage_seconds: Outage duration (figure x-position).
        point: The evaluated operating point (None when infeasible).
        normalized_cost: Backup cost for the cell (the configuration's for
            configuration sweeps; the sized UPS's for technique sweeps).
    """

    row_key: str
    outage_seconds: float
    point: Optional[PerformabilityPoint]
    normalized_cost: float

    @property
    def feasible(self) -> bool:
        return self.point is not None and self.point.feasible

    @property
    def performance(self) -> float:
        return self.point.performance if self.point is not None else 0.0

    @property
    def downtime_minutes(self) -> float:
        return self.point.downtime_minutes if self.point is not None else float("inf")


# -- runner job callables (top-level: process pools pickle by name) -----------


def _configuration_cell(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> SweepResult:
    """One Figure 5 cell: best technique for a configuration x duration."""
    config: BackupConfiguration = spec["configuration"]
    point = best_technique(
        config,
        spec["workload"],
        spec["outage_seconds"],
        num_servers=spec["num_servers"],
        server=spec["server"],
    )
    return SweepResult(
        row_key=config.name,
        outage_seconds=spec["outage_seconds"],
        point=point,
        normalized_cost=config.normalized_cost(),
    )


def _technique_cell(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> SweepResult:
    """One Figures 6-9 cell: lowest-cost sizing for a technique x duration.

    Infeasible cells (the technique cannot survive the duration on any
    UPS in the grid) are data, not errors: ``point=None``, infinite cost.
    """
    name: str = spec["technique"]
    try:
        sized = lowest_cost_backup(
            get_technique(name),
            spec["workload"],
            spec["outage_seconds"],
            num_servers=spec["num_servers"],
            server=spec["server"],
        )
    except InfeasibleError:
        return SweepResult(
            row_key=name,
            outage_seconds=spec["outage_seconds"],
            point=None,
            normalized_cost=float("inf"),
        )
    return SweepResult(
        row_key=name,
        outage_seconds=spec["outage_seconds"],
        point=sized.point,
        normalized_cost=sized.normalized_cost,
    )


def technique_sweep_jobs(
    workload: WorkloadSpec,
    technique_names: Iterable[str],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> List[Job]:
    """The Figures 6-9 grid as a bare runner job list (grid order).

    For callers that own the executor loop — the evaluation service
    merges sweep grids from many requests into one submission.  Values
    come back as :class:`SweepResult` cells in grid order; no reduction
    is needed beyond collecting them.
    """
    specs: List[Mapping[str, Any]] = []
    labels: List[str] = []
    for name in technique_names:
        for duration in outage_durations_seconds:
            specs.append(
                {
                    "technique": name,
                    "workload": workload,
                    "outage_seconds": duration,
                    "num_servers": num_servers,
                    "server": server,
                }
            )
            labels.append(f"{name}@{duration:g}s")
    return make_jobs(_technique_cell, specs, labels=labels)


def configuration_sweep_jobs(
    workload: WorkloadSpec,
    configurations: Sequence[BackupConfiguration],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> List[Job]:
    """The Figure 5 grid as a bare runner job list (grid order)."""
    specs: List[Mapping[str, Any]] = []
    labels: List[str] = []
    for config in configurations:
        for duration in outage_durations_seconds:
            specs.append(
                {
                    "configuration": config,
                    "workload": workload,
                    "outage_seconds": duration,
                    "num_servers": num_servers,
                    "server": server,
                }
            )
            labels.append(f"{config.name}@{duration:g}s")
    return make_jobs(_configuration_cell, specs, labels=labels)


def sweep_configurations(
    workload: WorkloadSpec,
    configuration_names: Iterable[str],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    jobs: int = 1,
    executor: Optional[BaseExecutor] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
) -> List[SweepResult]:
    """Figure 5 sweep: best technique per configuration per duration."""
    return custom_configuration_sweep(
        workload,
        [get_configuration(name) for name in configuration_names],
        outage_durations_seconds,
        num_servers=num_servers,
        server=server,
        jobs=jobs,
        executor=executor,
        cache=cache,
        progress=progress,
    )


def sweep_techniques(
    workload: WorkloadSpec,
    technique_names: Iterable[str],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    jobs: int = 1,
    executor: Optional[BaseExecutor] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
) -> List[SweepResult]:
    """Figures 6-9 sweep: lowest-cost sizing per technique per duration.

    Infeasible cells (technique cannot survive the outage on any UPS in
    the grid) appear with ``point=None`` and infinite cost, so the figure
    renderer can mark them, as the paper's text does for Throttling past
    4 hours.
    """
    job_list = technique_sweep_jobs(
        workload,
        technique_names,
        outage_durations_seconds,
        num_servers=num_servers,
        server=server,
    )
    if executor is None:
        executor = make_executor(jobs=jobs, cache=cache, progress=progress)
    return list(executor.run(job_list).values)


def index_results(
    results: Iterable[SweepResult],
) -> Dict[Tuple[str, float], SweepResult]:
    """(row_key, outage_seconds) -> cell, for figure assembly."""
    return {(r.row_key, r.outage_seconds): r for r in results}


def custom_configuration_sweep(
    workload: WorkloadSpec,
    configurations: Sequence[BackupConfiguration],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    jobs: int = 1,
    executor: Optional[BaseExecutor] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
) -> List[SweepResult]:
    """Like :func:`sweep_configurations` for ad-hoc configuration objects."""
    job_list = configuration_sweep_jobs(
        workload,
        configurations,
        outage_durations_seconds,
        num_servers=num_servers,
        server=server,
    )
    if executor is None:
        executor = make_executor(jobs=jobs, cache=cache, progress=progress)
    return list(executor.run(job_list).values)
