"""The Section 6 selection rules.

Two searches recur throughout the evaluation:

* **best technique for a configuration** (Figure 5): "for each backup
  configuration, we choose the system technique that offers the highest
  performance and lowest down time" — we rank candidates by (down time,
  then -performance) and return the winner's point;
* **lowest-cost backup for a technique** (Figures 6-9): "for each system
  technique, we use the lowest cost backup configuration ... at each of the
  offered performance and availability operating points" — a DG-less search
  over UPS power fractions and battery runtimes for the cheapest
  installation under which the technique rides out the outage without a
  crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel
from repro.core.performability import (
    DEFAULT_NUM_SERVERS,
    PerformabilityPoint,
    evaluate_point,
)
from repro.errors import InfeasibleError, TechniqueError
from repro.power.ups import DEFAULT_FREE_RUNTIME_SECONDS
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.base import OutageTechnique
from repro.techniques.registry import PAPER_TECHNIQUES, get_technique
from repro.workloads.base import WorkloadSpec

#: Candidate set for best-technique selection: the paper's techniques plus
#: the do-nothing endpoint and the deepest-throttle variant (the auto
#: variant picks the *fastest* fitting P-state; the deepest one trades
#: performance for runtime, which wins on long outages).
DEFAULT_CANDIDATES: Tuple[str, ...] = ("full-service",) + PAPER_TECHNIQUES + (
    "throttling-p6",
)

#: UPS power fractions explored by the lowest-cost search.
_POWER_FRACTION_GRID = tuple(i / 20.0 for i in range(1, 21))  # 0.05 .. 1.00

#: Resolution of the battery-runtime binary search (seconds).
_RUNTIME_TOLERANCE = 5.0


def best_technique(
    configuration: BackupConfiguration,
    workload: WorkloadSpec,
    outage_seconds: float,
    candidates: Optional[Iterable[str]] = None,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> PerformabilityPoint:
    """The winning technique's point for a configuration (Figure 5 rule)."""
    names = list(candidates) if candidates is not None else list(DEFAULT_CANDIDATES)
    points = [
        evaluate_point(
            configuration,
            get_technique(name),
            workload,
            outage_seconds,
            num_servers=num_servers,
            server=server,
        )
        for name in names
    ]
    feasible = [p for p in points if p.feasible]
    pool = feasible if feasible else points
    return min(pool, key=lambda p: (round(p.downtime_seconds, 3), -p.performance))


@dataclass(frozen=True)
class SizedBackup:
    """Result of the lowest-cost UPS search for one technique.

    Attributes:
        configuration: The winning DG-less configuration.
        point: The technique's performability at that configuration.
        normalized_cost: Cost relative to MaxPerf.
    """

    configuration: BackupConfiguration
    point: PerformabilityPoint
    normalized_cost: float


def lowest_cost_backup(
    technique: OutageTechnique,
    workload: WorkloadSpec,
    outage_seconds: float,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    cost_model: Optional[BackupCostModel] = None,
    power_fractions: Sequence[float] = _POWER_FRACTION_GRID,
    max_runtime_seconds: Optional[float] = None,
) -> SizedBackup:
    """Cheapest DG-less UPS under which ``technique`` survives the outage.

    "Survives" means the plan compiles within the UPS power rating and the
    simulation completes without a crash (state is either sustained or
    safely parked).  Raises :class:`InfeasibleError` when no grid point
    works — e.g. Throttling against a multi-hour outage.
    """
    model = cost_model if cost_model is not None else BackupCostModel()
    if max_runtime_seconds is None:
        # Enough headroom for save phases that stretch past the outage.
        max_runtime_seconds = 4.0 * outage_seconds + 7200.0

    best: Optional[SizedBackup] = None
    for fraction in power_fractions:
        runtime = _minimal_runtime(
            technique,
            workload,
            outage_seconds,
            fraction,
            num_servers,
            server,
            max_runtime_seconds,
        )
        if runtime is None:
            continue
        config = BackupConfiguration(
            name=f"ups-{fraction:.2f}p-{runtime / 60:.0f}min",
            dg_power_fraction=0.0,
            ups_power_fraction=fraction,
            ups_runtime_seconds=runtime,
        )
        point = evaluate_point(
            config,
            technique,
            workload,
            outage_seconds,
            num_servers=num_servers,
            server=server,
            cost_model=model,
        )
        if not point.feasible or point.crashed:
            continue
        cost = config.normalized_cost(model)
        if best is None or cost < best.normalized_cost:
            best = SizedBackup(
                configuration=config, point=point, normalized_cost=cost
            )
    if best is None:
        raise InfeasibleError(
            f"{technique.name} cannot survive a {outage_seconds / 60:.0f} min "
            "outage on any UPS-only backup in the search grid"
        )
    return best


def _minimal_runtime(
    technique: OutageTechnique,
    workload: WorkloadSpec,
    outage_seconds: float,
    power_fraction: float,
    num_servers: int,
    server: ServerSpec,
    max_runtime_seconds: float,
) -> Optional[float]:
    """Binary-search the smallest battery runtime avoiding a crash.

    Feasibility is monotone in runtime (more energy at every load level),
    so a standard bisection applies once any feasible upper bound exists.
    """

    def survives(runtime_seconds: float) -> bool:
        config = BackupConfiguration(
            name="probe",
            dg_power_fraction=0.0,
            ups_power_fraction=power_fraction,
            ups_runtime_seconds=runtime_seconds,
        )
        try:
            point = evaluate_point(
                config,
                technique,
                workload,
                outage_seconds,
                num_servers=num_servers,
                server=server,
            )
        except TechniqueError:  # pragma: no cover - evaluate_point absorbs
            return False
        return point.feasible and not point.crashed

    low = DEFAULT_FREE_RUNTIME_SECONDS
    if survives(low):
        return low
    high = max(low * 2, 600.0)
    while high <= max_runtime_seconds and not survives(high):
        high *= 2.0
    if high > max_runtime_seconds:
        if not survives(max_runtime_seconds):
            return None
        high = max_runtime_seconds
    lo, hi = low, high
    while hi - lo > _RUNTIME_TOLERANCE:
        mid = (lo + hi) / 2.0
        if survives(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rank_job(spec, seed) -> Optional["SizedBackup"]:
    """Runner job: one technique's lowest-cost sizing (None if infeasible)."""
    try:
        return lowest_cost_backup(
            get_technique(spec["technique"]),
            spec["workload"],
            spec["outage_seconds"],
            num_servers=spec["num_servers"],
            server=spec["server"],
        )
    except InfeasibleError:
        return None


def rank_jobs(
    workload: WorkloadSpec,
    outage_seconds: float,
    technique_names: Iterable[str] = PAPER_TECHNIQUES,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> List["Job"]:
    """The ranking's runner job list — one sizing search per technique.

    Deterministic (no seeds), so the fingerprints key an on-disk cache
    across CLI runs and the evaluation service alike.  Reduce the values
    with :func:`reduce_rank`.
    """
    names = list(technique_names)
    specs = [
        {
            "technique": name,
            "workload": workload,
            "outage_seconds": outage_seconds,
            "num_servers": num_servers,
            "server": server,
        }
        for name in names
    ]
    from repro.runner.jobs import make_jobs

    return make_jobs(_rank_job, specs, labels=names)


def reduce_rank(values: Iterable[Optional[SizedBackup]]) -> List[SizedBackup]:
    """Fold :func:`rank_jobs` values: drop infeasibles, sort cheapest-first."""
    results = [sized for sized in values if sized is not None]
    results.sort(key=lambda sized: sized.normalized_cost)
    return results


def rank_techniques(
    workload: WorkloadSpec,
    outage_seconds: float,
    technique_names: Iterable[str] = PAPER_TECHNIQUES,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    executor: Optional["BaseExecutor"] = None,
) -> List[SizedBackup]:
    """Every technique's lowest-cost sizing, sorted cheapest-first; the
    Figure 6-9 bar-chart generator.  Infeasible techniques are omitted.

    Args:
        executor: Optional :class:`repro.runner.BaseExecutor` — the
            per-technique sizing searches run as independent jobs on it
            (parallel and/or cached); ``None`` keeps the in-process loop.
    """
    if executor is None:
        from repro.runner.executor import SerialExecutor

        executor = SerialExecutor()
    report = executor.run(
        rank_jobs(
            workload,
            outage_seconds,
            technique_names=technique_names,
            num_servers=num_servers,
            server=server,
        )
    )
    return reduce_rank(report.values)
