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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel
from repro.core.performability import (
    DEFAULT_NUM_SERVERS,
    PerformabilityPoint,
    evaluate_on,
    make_datacenter,
    plan_context,
)
from repro.errors import InfeasibleError, TechniqueError
from repro.obs import MetricsRegistry, current_metrics
from repro.power.ups import DEFAULT_FREE_RUNTIME_SECONDS
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.sim.datacenter import Datacenter
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import OutagePlan, OutageTechnique
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

#: Probes within this relative distance of a solved runtime threshold are
#: simulated rather than answered by comparison, so float noise in the
#: solved threshold cannot flip a verdict.
_THRESHOLD_GUARD = 1e-6


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
    datacenter = make_datacenter(workload, configuration, num_servers, server)
    points = [
        evaluate_on(datacenter, configuration, get_technique(name), outage_seconds)
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

    A fraction whose cost at the shortest runtime the search can return
    does not beat the cheapest sizing so far is skipped unsized: cost is
    non-decreasing in runtime, so it could not win.  With an ambient
    metrics registry the search counts ``selection.probes_simulated``,
    ``selection.probes_solved`` and ``selection.fractions_pruned``.
    """
    model = cost_model if cost_model is not None else BackupCostModel()
    if max_runtime_seconds is None:
        # Enough headroom for save phases that stretch past the outage.
        max_runtime_seconds = 4.0 * outage_seconds + 7200.0
    metrics = current_metrics()
    # _minimal_runtime never returns less (see _search_runtime).
    shortest = max(0.0, min(DEFAULT_FREE_RUNTIME_SECONDS, max_runtime_seconds))
    base = _search_base(workload, num_servers, server)

    best: Optional[SizedBackup] = None
    for fraction in power_fractions:
        if best is not None:
            floor = _ups_only("floor", fraction, shortest).normalized_cost(model)
            if floor >= best.normalized_cost:
                if metrics is not None:
                    metrics.counter("selection.fractions_pruned").inc()
                continue
        runtime = _minimal_runtime(
            technique, base, outage_seconds, fraction, max_runtime_seconds, metrics
        )
        if runtime is None:
            continue
        config = _ups_only(
            f"ups-{fraction:.2f}p-{runtime / 60:.0f}min", fraction, runtime
        )
        cost = config.normalized_cost(model)
        if best is not None and not cost < best.normalized_cost:
            continue
        point = evaluate_on(
            _refit(base, config), config, technique, outage_seconds, cost_model=model
        )
        if not point.feasible or point.crashed:
            continue
        best = SizedBackup(configuration=config, point=point, normalized_cost=cost)
    if best is None:
        raise InfeasibleError(
            f"{technique.name} cannot survive a {outage_seconds / 60:.0f} min "
            "outage on any UPS-only backup in the search grid"
        )
    return best


def _ups_only(
    name: str, power_fraction: float, runtime_seconds: float
) -> BackupConfiguration:
    return BackupConfiguration(
        name=name,
        dg_power_fraction=0.0,
        ups_power_fraction=power_fraction,
        ups_runtime_seconds=runtime_seconds,
    )


def _search_base(
    workload: WorkloadSpec, num_servers: int, server: ServerSpec
) -> Datacenter:
    """The datacenter a search refits for every probe: each probe has
    this cluster and workload, and only its UPS differs."""
    return make_datacenter(
        workload,
        _ups_only("base", 1.0, DEFAULT_FREE_RUNTIME_SECONDS),
        num_servers,
        server,
    )


def _refit(base: Datacenter, config: BackupConfiguration) -> Datacenter:
    """What :func:`make_datacenter` builds for the DG-less ``config`` on
    ``base``'s workload and cluster: ``base`` with ``config``'s UPS."""
    return Datacenter(
        cluster=base.cluster,
        workload=base.workload,
        ups=config.ups_spec(base.peak_power_watts),
        generator=base.generator,
        psu=base.psu,
    )


def _compile_fraction(
    technique: OutageTechnique,
    workload: WorkloadSpec,
    power_fraction: float,
    num_servers: int,
    server: ServerSpec,
    runtime_seconds: float,
    base: Optional[Datacenter] = None,
) -> Tuple[Datacenter, Optional[OutagePlan]]:
    """The datacenter at one battery runtime, and the technique's plan
    for it (None when the plan overdraws the UPS rating).

    The plan depends on the UPS *power* rating only, so it is the plan
    for every runtime at this fraction.  A search passes its
    :func:`_search_base` as ``base``; without one it is built here.
    """
    if base is None:
        base = _search_base(workload, num_servers, server)
    datacenter = _refit(base, _ups_only("probe", power_fraction, runtime_seconds))
    try:
        return datacenter, technique.compile_plan(plan_context(datacenter))
    except TechniqueError:
        return datacenter, None


def _drain_threshold(
    datacenter: Datacenter,
    plan: OutagePlan,
    outage_seconds: float,
    runtime_seconds: float,
) -> Optional[float]:
    """The rated runtime R* a plan with no adaptive phase needs, solved
    from one outage on ``datacenter`` (rated ``runtime_seconds``).

    A fixed phase timeline drains ``duration / runtime_at(P)`` per
    segment, and ``runtime_at`` is proportional to the rated runtime, so
    the charge the whole outage uses is ``R* / rated``; the plan survives
    exactly the runtimes ``>= R*``.  None when the run crashes, so no
    shorter runtime survives either.
    """
    outcome = simulate_outage(datacenter, plan, outage_seconds)
    if outcome.crashed:
        return None
    return (1.0 - outcome.ups_state_of_charge_end) * runtime_seconds


def _minimal_runtime(
    technique: OutageTechnique,
    base: Datacenter,
    outage_seconds: float,
    power_fraction: float,
    max_runtime_seconds: float,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[float]:
    """The smallest battery runtime avoiding a crash, to 5 s (None when
    no runtime up to ``max_runtime_seconds`` survives).

    Feasibility is monotone in runtime (more energy at every load
    level), so :func:`_search_runtime` bisects it.  The plan is compiled
    once; a plan that overdraws the UPS rating fails every probe.  For a
    plan with no adaptive phase each probe is answered by ``runtime >=
    R*`` (:func:`_drain_threshold`), and simulated only when it lies
    within ``_THRESHOLD_GUARD`` (relative) of R*, so the search returns
    the runtime that simulating every probe would.  A hybrid's adaptive
    phase stretches with the battery, so its probes are all simulated.
    """
    widest = max(max_runtime_seconds, DEFAULT_FREE_RUNTIME_SECONDS)
    reference, plan = _compile_fraction(
        technique,
        base.workload,
        power_fraction,
        base.cluster.num_servers,
        base.cluster.spec,
        widest,
        base=base,
    )
    if plan is None:
        return None

    def simulated(runtime_seconds: float) -> bool:
        if metrics is not None:
            metrics.counter("selection.probes_simulated").inc()
        datacenter = _refit(
            base, _ups_only("probe", power_fraction, runtime_seconds)
        )
        return not simulate_outage(datacenter, plan, outage_seconds).crashed

    if any(phase.is_adaptive for phase in plan.phases):
        return _search_runtime(simulated, max_runtime_seconds)

    if metrics is not None:
        metrics.counter("selection.probes_simulated").inc()
    threshold = _drain_threshold(reference, plan, outage_seconds, widest)
    if threshold is None:
        return None

    def solved(runtime_seconds: float) -> bool:
        # Non-positive runtimes (only from a non-positive
        # max_runtime_seconds) are simulated, errors and all.
        if (
            runtime_seconds <= 0
            or abs(runtime_seconds - threshold) <= _THRESHOLD_GUARD * threshold
        ):
            return simulated(runtime_seconds)
        if metrics is not None:
            metrics.counter("selection.probes_solved").inc()
        return runtime_seconds >= threshold

    return _search_runtime(solved, max_runtime_seconds)


def _search_runtime(
    survives: Callable[[float], bool], max_runtime_seconds: float
) -> Optional[float]:
    """Bisect the smallest surviving runtime: the free runtime (capped
    at ``max_runtime_seconds``) if it survives, else double from 10 min
    to a surviving bound (or ``max_runtime_seconds``), then halve the
    gap to 5 s.  A cap below the free runtime is the only probe."""
    low = min(DEFAULT_FREE_RUNTIME_SECONDS, max_runtime_seconds)
    if survives(low):
        return low
    if low < DEFAULT_FREE_RUNTIME_SECONDS:
        return None
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
