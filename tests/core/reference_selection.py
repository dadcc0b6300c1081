"""The bisecting lowest-cost UPS search, kept as an oracle.

Production sizing (:func:`repro.core.selection.lowest_cost_backup`)
compiles each plan once per UPS power fraction, answers runtime probes
from one simulated drain, and skips fractions that cannot win.  This
module keeps the loop it replaced — every fraction sized, every probe a
full :func:`~repro.core.performability.evaluate_point` — so tests can
hold the fast search to it with ``repr`` equality.  ``probes``, when
given, collects each probe as ``(power_fraction, runtime_seconds,
survived)``.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel
from repro.core.performability import DEFAULT_NUM_SERVERS, evaluate_point
from repro.core.selection import (
    _POWER_FRACTION_GRID,
    _RUNTIME_TOLERANCE,
    SizedBackup,
)
from repro.errors import InfeasibleError, TechniqueError
from repro.power.ups import DEFAULT_FREE_RUNTIME_SECONDS
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.base import OutageTechnique
from repro.workloads.base import WorkloadSpec

Probe = Tuple[float, float, bool]


def reference_lowest_cost_backup(
    technique: OutageTechnique,
    workload: WorkloadSpec,
    outage_seconds: float,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    cost_model: Optional[BackupCostModel] = None,
    power_fractions: Sequence[float] = _POWER_FRACTION_GRID,
    max_runtime_seconds: Optional[float] = None,
    probes: Optional[List[Probe]] = None,
) -> SizedBackup:
    """Cheapest DG-less UPS under which ``technique`` survives the outage."""
    model = cost_model if cost_model is not None else BackupCostModel()
    if max_runtime_seconds is None:
        # Enough headroom for save phases that stretch past the outage.
        max_runtime_seconds = 4.0 * outage_seconds + 7200.0

    best: Optional[SizedBackup] = None
    for fraction in power_fractions:
        runtime = reference_minimal_runtime(
            technique,
            workload,
            outage_seconds,
            fraction,
            num_servers,
            server,
            max_runtime_seconds,
            probes,
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


def reference_minimal_runtime(
    technique: OutageTechnique,
    workload: WorkloadSpec,
    outage_seconds: float,
    power_fraction: float,
    num_servers: int,
    server: ServerSpec,
    max_runtime_seconds: float,
    probes: Optional[List[Probe]] = None,
) -> Optional[float]:
    """Binary-search the smallest battery runtime avoiding a crash."""

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
        survived = point.feasible and not point.crashed
        if probes is not None:
            probes.append((power_fraction, runtime_seconds, survived))
        return survived

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
