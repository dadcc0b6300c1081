"""Performability evaluation: one (configuration, technique, workload,
outage) tuple -> cost + performance + down time.

"Performability" is the paper's umbrella term for performance and
availability during (and after) an outage; this module produces the
:class:`PerformabilityPoint` every figure in Section 6 plots, by

1. materialising the configuration against the cluster's nameplate peak,
2. compiling the technique's plan against the *UPS* power rating (during
   the DG-transfer gap only the UPS can carry load, so that is the budget
   a plan must fit — Section 6.1's DG-SmallPUPS rides out the gap with a
   technique sized to the half-power UPS),
3. executing the plan in the outage simulator, and
4. pricing the configuration with the Section 3 cost model.

A technique that cannot fit the budget (no P-state deep enough, say) yields
an *infeasible* point rather than an exception, because the figures need to
show exactly where techniques fall off the map ("Throttling ... becomes
infeasible to sustain the application beyond 4 hours").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel
from repro.errors import TechniqueError
from repro.faults import FaultDraw
from repro.servers.cluster import Cluster
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import OutagePlan, OutageTechnique, TechniqueContext
from repro.workloads.base import WorkloadSpec

#: Cluster size used throughout the evaluation.  The paper notes a small
#: setup "can be used to glean nearly all the insights" of datacenter scale;
#: performability metrics are scale-free under homogeneous sizing.
DEFAULT_NUM_SERVERS = 16


@dataclass(frozen=True)
class PerformabilityPoint:
    """One evaluated operating point.

    Attributes:
        configuration_name: Table 3 configuration (or a custom name).
        technique_name: The outage-handling technique.
        workload_name: The application.
        outage_seconds: Outage duration evaluated.
        normalized_cost: Backup cap-ex relative to MaxPerf.
        feasible: The technique could compile within the power budget.
        performance: Mean normalised throughput during the outage (0 when
            infeasible).
        downtime_seconds: Total down time, during + after (inf when
            infeasible).
        outcome: Full simulator outcome (None when infeasible).
    """

    configuration_name: str
    technique_name: str
    workload_name: str
    outage_seconds: float
    normalized_cost: float
    feasible: bool
    performance: float
    downtime_seconds: float
    outcome: Optional[OutageOutcome]

    @property
    def crashed(self) -> bool:
        return self.outcome.crashed if self.outcome is not None else True

    @property
    def downtime_minutes(self) -> float:
        return self.downtime_seconds / 60.0


def make_datacenter(
    workload: WorkloadSpec,
    configuration: BackupConfiguration,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> Datacenter:
    """Materialise a configuration for a homogeneous cluster."""
    cluster = Cluster(
        spec=server, num_servers=num_servers, utilization=workload.utilization
    )
    ups, generator = configuration.materialize(cluster.peak_power_watts)
    return Datacenter.assemble(
        cluster=cluster, workload=workload, ups=ups, generator=generator
    )


def plan_power_budget_watts(datacenter: Datacenter) -> float:
    """The power ceiling plans must fit (see module docstring)."""
    if datacenter.ups.is_provisioned:
        return datacenter.ups.power_capacity_watts
    if datacenter.generator.is_provisioned:
        return datacenter.generator.power_capacity_watts
    return math.inf


def plan_context(datacenter: Datacenter) -> TechniqueContext:
    """What a technique's plan must fit on ``datacenter``: its cluster and
    workload under :func:`plan_power_budget_watts`."""
    return TechniqueContext(
        cluster=datacenter.cluster,
        workload=datacenter.workload,
        power_budget_watts=plan_power_budget_watts(datacenter),
    )


def make_plant(
    workload: WorkloadSpec,
    configuration: BackupConfiguration,
    technique: OutageTechnique,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
) -> Tuple[Datacenter, OutagePlan]:
    """A configuration's datacenter plus the technique's plan for it.

    Yearly studies keep running when a technique cannot compile for a
    configuration (its phases overdraw the backup): every outage then
    runs as the full-service crash-through instead of failing the study.
    """
    datacenter = make_datacenter(workload, configuration, num_servers, server)
    context = plan_context(datacenter)
    try:
        plan = technique.compile_plan(context)
    except TechniqueError:
        from repro.techniques.nop import FullService

        plan = FullService().compile_plan(
            replace(context, power_budget_watts=math.inf)
        )
    return datacenter, plan


def evaluate_point(
    configuration: BackupConfiguration,
    technique: OutageTechnique,
    workload: WorkloadSpec,
    outage_seconds: float,
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    cost_model: Optional[BackupCostModel] = None,
    lost_work_seconds: Optional[float] = None,
    faults: Optional["FaultDraw"] = None,
) -> PerformabilityPoint:
    """Evaluate one operating point end to end (see module docstring).

    ``faults`` optionally injects one :class:`~repro.faults.FaultDraw` of
    backup failures into the outage (what-if studies: "this point, but the
    engine dies after 20 minutes").
    """
    return evaluate_on(
        make_datacenter(workload, configuration, num_servers, server),
        configuration,
        technique,
        outage_seconds,
        cost_model=cost_model,
        lost_work_seconds=lost_work_seconds,
        faults=faults,
    )


def evaluate_on(
    datacenter: Datacenter,
    configuration: BackupConfiguration,
    technique: OutageTechnique,
    outage_seconds: float,
    cost_model: Optional[BackupCostModel] = None,
    lost_work_seconds: Optional[float] = None,
    faults: Optional["FaultDraw"] = None,
) -> PerformabilityPoint:
    """:func:`evaluate_point` on ``configuration``'s datacenter, already
    built (the searches build one per configuration and try many
    techniques or runtimes on it)."""
    workload = datacenter.workload
    cost = configuration.normalized_cost(cost_model)
    try:
        plan = technique.compile_plan(plan_context(datacenter))
    except TechniqueError:
        return PerformabilityPoint(
            configuration_name=configuration.name,
            technique_name=technique.name,
            workload_name=workload.name,
            outage_seconds=outage_seconds,
            normalized_cost=cost,
            feasible=False,
            performance=0.0,
            downtime_seconds=math.inf,
            outcome=None,
        )
    outcome = simulate_outage(
        datacenter, plan, outage_seconds, lost_work_seconds, faults=faults
    )
    return PerformabilityPoint(
        configuration_name=configuration.name,
        technique_name=technique.name,
        workload_name=workload.name,
        outage_seconds=outage_seconds,
        normalized_cost=cost,
        feasible=True,
        performance=outcome.mean_performance,
        downtime_seconds=outcome.downtime_seconds,
        outcome=outcome,
    )
