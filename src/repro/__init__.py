"""repro: a reproduction of "Underprovisioning Backup Power Infrastructure
for Datacenters" (Wang et al., ASPLOS 2014).

The library models a datacenter's backup power path — Peukert-law UPS
batteries, diesel generators with start-up/transfer delays, rack-level
placement — together with the outage-handling system techniques of the
paper (throttling, sleep, hibernation, migration, proactive and hybrid
variants) and four calibrated workload models, and evaluates the
cost / performance / availability trade-offs of underprovisioning.

Quickstart::

    from repro import (
        get_configuration, get_technique, get_workload,
        evaluate_point, minutes,
    )

    point = evaluate_point(
        configuration=get_configuration("LargeEUPS"),
        technique=get_technique("throttle+sleep-l"),
        workload=get_workload("specjbb"),
        outage_seconds=minutes(30),
    )
    print(point.normalized_cost, point.performance, point.downtime_minutes)
"""

from repro.core.configurations import (
    FIGURE5_CONFIGURATIONS,
    PAPER_CONFIGURATIONS,
    BackupConfiguration,
    get_configuration,
)
from repro.core.costs import (
    PAPER_COST_PARAMETERS,
    BackupCostModel,
    CostBreakdown,
    CostParameters,
)
from repro.core.performability import (
    PerformabilityPoint,
    evaluate_point,
    make_datacenter,
)
from repro.core.heterogeneous import (
    HeterogeneousPlan,
    HeterogeneousPlanner,
    SectionRequirement,
)
from repro.core.planner import ProvisioningPlanner, ProvisioningResult
from repro.core.predictor import AdaptivePolicy, OutageDurationPredictor
from repro.core.selection import best_technique, lowest_cost_backup, rank_techniques
from repro.core.tco import TCOModel
from repro.errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleError,
    ReproError,
    RunnerError,
    SimulationError,
    TechniqueError,
    WorkloadError,
)
from repro.fleet.failover import (
    CloudBurstTechnique,
    GeoEconomics,
    GeoFailoverTechnique,
)
from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    OUTAGE_FREQUENCY_DISTRIBUTION,
    PAPER_OUTAGE_DURATIONS_SECONDS,
)
from repro.outages.events import OutageEvent, OutageSchedule
from repro.outages.generator import OutageGenerator
from repro.power.battery import LEAD_ACID, LI_ION, Battery, BatterySpec
from repro.power.generator import DieselGenerator, DieselGeneratorSpec
from repro.power.placement import ServerLevelBatteryBank, UPSPlacement
from repro.power.ups import UPSSpec, UPSUnit
from repro.runner import (
    Job,
    ParallelExecutor,
    ResultCache,
    RunStats,
    SerialExecutor,
    make_executor,
    make_jobs,
)
from repro.servers.cluster import Cluster
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome
from repro.sim.outage_sim import OutageSimulator, simulate_outage
from repro.techniques.base import OutagePlan, OutageTechnique, TechniqueContext
from repro.techniques.registry import PAPER_TECHNIQUES, get_technique
from repro.units import hours, minutes, seconds
from repro.workloads.registry import PAPER_WORKLOADS, get_workload

__version__ = "1.0.0"

__all__ = [
    "AdaptivePolicy",
    "CloudBurstTechnique",
    "GeoEconomics",
    "GeoFailoverTechnique",
    "HeterogeneousPlan",
    "HeterogeneousPlanner",
    "SectionRequirement",
    "BackupConfiguration",
    "BackupCostModel",
    "Battery",
    "BatterySpec",
    "CapacityError",
    "Cluster",
    "ConfigurationError",
    "CostBreakdown",
    "CostParameters",
    "Datacenter",
    "DieselGenerator",
    "DieselGeneratorSpec",
    "FIGURE5_CONFIGURATIONS",
    "InfeasibleError",
    "Job",
    "LEAD_ACID",
    "LI_ION",
    "OUTAGE_DURATION_DISTRIBUTION",
    "OUTAGE_FREQUENCY_DISTRIBUTION",
    "OutageDurationPredictor",
    "OutageEvent",
    "OutageGenerator",
    "OutageOutcome",
    "OutagePlan",
    "OutageSchedule",
    "OutageSimulator",
    "OutageTechnique",
    "PAPER_CONFIGURATIONS",
    "PAPER_COST_PARAMETERS",
    "PAPER_OUTAGE_DURATIONS_SECONDS",
    "PAPER_SERVER",
    "PAPER_TECHNIQUES",
    "PAPER_WORKLOADS",
    "ParallelExecutor",
    "PerformabilityPoint",
    "ProvisioningPlanner",
    "ProvisioningResult",
    "ReproError",
    "ResultCache",
    "RunStats",
    "RunnerError",
    "SerialExecutor",
    "ServerLevelBatteryBank",
    "ServerSpec",
    "SimulationError",
    "TCOModel",
    "TechniqueContext",
    "TechniqueError",
    "UPSPlacement",
    "UPSSpec",
    "UPSUnit",
    "WorkloadError",
    "best_technique",
    "evaluate_point",
    "get_configuration",
    "get_technique",
    "get_workload",
    "hours",
    "lowest_cost_backup",
    "make_datacenter",
    "make_executor",
    "make_jobs",
    "minutes",
    "rank_techniques",
    "seconds",
    "simulate_outage",
]
