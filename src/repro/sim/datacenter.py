"""The datacenter assembly handed to the outage simulator.

Binds together a homogeneous cluster, the workload it runs, and the physical
backup infrastructure (aggregate UPS spec and DG plant).  Named paper
configurations (Table 3) are materialised into this shape by
:mod:`repro.core.configurations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.power.generator import DieselGeneratorSpec
from repro.power.psu import PowerSupplySpec
from repro.power.ups import UPSSpec
from repro.servers.cluster import Cluster
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class Datacenter:
    """One power domain: servers + workload + backup infrastructure.

    Attributes:
        cluster: The server fleet.
        workload: The application on every server.
        ups: Facility-aggregate UPS rating.  Rack UPSes are sized alike,
            so they share one runtime and their power ratings sum.
        generator: The DG plant rating.
        psu: Server power-supply hold-up characteristics.
    """

    cluster: Cluster
    workload: WorkloadSpec
    ups: UPSSpec
    generator: DieselGeneratorSpec
    psu: PowerSupplySpec = field(default_factory=PowerSupplySpec)

    def __post_init__(self) -> None:
        if self.cluster.utilization != self.workload.utilization:
            # Keep the two sources of truth aligned; build via `assemble`.
            raise ConfigurationError(
                "cluster.utilization must equal workload.utilization "
                f"({self.cluster.utilization} != {self.workload.utilization})"
            )

    @classmethod
    def assemble(
        cls,
        cluster: Cluster,
        workload: WorkloadSpec,
        ups: UPSSpec,
        generator: DieselGeneratorSpec,
        psu: "PowerSupplySpec | None" = None,
    ) -> "Datacenter":
        """Build a datacenter, aligning cluster utilisation to the workload."""
        if cluster.utilization is not workload.utilization:
            # Equal values can still differ (1 vs 1.0, 0.0 vs -0.0): only
            # the workload's own value object makes the copy a no-op.
            cluster = replace(cluster, utilization=workload.utilization)
        return cls(
            cluster=cluster,
            workload=workload,
            ups=ups,
            generator=generator,
            psu=psu if psu is not None else PowerSupplySpec(),
        )

    @property
    def peak_power_watts(self) -> float:
        """Nameplate peak the backup is provisioned against."""
        return self.cluster.peak_power_watts

    @property
    def normal_power_watts(self) -> float:
        """Draw at the workload's normal operating point."""
        return self.cluster.power_watts(utilization=self.workload.utilization)

    @property
    def backup_power_budget_watts(self) -> float:
        """Largest load any backup source could carry — the plan budget.

        During the DG-transfer gap only the UPS can carry load, so the
        budget for plan compilation is the larger of the two ratings (a plan
        needing DG-only power simply crashes during the gap, which the
        simulator surfaces).
        """
        return max(self.ups.power_capacity_watts, self.generator.power_capacity_watts)

    @property
    def switchover_is_seamless(self) -> bool:
        """Whether the PSU hold-up bridges the UPS switch-in gap.

        Section 3: offline UPSes take ~10 ms to detect a failure, and
        "today's power supplies have inherent capacitance to power the
        server for over 30ms to ride-through this transfer delay".  A PSU
        with less hold-up than the switch delay drops the servers at the
        very start of every outage — the UPS then only powers the reboot.
        """
        if not self.ups.is_provisioned:
            return True  # nothing to switch to; the question is moot
        return self.psu.covers(self.ups.switch_delay_seconds)
