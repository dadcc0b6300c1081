"""The rack-by-rack power hierarchy of Figure 2, kept only for its tests.

Utility power enters at the substation, flows through the ATS (which can
switch the feed to the diesel generators), through PDUs, and down to server
racks, each with its own UPS.  Every result prices a facility-aggregate UPS
instead (homogeneous rack sizing makes the two the same), and the DG
hand-over delay is :attr:`~repro.power.generator.DieselGeneratorSpec.transfer_complete_seconds`,
so no analysis, CLI command or benchmark builds this composition.  It lives
under ``tests/`` so ``tests/power/test_ats_psu_hierarchy.py`` and
``tests/sim/test_datacenter.py`` keep running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import CapacityError, ConfigurationError
from repro.power.generator import DieselGeneratorSpec
from repro.power.psu import PowerSupplySpec
from repro.power.ups import UPSSpec
from repro.servers.cluster import Cluster
from repro.sim.datacenter import Datacenter
from repro.units import ordered_sum
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class AutomaticTransferSwitch:
    """An ATS with a fixed utility-failure detection delay.

    Attributes:
        detection_delay_seconds: Time from utility failure until the ATS has
            committed to the secondary source and initiated DG start.
    """

    detection_delay_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.detection_delay_seconds < 0:
            raise ConfigurationError("ATS detection delay must be >= 0")

    def transfer_initiated_at(self, outage_start_seconds: float) -> float:
        """Absolute time at which DG start is initiated for an outage that
        begins at ``outage_start_seconds``."""
        return outage_start_seconds + self.detection_delay_seconds


@dataclass(frozen=True)
class RackPowerDomain:
    """One rack: its peak IT load and the UPS protecting it.

    Attributes:
        rack_id: Stable identifier within the hierarchy.
        peak_load_watts: Nameplate peak draw of the rack's servers.
        ups: The rack-level UPS spec (possibly unprovisioned).
    """

    rack_id: int
    peak_load_watts: float
    ups: UPSSpec

    def __post_init__(self) -> None:
        if self.peak_load_watts <= 0:
            raise ConfigurationError("rack peak load must be positive")

    @property
    def ups_power_fraction(self) -> float:
        """UPS power rating relative to the rack's peak (1.0 = full backup)."""
        return self.ups.power_capacity_watts / self.peak_load_watts


@dataclass(frozen=True)
class PowerHierarchy:
    """A facility-level composition: DG plant + ATS + per-rack UPS domains.

    The hierarchy enforces the invariants the paper's analysis relies on:

    * every rack's UPS power fraction is identical (homogeneous sizing), and
    * the DG plant's rating is expressed relative to the facility peak.
    """

    generator: DieselGeneratorSpec
    ats: AutomaticTransferSwitch
    racks: List[RackPowerDomain]
    psu: PowerSupplySpec = field(default_factory=PowerSupplySpec)

    def __post_init__(self) -> None:
        if not self.racks:
            raise ConfigurationError("hierarchy needs at least one rack")
        fractions = {round(rack.ups_power_fraction, 9) for rack in self.racks}
        if len(fractions) > 1:
            raise ConfigurationError(
                "heterogeneous rack UPS sizing is not supported: "
                f"found fractions {sorted(fractions)}"
            )

    # -- aggregates ---------------------------------------------------------

    @property
    def facility_peak_watts(self) -> float:
        return ordered_sum(rack.peak_load_watts for rack in self.racks)

    @property
    def total_ups_power_watts(self) -> float:
        return ordered_sum(rack.ups.power_capacity_watts for rack in self.racks)

    @property
    def total_ups_energy_joules(self) -> float:
        return ordered_sum(rack.ups.rated_energy_joules for rack in self.racks)

    @property
    def aggregate_ups(self) -> UPSSpec:
        """The facility-equivalent UPS spec (used by the cost model).

        Valid because rack sizing is homogeneous: runtimes are identical and
        power capacities sum.
        """
        reference = self.racks[0].ups
        if not reference.is_provisioned:
            return UPSSpec.none()
        return reference.with_power(self.total_ups_power_watts)

    def check_generator_covers(self, load_watts: float) -> None:
        """Raise :class:`CapacityError` if the DG cannot carry ``load_watts``."""
        if not self.generator.is_provisioned:
            raise CapacityError("no diesel generator provisioned")
        if load_watts > self.generator.power_capacity_watts * (1 + 1e-9):
            raise CapacityError(
                f"facility load {load_watts:.0f} W exceeds DG rating "
                f"{self.generator.power_capacity_watts:.0f} W"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        num_racks: int,
        rack_peak_watts: float,
        ups_per_rack: UPSSpec,
        generator: DieselGeneratorSpec,
        ats: "AutomaticTransferSwitch | None" = None,
        psu: "PowerSupplySpec | None" = None,
    ) -> "PowerHierarchy":
        """Build the paper's homogeneous facility: ``num_racks`` identical
        racks each protected by ``ups_per_rack``."""
        if num_racks <= 0:
            raise ConfigurationError("num_racks must be positive")
        racks = [
            RackPowerDomain(rack_id=i, peak_load_watts=rack_peak_watts, ups=ups_per_rack)
            for i in range(num_racks)
        ]
        return cls(
            generator=generator,
            ats=ats if ats is not None else AutomaticTransferSwitch(),
            racks=racks,
            psu=psu if psu is not None else PowerSupplySpec(),
        )


def datacenter_from_hierarchy(
    hierarchy: PowerHierarchy, cluster: Cluster, workload: WorkloadSpec
) -> Datacenter:
    """Build a datacenter from ``hierarchy``.

    The rack-level UPSes aggregate into the facility spec (homogeneous
    sizing makes that exact), and the DG plant and PSU carry over.  The
    hierarchy's facility peak must match the cluster's nameplate peak —
    they describe the same iron.
    """
    if abs(hierarchy.facility_peak_watts - cluster.peak_power_watts) > 1e-6 * max(
        1.0, cluster.peak_power_watts
    ):
        raise ConfigurationError(
            f"hierarchy peak {hierarchy.facility_peak_watts:.0f} W does not "
            f"match cluster peak {cluster.peak_power_watts:.0f} W"
        )
    return Datacenter.assemble(
        cluster=cluster,
        workload=workload,
        ups=hierarchy.aggregate_ups,
        generator=hierarchy.generator,
        psu=hierarchy.psu,
    )
