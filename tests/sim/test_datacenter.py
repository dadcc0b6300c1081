"""Datacenter assembly, and construction from the test-held rack hierarchy
(``tests/power/hierarchy.py``)."""

import pytest

from repro.errors import ConfigurationError
from repro.power.generator import DieselGeneratorSpec
from repro.power.ups import UPSSpec
from repro.servers.cluster import Cluster
from repro.servers.server import PAPER_SERVER
from repro.sim.datacenter import Datacenter
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import minutes
from repro.workloads.specjbb import specjbb
from tests.power.hierarchy import PowerHierarchy, datacenter_from_hierarchy


def cluster(num_servers=16):
    workload = specjbb()
    return Cluster(PAPER_SERVER, num_servers, utilization=workload.utilization)


class TestAssemble:
    def test_aligns_utilization(self):
        misaligned = Cluster(PAPER_SERVER, 16, utilization=0.2)
        dc = Datacenter.assemble(
            cluster=misaligned,
            workload=specjbb(),
            ups=UPSSpec(4000.0),
            generator=DieselGeneratorSpec.none(),
        )
        assert dc.cluster.utilization == specjbb().utilization

    def test_misaligned_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            Datacenter(
                cluster=Cluster(PAPER_SERVER, 16, utilization=0.2),
                workload=specjbb(),
                ups=UPSSpec(4000.0),
                generator=DieselGeneratorSpec.none(),
            )

    def test_backup_budget_is_larger_rating(self):
        dc = Datacenter.assemble(
            cluster=cluster(),
            workload=specjbb(),
            ups=UPSSpec(1000.0),
            generator=DieselGeneratorSpec(3000.0),
        )
        assert dc.backup_power_budget_watts == 3000.0


class TestFromHierarchy:
    def _hierarchy(self, num_racks=4, servers_per_rack=4, ups_fraction=1.0):
        rack_peak = servers_per_rack * PAPER_SERVER.peak_power_watts
        return PowerHierarchy.homogeneous(
            num_racks=num_racks,
            rack_peak_watts=rack_peak,
            ups_per_rack=UPSSpec(ups_fraction * rack_peak, minutes(30)),
            generator=DieselGeneratorSpec.none(),
        )

    def test_aggregates_rack_upses(self):
        hierarchy = self._hierarchy()
        dc = datacenter_from_hierarchy(hierarchy, cluster(16), specjbb())
        assert dc.ups.power_capacity_watts == pytest.approx(16 * 250.0)
        assert dc.ups.rated_runtime_seconds == minutes(30)
        assert dc.psu is hierarchy.psu

    def test_mismatched_peak_rejected(self):
        hierarchy = self._hierarchy(num_racks=2)  # 8 servers' worth
        with pytest.raises(ConfigurationError):
            datacenter_from_hierarchy(hierarchy, cluster(16), specjbb())

    def test_hierarchy_built_datacenter_simulates(self):
        hierarchy = self._hierarchy()
        dc = datacenter_from_hierarchy(hierarchy, cluster(16), specjbb())
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=specjbb(),
            power_budget_watts=dc.ups.power_capacity_watts,
        )
        plan = get_technique("full-service").plan(context)
        outcome = simulate_outage(dc, plan, minutes(20))
        assert not outcome.crashed  # 30-minute rack batteries carry it
