"""Geo-failover on fleet types: sites, fail_over, technique, and economics."""

import math

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import evaluate_point
from repro.errors import ConfigurationError, TechniqueError
from repro.fleet.contingency import fail_over
from repro.fleet.failover import (
    CloudBurstTechnique,
    GeoEconomics,
    GeoFailoverTechnique,
    required_spare_fraction,
)
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.memcached import memcached
from repro.workloads.specjbb import specjbb
from repro.workloads.websearch import websearch


def site(name, capacity, load, region=None, rtt=0.05):
    return SiteSpec(
        name=name,
        capacity=capacity,
        load=load,
        power_region=region or name,
        rtt_seconds=rtt,
    )


def make_fleet(*sites):
    return FleetSpec(name="test", sites=sites)


def three_site_fleet(load=70.0, capacity=100.0):
    return make_fleet(
        site("west", capacity, load, rtt=0.05),
        site("east", capacity, load, rtt=0.12),
        site("eu", capacity, load, rtt=0.15),
    )


class TestSite:
    def test_spare_capacity(self):
        assert site("a", 100, 60).spare_capacity == 40

    def test_with_spare_fraction(self):
        assert site("a", 100, 60).with_spare_fraction(0.5).load == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            site("a", 0, 0)
        with pytest.raises(ConfigurationError):
            site("a", 100, 150)
        with pytest.raises(ConfigurationError):
            site("a", 100, 50).with_spare_fraction(1.5)


class TestReplicationModel:
    def test_survivors_exclude_same_power_region(self):
        fleet = make_fleet(
            site("a1", 100, 50, region="a"),
            site("a2", 100, 50, region="a"),
            site("b", 100, 50, region="b"),
        )
        assert list(fail_over(fleet, "a1").per_site_absorption) == ["b"]

    def test_full_absorption_at_high_spare(self):
        fleet = three_site_fleet(load=40.0)
        assert fail_over(fleet, "west").absorbed_load == pytest.approx(40.0)
        # Latency penalty still applies even with full absorption.
        assert 0.8 < GeoFailoverTechnique(fleet, "west").performance < 1.0

    def test_overload_at_low_spare(self):
        fleet = three_site_fleet(load=90.0)
        assert fail_over(fleet, "west").absorbed_load == pytest.approx(20.0)
        assert GeoFailoverTechnique(fleet, "west").performance < 0.25

    def test_absorption_proportional_to_spare(self):
        fleet = make_fleet(
            site("a", 100, 80),
            site("b", 100, 40),  # spare 60
            site("c", 100, 70),  # spare 30
        )
        absorbed = fail_over(fleet, "a").per_site_absorption
        assert absorbed["b"] == pytest.approx(2 * absorbed["c"])

    def test_no_survivors_means_nothing_absorbed(self):
        fleet = make_fleet(
            site("a1", 100, 50, region="a"),
            site("a2", 100, 50, region="a"),
        )
        assert fail_over(fleet, "a1").absorbed_load == 0.0
        assert GeoFailoverTechnique(fleet, "a1").performance == 0.0

    def test_required_spare_fraction(self):
        fraction = required_spare_fraction(three_site_fleet(load=70.0), "west")
        # Placing 70 on 200 survivor capacity, plus the headroom that
        # keeps each survivor at DEGRADED_UTILIZATION (0.95).
        assert fraction == pytest.approx(70.0 / 200.0 + 0.05)

    @pytest.mark.parametrize(
        "fleet, lost",
        [
            (three_site_fleet(load=load), "west")
            for load in (40.0, 70.0, 90.0)
        ]
        + [
            (
                make_fleet(
                    site("a", 100, 80), site("b", 100, 40), site("c", 100, 70)
                ),
                "a",
            ),
            (
                make_fleet(
                    site("a1", 100, 50, region="a"),
                    site("a2", 100, 50, region="a"),
                    site("b", 100, 50, region="b"),
                ),
                "a1",
            ),
        ],
    )
    def test_required_spare_serves_without_degrading(self, fleet, lost):
        fraction = required_spare_fraction(fleet, lost)
        region = fleet.site(lost).power_region
        provisioned = make_fleet(
            *(
                s.with_spare_fraction(fraction)
                if s.power_region != region
                else s
                for s in fleet.sites
            )
        )
        outcome = fail_over(provisioned, lost)
        assert outcome.degraded_sites == ()
        assert outcome.absorbed_load == pytest.approx(fleet.site(lost).load)

    def test_required_spare_infinite_without_survivors(self):
        fleet = make_fleet(site("only", 100, 50))
        assert math.isinf(required_spare_fraction(fleet, "only"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fleet(site("x", 1, 0), site("x", 1, 0))

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            fail_over(three_site_fleet(), "mars")
        with pytest.raises(ConfigurationError):
            GeoFailoverTechnique(three_site_fleet(), "mars")


class TestGeoFailoverTechnique:
    def test_performance_flat_across_very_long_outages(self):
        # The paper's point: redirection makes outage duration irrelevant.
        tech = GeoFailoverTechnique(three_site_fleet(), "west")
        perfs = []
        for duration in (minutes(30), hours(2), hours(8)):
            point = evaluate_point(
                get_configuration("SmallPUPS"), tech, websearch(), duration
            )
            perfs.append(point.performance)
        assert max(perfs) - min(perfs) < 0.05
        assert all(p > 0.5 for p in perfs)

    def test_beats_local_techniques_for_4h_outage(self):
        tech = GeoFailoverTechnique(three_site_fleet(), "west")
        geo = evaluate_point(
            get_configuration("SmallPUPS"), tech, websearch(), hours(4)
        )
        local = evaluate_point(
            get_configuration("SmallPUPS"),
            get_technique("throttle+sleep-l"),
            websearch(),
            hours(4),
        )
        assert geo.performance > local.performance + 0.3
        assert geo.downtime_seconds < local.downtime_seconds

    def test_local_battery_death_degrades_but_keeps_serving(self):
        tech = GeoFailoverTechnique(three_site_fleet(), "west")
        point = evaluate_point(
            get_configuration("SmallPUPS"), tech, websearch(), hours(8)
        )
        # Local fleet crashed (S3 died), but remote perf carried the outage.
        assert point.crashed
        assert point.performance > 0.5
        assert point.downtime_minutes < 30

    def test_infeasible_redirect_budget_raises(self):
        tech = GeoFailoverTechnique(three_site_fleet(), "west")
        from repro.servers.cluster import Cluster
        from repro.servers.server import PAPER_SERVER

        workload = websearch()
        cluster = Cluster(PAPER_SERVER, 8, utilization=workload.utilization)
        context = TechniqueContext(
            cluster=cluster, workload=workload, power_budget_watts=100.0
        )
        with pytest.raises(TechniqueError):
            tech.plan(context)


class TestCloudBurst:
    def test_burst_cost_scales_with_duration(self):
        fleet = make_fleet(
            site("own", 100, 70),
            site("cloud", 1000, 0, rtt=0.08),
        )
        tech = CloudBurstTechnique(fleet, "own", dollars_per_server_hour=0.5)
        from repro.servers.cluster import Cluster
        from repro.servers.server import PAPER_SERVER

        workload = memcached()
        cluster = Cluster(PAPER_SERVER, 8, utilization=workload.utilization)
        context = TechniqueContext(cluster=cluster, workload=workload)
        one_hour = tech.burst_cost_dollars(context, hours(1))
        four_hours = tech.burst_cost_dollars(context, hours(4))
        assert one_hour > 0
        assert four_hours > 3 * one_hour

    def test_negative_rate_rejected(self):
        with pytest.raises(TechniqueError):
            CloudBurstTechnique(
                three_site_fleet(), "west", dollars_per_server_hour=-1
            )


class TestEconomics:
    def test_spare_server_amortisation(self):
        econ = GeoEconomics()
        # $2000 * 1.6 overhead / 4 years = $800/yr.
        assert econ.spare_server_dollars_per_year == pytest.approx(800.0)

    def test_spare_capacity_cost_positive(self):
        econ = GeoEconomics()
        cost = econ.spare_capacity_cost_per_kw_year(three_site_fleet(), "west")
        assert cost > 0
        assert math.isfinite(cost)

    def test_dedicated_spare_pricier_than_backup_hardware(self):
        # Holding idle SERVERS for failover costs far more per KW than DG +
        # UPS — which is why geo-failover pairs with fleets that already
        # have diurnal headroom, not with purpose-bought spares.
        econ = GeoEconomics()
        assert not econ.cheaper_than_local_backup(three_site_fleet(), "west")

    def test_cloud_breakeven_monotone_in_alternative_cost(self):
        econ = GeoEconomics()
        cheap = econ.breakeven_outage_seconds_per_year(70, 70, 0.5, 50.0)
        rich = econ.breakeven_outage_seconds_per_year(70, 70, 0.5, 150.0)
        assert rich > cheap

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeoEconomics(server_peak_watts=0)
        with pytest.raises(ConfigurationError):
            GeoEconomics().cloud_burst_cost_per_kw_year(1, -1, 1, 1)
