"""Cross-feature interactions: extensions composed with each other."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.configurations import get_configuration
from repro.core.performability import (
    evaluate_point,
    make_datacenter,
    plan_power_budget_watts,
)
from repro.experiments import figure5
from repro.fleet.failover import GeoFailoverTechnique
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.power.placement import UPSPlacement
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.specjbb import specjbb
from repro.workloads.websearch import websearch


def fleet():
    return FleetSpec(
        name="three",
        sites=tuple(
            SiteSpec(name=name, capacity=100, load=70, power_region=name,
                     rtt_seconds=rtt)
            for name, rtt in (("west", 0.05), ("east", 0.12), ("eu", 0.15))
        ),
    )


class TestGeoUnderServerPlacement:
    def test_geo_failover_indifferent_to_placement(self):
        """Geo-failover's S3 park is uniform-load, so private packs change
        nothing — remote serving is what carries the outage either way."""
        workload = websearch()
        rack_dc = make_datacenter(workload, get_configuration("LargeEUPS"))
        server_dc = replace(
            rack_dc, ups=replace(rack_dc.ups, placement=UPSPlacement.SERVER)
        )
        context = TechniqueContext(
            cluster=rack_dc.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(rack_dc),
        )
        plan = GeoFailoverTechnique(fleet(), "west").plan(context)
        rack = simulate_outage(rack_dc, plan, hours(2))
        server = simulate_outage(server_dc, plan, hours(2))
        assert rack.mean_performance == pytest.approx(
            server.mean_performance, abs=1e-6
        )


class TestResizedWorkloadThroughSelection:
    def test_smaller_specjbb_hibernate_sizing_cheaper(self):
        from repro.core.selection import lowest_cost_backup
        from repro.units import gigabytes

        big = lowest_cost_backup(
            get_technique("hibernate"), specjbb(), minutes(10)
        )
        small = lowest_cost_backup(
            get_technique("hibernate"),
            specjbb().with_memory_state(gigabytes(4.5)),
            minutes(10),
        )
        assert small.normalized_cost <= big.normalized_cost


class TestAdaptiveUnderTinyBudget:
    def test_policy_compiles_against_half_power_ups(self):
        from repro.core.predictor import AdaptivePolicy

        point = evaluate_point(
            get_configuration("SmallP-LargeEUPS"),
            AdaptivePolicy(),
            specjbb(),
            minutes(45),
            num_servers=8,
        )
        assert point.feasible
        assert not point.crashed


class TestDriverFullMode:
    def test_figure5_full_grid(self):
        result = figure5(quick=False)
        durations = {record["outage_min"] for record in result.records}
        assert durations == {0.5, 5.0, 30.0, 60.0, 120.0}


class TestCLIParity:
    def test_cli_evaluate_matches_api(self, capsys):
        code = main(
            [
                "evaluate", "-w", "specjbb", "-c", "LargeEUPS",
                "-t", "sleep-l", "-m", "30", "--servers", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        point = evaluate_point(
            get_configuration("LargeEUPS"),
            get_technique("sleep-l"),
            specjbb(),
            minutes(30),
            num_servers=8,
        )
        assert f"{point.downtime_minutes:.1f}" in out or str(
            round(point.downtime_minutes, 1)
        ) in out
