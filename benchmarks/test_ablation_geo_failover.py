"""Ablation: geo-replication failover for very long outages (Sections 1,
6.2, 7).

The paper's recommendation — "for very long outages (> 4 hours), it is
preferred to transfer load (request redirection) to geo-replicated
datacenters if no DG is used" — made quantitative: compare the geo-failover
technique against the best local technique across outage durations, on the
cheapest local backup (SmallPUPS), and price the spare capacity it needs.
"""

import pytest

from conftest import run_once
from repro.analysis.report import format_table
from repro.core.configurations import get_configuration
from repro.core.performability import evaluate_point
from repro.fleet.failover import GeoEconomics, GeoFailoverTechnique
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.websearch import websearch

DURATIONS = (minutes(30), hours(2), hours(4), hours(8))


def build_fleet():
    return FleetSpec(
        name="three-sites",
        sites=tuple(
            SiteSpec(name=name, capacity=100, load=70, power_region=name,
                     rtt_seconds=rtt)
            for name, rtt in (("west", 0.05), ("east", 0.12), ("eu", 0.15))
        ),
    )


def build_study():
    fleet = build_fleet()
    workload = websearch()
    config = get_configuration("SmallPUPS")
    geo = GeoFailoverTechnique(fleet, "west")
    local = get_technique("throttle+sleep-l")
    rows = []
    for duration in DURATIONS:
        geo_point = evaluate_point(config, geo, workload, duration)
        local_point = evaluate_point(config, local, workload, duration)
        rows.append(
            (
                duration / 60,
                geo_point.performance,
                geo_point.downtime_minutes,
                local_point.performance,
                local_point.downtime_minutes,
            )
        )
    economics = GeoEconomics()
    spare_cost = economics.spare_capacity_cost_per_kw_year(fleet, "west")
    return rows, spare_cost


def test_ablation_geo_failover(benchmark, emit):
    rows, spare_cost = run_once(benchmark, build_study)
    emit(
        format_table(
            (
                "outage (min)",
                "geo perf",
                "geo down (min)",
                "local perf",
                "local down (min)",
            ),
            rows,
            title="Ablation: geo-failover vs best local technique "
            "(Web-search, SmallPUPS)",
        )
    )
    emit(f"dedicated spare capacity cost: ${spare_cost:.0f}/KW/yr")

    by_duration = {row[0]: row[1:] for row in rows}

    # Geo performance is duration-independent (the crossover story).
    geo_perfs = [by_duration[d / 60][0] for d in DURATIONS]
    assert max(geo_perfs) - min(geo_perfs) < 0.05

    # Local techniques collapse on multi-hour outages; geo does not.
    geo_4h = by_duration[hours(4) / 60]
    local_4h = by_duration[hours(4) / 60][2:]
    assert geo_4h[0] > 0.5
    assert local_4h[0] < 0.1
    assert geo_4h[1] < 0.2 * local_4h[1]

    # On this minimal backup (SmallPUPS barely covers the redirect window)
    # geo already wins at 30 minutes too — the fleet, not the battery, is
    # doing the work.  Its cost lives elsewhere: the spare capacity below.
    half_hour = by_duration[minutes(30) / 60]
    assert half_hour[0] > half_hour[2]

    # Purpose-built spare is expensive — pricier than MaxPerf hardware
    # (~$133/KW/yr), which is why the paper pairs geo-failover with
    # *existing* multi-site fleets rather than dedicated spares.
    assert spare_cost > 133.0
