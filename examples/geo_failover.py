#!/usr/bin/env python3
"""Geo-replicated failover: handle very long outages without any DG.

The paper's Section 7 scenario: an organisation already operating three
power-uncorrelated sites asks whether it can strip backup down to a minimal
UPS everywhere and redirect traffic during long outages.  This example

1. builds a three-site fleet with diurnal headroom,
2. compares geo-failover against the best local technique across outage
   durations on the minimal SmallPUPS backup,
3. shows how the failover performance depends on how much spare the
   surviving sites hold, and
4. prices the alternatives: dedicated spare capacity vs cloud burst vs
   local backup hardware.

Run:  python examples/geo_failover.py
"""

from repro import evaluate_point, get_configuration, get_technique, get_workload
from repro.fleet import (
    CloudBurstTechnique,
    FleetSpec,
    GeoEconomics,
    GeoFailoverTechnique,
    SiteSpec,
    fail_over,
)
from repro.units import hours, minutes


def site(name: str, capacity: float, load: float, rtt: float = 0.05) -> SiteSpec:
    return SiteSpec(
        name=name, capacity=capacity, load=load, power_region=name,
        rtt_seconds=rtt,
    )


def build_fleet(spare_fraction: float) -> FleetSpec:
    sites = [
        site("west", 100, 100, rtt=0.05),
        site("east", 100, 100, rtt=0.12),
        site("eu", 100, 100, rtt=0.15),
    ]
    return FleetSpec(
        name="three-sites",
        sites=tuple(s.with_spare_fraction(spare_fraction) for s in sites),
    )


def duration_study() -> None:
    print("=== Geo-failover vs local techniques (Web-search, SmallPUPS) ===")
    workload = get_workload("websearch")
    config = get_configuration("SmallPUPS")
    fleet = build_fleet(spare_fraction=0.3)
    geo = GeoFailoverTechnique(fleet, "west")
    local = get_technique("throttle+sleep-l")
    print(f"{'outage':>8s} {'geo perf':>9s} {'geo down':>9s} "
          f"{'local perf':>11s} {'local down':>11s}")
    for duration in (minutes(30), hours(2), hours(4), hours(8)):
        g = evaluate_point(config, geo, workload, duration)
        l = evaluate_point(config, local, workload, duration)
        print(
            f"{duration / 3600:6.1f}h {g.performance:9.2f} "
            f"{g.downtime_minutes:7.1f}m {l.performance:11.2f} "
            f"{l.downtime_minutes:9.1f}m"
        )
    print()


def spare_sweep() -> None:
    print("=== Failover performance vs spare headroom at surviving sites ===")
    print(f"{'spare':>6s} {'absorbed':>9s} {'perf':>6s}")
    for spare in (0.1, 0.2, 0.35, 0.5):
        fleet = build_fleet(spare_fraction=spare)
        absorbed = fail_over(fleet, "west").absorbed_load
        performance = GeoFailoverTechnique(fleet, "west").performance
        print(f"{spare:6.0%} {absorbed:9.1f} {performance:6.2f}")
    print()


def economics() -> None:
    print("=== What does long-outage protection cost? ($/KW/yr) ===")
    econ = GeoEconomics()
    fleet = build_fleet(spare_fraction=0.35)
    spare = econ.spare_capacity_cost_per_kw_year(fleet, "west")
    from repro import BackupCostModel

    local = BackupCostModel().baseline_cost(1000.0)
    print(f"dedicated geo spare (full perf)  : {spare:8.0f}")
    print(f"local MaxPerf backup (DG + UPS)  : {local:8.0f}")
    burst = CloudBurstTechnique(
        FleetSpec(
            name="own-plus-cloud",
            sites=(site("own", 100, 70), site("cloud", 1000, 0, rtt=0.08)),
        ),
        "own",
        dollars_per_server_hour=0.50,
    )
    for outage_hours_per_year in (1, 5, 24):
        cost = econ.cloud_burst_cost_per_kw_year(
            displaced_servers=70,
            outage_seconds_per_year=outage_hours_per_year * 3600,
            dollars_per_server_hour=burst.dollars_per_server_hour,
            protected_servers=70,
        )
        print(f"cloud burst @ {outage_hours_per_year:2d} h/yr of outage   : {cost:8.2f}")
    print()
    print("Reading: purpose-built spare is the priciest option; cloud burst")
    print("is nearly free at realistic outage budgets — which is exactly why")
    print("the paper pairs aggressive backup underprovisioning with existing")
    print("multi-site fleets or burst capacity for the long tail.")


def main() -> None:
    duration_study()
    spare_sweep()
    economics()


if __name__ == "__main__":
    main()
