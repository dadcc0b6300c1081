"""repro.fleet — multi-site fleet simulation with correlated regional
outages and geo-failover.

The fleet layer answers the paper's question at the scale the paper
gestures toward in Section 7: when traffic can shift to surviving
sites, *the fleet itself is the backup*, and per-site DG/battery
provisioning can be cut below any single-site Table-3 point.

Modules:
    spec: :class:`FleetSpec`/:class:`SiteSpec` scenarios + named registry.
    correlation: seeded regional-shock sampler and schedule merging.
    routing: instant pricing and yearly integration of geo-failover.
    sim: fleet years (sampled once, routed per flag), the per-year
        Monte-Carlo job and :class:`FleetAnalyzer`.
    contingency: :func:`fail_over` (N-k pricing) and N-1/N-2 analysis.
    failover: geo-failover and cloud-burst techniques, and their economics.
    frontier: the ``fleet_frontier`` sweep and its domination verdict.
"""

from repro.fleet.contingency import (
    contingency_report,
    contingency_scenarios,
    fail_over,
)
from repro.fleet.correlation import RegionalShockSampler, merge_outage_events
from repro.fleet.failover import (
    CloudBurstTechnique,
    GeoEconomics,
    GeoFailoverTechnique,
    required_spare_fraction,
)
from repro.fleet.frontier import (
    DEFAULT_FLEET_YEARS,
    fleet_cell_pair,
    fleet_frontier,
    fleet_frontier_jobs,
    prepare_fleet_frontier,
    reduce_fleet_frontier,
)
from repro.fleet.routing import (
    DEGRADED_UTILIZATION,
    LATENCY_PENALTY_PER_100MS,
    SURVIVOR_DEGRADED_FACTOR,
    InstantService,
    OutageWindow,
    SiteState,
    SiteTimeline,
    SiteWindows,
    latency_factor,
    route_fleet_routings,
    route_fleet_year,
    route_fleet_years,
    serve_instant,
)
from repro.fleet.sim import (
    FleetAnalyzer,
    reduce_fleet_years,
    simulate_fleet_routings,
    simulate_fleet_year,
    simulate_fleet_years,
)
from repro.fleet.spec import (
    DEFAULT_FLEET,
    DEFAULT_REDIRECT_SECONDS,
    FleetSpec,
    SiteSpec,
    fleet_names,
    get_fleet,
)

__all__ = [
    "DEFAULT_FLEET",
    "DEFAULT_FLEET_YEARS",
    "DEFAULT_REDIRECT_SECONDS",
    "DEGRADED_UTILIZATION",
    "LATENCY_PENALTY_PER_100MS",
    "SURVIVOR_DEGRADED_FACTOR",
    "CloudBurstTechnique",
    "FleetAnalyzer",
    "FleetSpec",
    "GeoEconomics",
    "GeoFailoverTechnique",
    "InstantService",
    "OutageWindow",
    "RegionalShockSampler",
    "SiteSpec",
    "SiteState",
    "SiteTimeline",
    "SiteWindows",
    "contingency_report",
    "contingency_scenarios",
    "fail_over",
    "fleet_cell_pair",
    "fleet_frontier",
    "fleet_frontier_jobs",
    "fleet_names",
    "get_fleet",
    "latency_factor",
    "merge_outage_events",
    "prepare_fleet_frontier",
    "reduce_fleet_frontier",
    "reduce_fleet_years",
    "required_spare_fraction",
    "route_fleet_routings",
    "route_fleet_year",
    "route_fleet_years",
    "serve_instant",
    "simulate_fleet_routings",
    "simulate_fleet_year",
    "simulate_fleet_years",
]
