"""Scalar reference implementations of the fleet engine, for oracles.

Production runs fleet years as batches (:func:`repro.fleet.sim.
simulate_fleet_years`) and routes them in one array pass
(:func:`repro.fleet.routing.route_fleet_routings`).  This module keeps the
per-interval, per-year scalar forms those replaced, so tests can hold
the batch engine to them with ``==``:

* :func:`reference_route_fleet_year` integrates
  :func:`~repro.fleet.routing.serve_instant` one elementary interval at
  a time, building a :class:`~repro.fleet.routing.SiteState` per site
  at each midpoint;
* :func:`reference_fleet_year` draws one year on the fleet seed tree,
  runs each site's merged schedule through the scalar
  :class:`~repro.sim.yearly.YearlyRunner`, and routes it with the
  scalar router above.
"""

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.configurations import get_configuration
from repro.core.performability import make_plant
from repro.errors import ConfigurationError
from repro.fleet.correlation import RegionalShockSampler, merge_outage_events
from repro.fleet.routing import (
    _FULL_SERVICE_EPS,
    OutageWindow,
    SiteState,
    SiteTimeline,
    serve_instant,
)
from repro.fleet.spec import FleetSpec
from repro.outages.generator import OutageGenerator
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.sim.yearly import YearlyRunner
from repro.techniques.registry import get_technique
from repro.units import SECONDS_PER_YEAR
from repro.workloads.registry import get_workload


def _window_at(timeline: SiteTimeline, instant: float) -> Optional[OutageWindow]:
    for window in timeline.windows:
        if window.start_seconds <= instant < window.end_seconds:
            return window
    return None


def state_at(
    timeline: SiteTimeline, instant: float, redirect_seconds: float
) -> SiteState:
    """One site's :class:`SiteState` at ``instant``."""
    window = _window_at(timeline, instant)
    if window is None:
        return SiteState(
            name=timeline.name,
            capacity=timeline.capacity,
            load=timeline.load,
            power_region=timeline.power_region,
            rtt_seconds=timeline.rtt_seconds,
        )
    return SiteState(
        name=timeline.name,
        capacity=timeline.capacity,
        load=timeline.load,
        power_region=timeline.power_region,
        rtt_seconds=timeline.rtt_seconds,
        performance=window.performance,
        in_outage=True,
        remote_ready=instant >= window.start_seconds + redirect_seconds,
    )


def breakpoints(
    timelines: Sequence[SiteTimeline],
    horizon_seconds: float,
    redirect_seconds: float,
) -> List[float]:
    """Sorted instants where any site's state can change."""
    cuts = {0.0, horizon_seconds}
    for timeline in timelines:
        for window in timeline.windows:
            cuts.add(window.start_seconds)
            cuts.add(min(window.end_seconds, horizon_seconds))
            cuts.add(
                min(window.start_seconds + redirect_seconds, window.end_seconds)
            )
    return sorted(b for b in cuts if 0.0 <= b <= horizon_seconds)


def reference_route_fleet_year(
    timelines: Sequence[SiteTimeline],
    horizon_seconds: float,
    redirect_seconds: float,
    routing: bool = True,
) -> Dict[str, float]:
    """The per-interval scalar integral of :func:`serve_instant`."""
    if horizon_seconds <= 0:
        raise ConfigurationError("horizon must be positive")
    cuts = breakpoints(timelines, horizon_seconds, redirect_seconds)
    totals = {
        "demand": 0.0,
        "served": 0.0,
        "remote_served": 0.0,
        "fully_served_seconds": 0.0,
        "simultaneous_outage_seconds": 0.0,
        "max_simultaneous_outages": 0.0,
    }
    for start, end in zip(cuts, cuts[1:]):
        dt = end - start
        if dt <= 0:
            continue
        midpoint = (start + end) / 2.0
        states = [state_at(t, midpoint, redirect_seconds) for t in timelines]
        dark = sum(1 for s in states if s.in_outage)
        instant = serve_instant(states, routing=routing)
        totals["demand"] += instant.demand * dt
        totals["served"] += instant.served * dt
        totals["remote_served"] += instant.remote_served * dt
        if instant.served >= instant.demand - _FULL_SERVICE_EPS:
            totals["fully_served_seconds"] += dt
        if dark >= 2:
            totals["simultaneous_outage_seconds"] += dt
        totals["max_simultaneous_outages"] = max(
            totals["max_simultaneous_outages"], float(dark)
        )
    return totals


def reference_fleet_year(
    fleet: FleetSpec, routing: bool, seed: np.random.SeedSequence
) -> Dict[str, Any]:
    """One fleet year on the scalar engine and the scalar router."""
    site_seeds = seed.spawn(len(fleet.sites))
    (shock_seed,) = seed.spawn(1)
    shocks = RegionalShockSampler(fleet).sample_year(
        np.random.default_rng(shock_seed)
    )
    sites: Dict[str, Dict[str, float]] = {}
    timelines: List[SiteTimeline] = []
    for site, site_seed in zip(fleet.sites, site_seeds):
        schedule_seed, dg_seed = site_seed.spawn(2)
        schedule = merge_outage_events(
            OutageGenerator(seed=schedule_seed).sample_year(),
            shocks[site.name],
        )
        datacenter, plan = make_plant(
            get_workload(site.workload),
            get_configuration(site.configuration),
            get_technique(site.technique),
            site.servers,
        )
        result = YearlyRunner(
            datacenter,
            plan,
            recharge_seconds=DEFAULT_RECHARGE_SECONDS,
            rng=np.random.default_rng(dg_seed),
        ).run_schedule(schedule)
        perf_sum = 0.0
        perf_weight = 0.0
        windows = []
        for event, outcome in zip(result.events, result.outcomes):
            perf_sum += outcome.mean_performance * event.duration_seconds
            perf_weight += event.duration_seconds
            windows.append(
                OutageWindow(
                    start_seconds=event.start_seconds,
                    end_seconds=event.end_seconds,
                    performance=min(1.0, max(0.0, outcome.mean_performance)),
                )
            )
        sites[site.name] = {
            "downtime_seconds": result.total_downtime_seconds,
            "crashes": float(result.crashes),
            "outages": float(len(result.outcomes)),
            "perf_sum": perf_sum,
            "perf_weight": perf_weight,
            "dg_start_failures": float(result.dg_start_failures),
        }
        timelines.append(
            SiteTimeline(
                name=site.name,
                capacity=site.capacity,
                load=site.load,
                power_region=site.power_region,
                rtt_seconds=site.rtt_seconds,
                windows=tuple(windows),
            )
        )
    totals = reference_route_fleet_year(
        timelines, SECONDS_PER_YEAR, fleet.redirect_seconds, routing=routing
    )
    totals["shock_site_hits"] = float(
        sum(len(events) for events in shocks.values())
    )
    return {"sites": sites, "fleet": totals}
