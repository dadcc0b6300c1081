"""Traffic routing during outages: where dark sites' load goes, minute by minute.

Several sites can be dark at once (a regional shock), survivors serve
their own load first, failover traffic pays a redirect delay before it
lands, and a survivor pushed near its capacity ceiling enters a degraded
mode — the paper's warning that "power outages can cause load increase
at failed-over site" made into a timeline model.  The steady-state
"these sites died, who absorbs them?" question
(:func:`repro.fleet.contingency.fail_over`) is one instant of it.

:func:`serve_instant` prices one instant of the fleet:

* a site in outage serves ``load * performance`` locally, where
  ``performance`` is its simulator outcome's mean performance (the
  technique's doing — a throttled site still serves most of its load, a
  sleeping one serves none);
* the shortfall (``load * (1 - performance)``) is displaced and, once
  the redirect window has elapsed, routed to surviving sites in *other*
  power regions, proportionally to their remaining spare capacity;
* absorbed traffic pays the Table-7 latency penalty for the extra RTT
  and — when absorption pushes a survivor past
  :data:`DEGRADED_UTILIZATION` — a degraded-survivor factor: the host's
  own throttling/admission control kicking in under failover load.

:func:`route_fleet_routings` integrates that pricing over the
elementary intervals induced by every site's outage windows, for many
years in one array pass; the intervals and every site's state on them
are found once, and only the failover placement runs per routing flag
(:func:`route_fleet_years` is its one-routing call,
:func:`route_fleet_year` its one-year call).  The
decomposition is exact for the piecewise-constant state model
(breakpoints at every outage start, redirect expiry and outage end), so
the result is a pure deterministic function of the per-site schedules —
identical serial or parallel, and cacheable under the runner's
fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import ordered_sum

#: Throughput penalty per 100 ms of extra client RTT for the
#: latency-constrained services of Table 7 (they measure throughput under a
#: high-percentile latency SLO, so added WAN latency eats SLO headroom).
LATENCY_PENALTY_PER_100MS = 0.15

#: Utilization above which an absorbing survivor serves failover traffic
#: in degraded mode (its own overload controls engage).
DEGRADED_UTILIZATION = 0.95

#: Throughput factor on absorbed traffic at a degraded survivor.
SURVIVOR_DEGRADED_FACTOR = 0.85

#: Served-vs-demand slack below which an instant counts as fully served.
_FULL_SERVICE_EPS = 1e-9


@dataclass(frozen=True)
class OutageWindow:
    """One outage on a site's yearly timeline, with its delivered level.

    ``performance`` is the simulator outcome's mean performance over the
    window — the phase structure (throttle, then sleep, then crash)
    smeared uniformly across the outage, which keeps the routing layer
    piecewise-constant without re-simulating phases.
    """

    start_seconds: float
    end_seconds: float
    performance: float

    def __post_init__(self) -> None:
        if self.end_seconds <= self.start_seconds:
            raise ConfigurationError("outage window must have positive length")
        if not 0.0 <= self.performance <= 1.0:
            raise ConfigurationError("window performance must be in [0, 1]")


@dataclass(frozen=True)
class SiteTimeline:
    """A site's year as the routing layer sees it."""

    name: str
    capacity: float
    load: float
    power_region: str
    rtt_seconds: float
    windows: Tuple[OutageWindow, ...]


@dataclass(frozen=True)
class SiteState:
    """One site at one instant."""

    name: str
    capacity: float
    load: float
    power_region: str
    rtt_seconds: float
    performance: float = 1.0
    in_outage: bool = False
    remote_ready: bool = True  # redirect window elapsed


@dataclass(frozen=True)
class InstantService:
    """What the fleet delivers at one instant (server-equivalents).

    Attributes:
        demand: Total fleet load.
        served: Delivered work (local + absorbed failover traffic).
        local_served: Work served where it normally lives.
        remote_served: Failover traffic delivered by survivors (after
            latency and degradation factors).
        absorbed_load: Failover traffic *placed* on survivors (before
            delivery factors) — the capacity actually occupied.
        per_site_absorption: survivor name -> failover load placed there.
        degraded_sites: Survivors pushed past the degradation threshold.
    """

    demand: float
    served: float
    local_served: float
    remote_served: float
    absorbed_load: float
    per_site_absorption: Dict[str, float]
    degraded_sites: Tuple[str, ...]


def latency_factor(source_rtt: float, host_rtt: float) -> float:
    """Throughput factor for traffic served ``host_rtt`` away from home."""
    extra = max(0.0, host_rtt - source_rtt)
    return max(0.0, 1.0 - LATENCY_PENALTY_PER_100MS * (extra / 0.100))


def serve_instant(
    states: Sequence[SiteState], routing: bool = True
) -> InstantService:
    """Price one instant of the fleet under the failover policy.

    Dark sites are processed in fleet order, each routing its shortfall
    across the remaining spare of up sites in *other* power regions,
    proportionally to that spare.  Deterministic in input order.
    """
    # Sums are explicit left-to-right adds from ``0``, as builtin ``sum``
    # does before Python 3.12 (later versions compensate float sums):
    # the array router replays exactly these operations.
    demand = 0
    local = 0
    for s in states:
        demand += s.load
        local += (s.load * s.performance) if s.in_outage else s.load
    spare: Dict[str, float] = {
        s.name: s.capacity - s.load for s in states if not s.in_outage
    }
    placements: List[Tuple[SiteState, SiteState, float]] = []
    if routing:
        for source in states:
            if not source.in_outage or not source.remote_ready:
                continue
            displaced = source.load * (1.0 - source.performance)
            if displaced <= 0:
                continue
            hosts = [
                s
                for s in states
                if not s.in_outage
                and s.power_region != source.power_region
                and spare[s.name] > 0
            ]
            total_spare = 0
            for h in hosts:
                total_spare += spare[h.name]
            if total_spare <= 0:
                continue
            take = min(displaced, total_spare)
            shares = [(h, spare[h.name] / total_spare) for h in hosts]
            for host, share in shares:
                amount = take * share
                spare[host.name] -= amount
                placements.append((source, host, amount))

    absorbed: Dict[str, float] = {}
    for _, host, amount in placements:
        absorbed[host.name] = absorbed.get(host.name, 0.0) + amount
    degraded = tuple(
        s.name
        for s in states
        if s.name in absorbed
        and (s.load + absorbed[s.name]) > DEGRADED_UTILIZATION * s.capacity
    )
    degraded_set = set(degraded)
    remote = 0
    for source, host, amount in placements:
        remote += (
            amount
            * latency_factor(source.rtt_seconds, host.rtt_seconds)
            * (SURVIVOR_DEGRADED_FACTOR if host.name in degraded_set else 1.0)
        )
    return InstantService(
        demand=demand,
        served=local + remote,
        local_served=local,
        remote_served=remote,
        absorbed_load=ordered_sum(absorbed.values()),
        per_site_absorption=absorbed,
        degraded_sites=degraded,
    )


@dataclass(frozen=True)
class SiteWindows:
    """One site's outage windows over many years, as parallel arrays.

    Windows are sorted by ``(year, start)`` and disjoint within a year;
    ``performance`` is already clamped to [0, 1].
    """

    year: np.ndarray
    start: np.ndarray
    end: np.ndarray
    performance: np.ndarray


def _window_index(
    interval_year: np.ndarray,
    midpoint: np.ndarray,
    windows: Sequence[SiteWindows],
) -> List[np.ndarray]:
    """Per site, per interval: the last window with ``(year, start) <=
    (year, mid)`` (-1 where no window precedes).

    One exact merge for every site: a stable sort of all sites' windows
    followed by the midpoints, so windows sort ahead of midpoints on
    ties and a window starting exactly at a midpoint counts as begun.
    Midpoints arrive sorted by ``(year, mid)``, so they keep their order;
    a site's index at each midpoint is then the count of its windows
    sorted before it, less one.
    """
    owner = np.repeat(
        np.arange(len(windows) + 1),
        [len(w.year) for w in windows] + [len(midpoint)],
    )
    order = np.lexsort(
        (
            np.concatenate([w.start for w in windows] + [midpoint]),
            np.concatenate([w.year for w in windows] + [interval_year]),
        )
    )
    owner = owner[order]
    at_midpoint = np.flatnonzero(owner == len(windows))
    return [
        np.cumsum(owner == i)[at_midpoint] - 1 for i in range(len(windows))
    ]


def _remote_served(
    sites: Sequence[Any],
    dark: List[np.ndarray],
    performance: List[np.ndarray],
    ready: List[np.ndarray],
    count: int,
) -> np.ndarray:
    """Per interval, the failover traffic survivors deliver: the
    placement loop of :func:`serve_instant`, elementwise."""
    spare = [np.full(count, site.capacity - site.load) for site in sites]
    absorbed = [np.zeros(count) for _ in sites]
    placed = [np.zeros(count, dtype=bool) for _ in sites]
    placements = []
    for i, source in enumerate(sites):
        displaced = source.load * (1.0 - performance[i])
        active = ready[i] & (displaced > 0)
        hosts = [
            (h, ~dark[h] & (spare[h] > 0))
            for h, host in enumerate(sites)
            if host.power_region != source.power_region
        ]
        total_spare = np.zeros(count)
        for h, eligible in hosts:
            total_spare = total_spare + np.where(eligible, spare[h], 0.0)
        active &= total_spare > 0
        take = np.minimum(displaced, total_spare)
        divisor = np.where(active, total_spare, 1.0)
        shares = [spare[h] / divisor for h, _ in hosts]
        for (h, eligible), share in zip(hosts, shares):
            moved = active & eligible
            amount = take * share
            spare[h] = np.where(moved, spare[h] - amount, spare[h])
            absorbed[h] = np.where(moved, absorbed[h] + amount, absorbed[h])
            placed[h] |= moved
            placements.append((i, h, moved, amount))
    degraded = [
        placed[h]
        & ((site.load + absorbed[h]) > DEGRADED_UTILIZATION * site.capacity)
        for h, site in enumerate(sites)
    ]
    remote = np.zeros(count)
    for i, h, moved, amount in placements:
        delivered = (
            amount
            * latency_factor(sites[i].rtt_seconds, sites[h].rtt_seconds)
            * np.where(degraded[h], SURVIVOR_DEGRADED_FACTOR, 1.0)
        )
        remote = remote + np.where(moved, delivered, 0.0)
    return remote


def route_fleet_routings(
    sites: Sequence[Any],
    windows: Sequence[SiteWindows],
    years: int,
    horizon_seconds: float,
    redirect_seconds: float,
    routings: Sequence[bool],
) -> List[List[Dict[str, float]]]:
    """Integrate :func:`serve_instant` over many fleet years, once per
    routing flag.

    ``sites`` supply ``capacity``/``load``/``power_region``/
    ``rtt_seconds`` in fleet order (site specs or timelines), and
    ``windows`` each site's outages over years ``0 .. years-1``.  Every
    year's elementary intervals (cut at each outage start, redirect
    expiry and outage end) and each site's state on them are found once;
    only the failover placement runs per routed flag (unrouted, every
    site serves its local share and nothing moves).  Each interval is
    priced in one elementwise pass that applies :func:`serve_instant`'s
    float operations in its order, and each year's totals are summed
    interval by interval, left to right from ``0.0``, as the one-year
    scalar integral does.

    Returns, per entry of ``routings``, one plain-dict summary per year
    (server-equivalent-seconds and plain counts — JSON-able,
    reduction-friendly):

    ``demand``/``served``: integrals of offered and delivered work;
    ``remote_served``: the failover traffic's delivered integral;
    ``fully_served_seconds``: time with no unserved demand anywhere;
    ``simultaneous_outage_seconds``: time with >= 2 sites in outage;
    ``max_simultaneous_outages``: peak concurrent dark-site count.
    """
    if horizon_seconds <= 0:
        raise ConfigurationError("horizon must be positive")
    horizon = float(horizon_seconds)

    # Breakpoints, deduplicated per year and sorted by (year, instant).
    every_year = np.arange(years)
    cut_year = [every_year, every_year]
    cut_at = [np.zeros(years), np.full(years, horizon)]
    for w in windows:
        cut_year += [w.year, w.year, w.year]
        cut_at += [
            w.start,
            np.minimum(w.end, horizon),
            np.minimum(w.start + redirect_seconds, w.end),
        ]
    cut_year = np.concatenate(cut_year)
    cut_at = np.concatenate(cut_at)
    inside = (cut_at >= 0.0) & (cut_at <= horizon)
    cut_year, cut_at = cut_year[inside], cut_at[inside]
    order = np.lexsort((cut_at, cut_year))
    cut_year, cut_at = cut_year[order], cut_at[order]
    new = np.ones(len(cut_at), dtype=bool)
    new[1:] = (cut_year[1:] != cut_year[:-1]) | (cut_at[1:] != cut_at[:-1])
    cut_year, cut_at = cut_year[new], cut_at[new]
    pair = cut_year[1:] == cut_year[:-1]
    year = cut_year[:-1][pair]
    start = cut_at[:-1][pair]
    end = cut_at[1:][pair]
    dt = end - start
    midpoint = (start + end) / 2.0

    # Per-site state at each interval midpoint.
    count = len(midpoint)
    dark, performance, ready = [], [], []
    for w, index in zip(windows, _window_index(year, midpoint, windows)):
        if not len(w.year):
            dark.append(np.zeros(count, dtype=bool))
            performance.append(np.ones(count))
            ready.append(dark[-1])
            continue
        at = np.maximum(index, 0)
        in_window = (index >= 0) & (w.year[at] == year) & (midpoint < w.end[at])
        dark.append(in_window)
        performance.append(w.performance[at])
        ready.append(in_window & (midpoint >= w.start[at] + redirect_seconds))

    # serve_instant's local service, elementwise.
    demand = 0
    local = np.zeros(count)
    for i, site in enumerate(sites):
        demand += site.load
        local = local + np.where(dark[i], site.load * performance[i], site.load)
    dark_count = np.zeros(count, dtype=np.int64)
    for in_window in dark:
        dark_count += in_window

    # Every year's sums at once: each column padded per year to the
    # longest year with trailing zeros (x + 0.0 == x for x >= 0.0) and
    # added position by position, left to right from 0.0.
    columns = [demand * dt, np.where(dark_count >= 2, dt, 0.0)]
    for routing in routings:
        remote = (
            _remote_served(sites, dark, performance, ready, count)
            if routing
            else np.zeros(count)
        )
        served = local + remote
        full = served >= demand - _FULL_SERVICE_EPS
        columns += [served * dt, remote * dt, np.where(full, dt, 0.0)]
    bounds = np.searchsorted(year, np.arange(years + 1))
    width = int(np.diff(bounds).max()) if years else 0
    grid = np.zeros((width, len(columns), years))
    grid[np.arange(count) - bounds[year], :, year] = np.stack(columns, axis=1)
    sums = np.zeros((len(columns), years))
    for row in grid:
        sums += row
    sums = sums.tolist()
    peak = np.maximum.reduceat(dark_count, bounds[:-1]).astype(float).tolist()

    totals = []
    for r in range(len(routings)):
        served, remote, full = sums[2 + 3 * r : 5 + 3 * r]
        totals.append(
            [
                {
                    "demand": sums[0][y],
                    "served": served[y],
                    "remote_served": remote[y],
                    "fully_served_seconds": full[y],
                    "simultaneous_outage_seconds": sums[1][y],
                    "max_simultaneous_outages": peak[y],
                }
                for y in range(years)
            ]
        )
    return totals


def route_fleet_years(
    sites: Sequence[Any],
    windows: Sequence[SiteWindows],
    years: int,
    horizon_seconds: float,
    redirect_seconds: float,
    routing: bool = True,
) -> List[Dict[str, float]]:
    """The one-routing call of :func:`route_fleet_routings`."""
    return route_fleet_routings(
        sites, windows, years, horizon_seconds, redirect_seconds, (routing,)
    )[0]


def route_fleet_year(
    timelines: Sequence[SiteTimeline],
    horizon_seconds: float,
    redirect_seconds: float,
    routing: bool = True,
) -> Dict[str, float]:
    """Integrate :func:`serve_instant` over one fleet year.

    The one-year call of :func:`route_fleet_years` (same summary keys).
    Each timeline's windows must be disjoint; they may come in any order.
    """
    windows = []
    for timeline in timelines:
        ordered = sorted(timeline.windows, key=lambda w: w.start_seconds)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_seconds < earlier.end_seconds:
                raise ConfigurationError(
                    f"{timeline.name}: outage windows must be disjoint"
                )
        windows.append(
            SiteWindows(
                year=np.zeros(len(ordered), dtype=np.int64),
                start=np.array([w.start_seconds for w in ordered], dtype=float),
                end=np.array([w.end_seconds for w in ordered], dtype=float),
                performance=np.array(
                    [w.performance for w in ordered], dtype=float
                ),
            )
        )
    return route_fleet_years(
        timelines, windows, 1, horizon_seconds, redirect_seconds, routing
    )[0]
