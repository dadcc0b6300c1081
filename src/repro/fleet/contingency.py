"""Deterministic N-k failover pricing and N-1/N-2 contingency analysis.

Power-systems planning asks the contingency question before the
Monte-Carlo one: *if any one site (N-1) or any pair of sites (N-2) goes
completely dark, can the survivors carry the displaced load?*  The
answer is a pure function of the fleet geometry — loads, spares, power
regions, RTTs — evaluated by :func:`fail_over` through the same
:func:`serve_instant` pricing the Monte-Carlo routing layer uses, so the
contingency verdicts, the geo-failover techniques and the Monte-Carlo
years can never disagree about what a blackout costs.

Dark sites are modeled at performance 0 with the redirect window
already elapsed: contingency analysis rates the steady state, not the
transient.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, Iterable, List, Union

from repro.errors import ConfigurationError
from repro.fleet.routing import InstantService, SiteState, serve_instant
from repro.fleet.spec import FleetSpec
from repro.units import ordered_sum

#: Delivered-fraction slack below which a scenario counts as fully served.
_FULLY_SERVED_EPS = 1e-9


def fail_over(
    fleet: FleetSpec, lost: Union[str, Iterable[str]]
) -> InstantService:
    """Price the fleet once ``lost`` (one site name, or several) is dark.

    Lost sites serve nothing locally and their redirect window has
    elapsed, so their whole load routes to survivors in other power
    regions.
    """
    lost = {lost} if isinstance(lost, str) else set(lost)
    for name in lost:
        fleet.site(name)  # unknown names raise ConfigurationError
    return serve_instant(
        [
            SiteState(
                name=site.name,
                capacity=site.capacity,
                load=site.load,
                power_region=site.power_region,
                rtt_seconds=site.rtt_seconds,
                performance=0.0 if site.name in lost else 1.0,
                in_outage=site.name in lost,
            )
            for site in fleet.sites
        ]
    )


def contingency_scenarios(
    fleet: FleetSpec, depth: int = 2
) -> List[Dict[str, Any]]:
    """Evaluate every loss of up to ``depth`` sites.

    Returns one record per scenario, ordered by (order, site position) —
    deterministic for fingerprinting and table output.
    """
    if depth < 1:
        raise ConfigurationError("contingency depth must be >= 1")
    depth = min(depth, len(fleet.sites))
    records: List[Dict[str, Any]] = []
    for order in range(1, depth + 1):
        for lost in combinations(fleet.sites, order):
            lost_names = {site.name for site in lost}
            instant = fail_over(fleet, lost_names)
            displaced = ordered_sum(site.load for site in lost)
            delivered_fraction = (
                instant.served / instant.demand if instant.demand > 0 else 1.0
            )
            records.append(
                {
                    "order": order,
                    "lost_sites": sorted(lost_names),
                    "displaced_load": displaced,
                    "absorbed_load": instant.absorbed_load,
                    "remote_served": instant.remote_served,
                    "delivered_fraction": delivered_fraction,
                    "unserved_load": instant.demand - instant.served,
                    "degraded_sites": sorted(instant.degraded_sites),
                    "fully_served": delivered_fraction
                    >= 1.0 - _FULLY_SERVED_EPS,
                }
            )
    return records


def contingency_report(fleet: FleetSpec, depth: int = 2) -> Dict[str, Any]:
    """The fleet's contingency verdicts plus the per-scenario table.

    ``n1_safe``/``n2_safe`` hold when *every* scenario of that order is
    fully served; ``worst`` points at the scenario with the lowest
    delivered fraction.
    """
    scenarios = contingency_scenarios(fleet, depth=depth)
    verdicts: Dict[str, Any] = {
        "fleet": fleet.name,
        "sites": [site.name for site in fleet.sites],
        "depth": min(depth, len(fleet.sites)),
        "scenarios": scenarios,
    }
    for order in range(1, verdicts["depth"] + 1):
        at_order = [s for s in scenarios if s["order"] == order]
        verdicts[f"n{order}_safe"] = all(s["fully_served"] for s in at_order)
    verdicts["worst"] = min(scenarios, key=lambda s: s["delivered_fraction"])
    return verdicts
