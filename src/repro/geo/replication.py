"""The fleet model: where a failed site's load goes and at what performance.

On an outage at one site, its traffic is redirected across the surviving
sites in *other* power regions, proportionally to their spare headroom.
Delivered performance for the displaced load is then

    min(1, usable_spare / displaced_load) * latency_penalty

— the paper's warning made quantitative: "power outages can cause load
increase at failed-over site, unless adequate spare capacity is set aside".
Redirection itself is not instantaneous (DNS/anycast/traffic-engineering
convergence), and stateful services additionally lose the replication lag's
worth of recent writes when they fail over asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.geo.site import Site
from repro.units import ordered_sum

#: Traffic-shift convergence time (DNS TTLs / anycast withdrawal).
DEFAULT_REDIRECT_SECONDS = 90.0

#: Throughput penalty per 100 ms of extra client RTT for the
#: latency-constrained services of Table 7 (they measure throughput under a
#: high-percentile latency SLO, so added WAN latency eats SLO headroom).
LATENCY_PENALTY_PER_100MS = 0.15


@dataclass(frozen=True)
class FailoverOutcome:
    """What redirecting a failed site's load achieves.

    Attributes:
        displaced_load: Load that needed a new home (server-equivalents).
        absorbed_load: Load the surviving sites could actually take.
        performance: Delivered fraction of the displaced load's normal
            throughput (capacity *and* latency effects).
        redirect_seconds: Time before redirected service begins.
        per_site_absorption: site name -> load absorbed there.
        replication_lag_loss_seconds: Recent work lost to async replication.
    """

    displaced_load: float
    absorbed_load: float
    performance: float
    redirect_seconds: float
    per_site_absorption: Dict[str, float]
    replication_lag_loss_seconds: float


class GeoReplicationModel:
    """A fleet of sites with a proportional-spare failover policy.

    Args:
        sites: The fleet.
        redirect_seconds: Traffic-shift convergence time.
        replication_lag_seconds: Asynchronous replication lag — writes
            committed within this window of the failure are lost on
            failover (0 for synchronous or read-only services).
    """

    def __init__(
        self,
        sites: Sequence[Site],
        redirect_seconds: float = DEFAULT_REDIRECT_SECONDS,
        replication_lag_seconds: float = 0.0,
    ):
        if not sites:
            raise ConfigurationError("fleet needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ConfigurationError("site names must be unique")
        if redirect_seconds < 0 or replication_lag_seconds < 0:
            raise ConfigurationError("delays must be >= 0")
        self.sites: List[Site] = list(sites)
        self.redirect_seconds = redirect_seconds
        self.replication_lag_seconds = replication_lag_seconds

    def site(self, name: str) -> Site:
        for candidate in self.sites:
            if candidate.name == name:
                return candidate
        raise ConfigurationError(f"unknown site {name!r}")

    def survivors_for(self, failed: Site) -> List[Site]:
        """Sites that can absorb ``failed``'s load: different power region."""
        return [
            site
            for site in self.sites
            if site.name != failed.name and site.power_region != failed.power_region
        ]

    def fail_over(self, failed_site_name: str) -> FailoverOutcome:
        """Redirect a failed site's load across the surviving fleet."""
        failed = self.site(failed_site_name)
        survivors = self.survivors_for(failed)
        displaced = failed.load

        total_spare = ordered_sum(site.spare_capacity for site in survivors)
        absorbed = min(displaced, total_spare)
        per_site: Dict[str, float] = {}
        if total_spare > 0:
            for site in survivors:
                share = site.spare_capacity / total_spare
                per_site[site.name] = share * absorbed

        capacity_factor = absorbed / displaced if displaced > 0 else 1.0
        latency_factor = self._latency_factor(failed, survivors, per_site)
        return FailoverOutcome(
            displaced_load=displaced,
            absorbed_load=absorbed,
            performance=capacity_factor * latency_factor,
            redirect_seconds=self.redirect_seconds,
            per_site_absorption=per_site,
            replication_lag_loss_seconds=self.replication_lag_seconds,
        )

    def _latency_factor(
        self,
        failed: Site,
        survivors: List[Site],
        per_site: Dict[str, float],
    ) -> float:
        """Throughput factor from added WAN RTT, absorption-weighted."""
        total = ordered_sum(per_site.values())
        if total <= 0:
            return 1.0
        weighted_extra_rtt = ordered_sum(
            max(0.0, site.rtt_seconds - failed.rtt_seconds) * per_site[site.name]
            for site in survivors
            if site.name in per_site
        ) / total
        penalty = LATENCY_PENALTY_PER_100MS * (weighted_extra_rtt / 0.100)
        return max(0.0, 1.0 - penalty)

    def required_spare_fraction_for_full_performance(
        self, failed_site_name: str
    ) -> float:
        """Uniform spare fraction every surviving site must hold for the
        failed site's load to be fully absorbed — the capacity-planning
        knob Section 7 raises."""
        failed = self.site(failed_site_name)
        survivors = self.survivors_for(failed)
        total_capacity = ordered_sum(site.capacity for site in survivors)
        if total_capacity < failed.load:
            # Even fully emptied survivors cannot hold the load.
            return float("inf")
        return failed.load / total_capacity
