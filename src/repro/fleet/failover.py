"""Geo-failover as an outage technique, and what its spare capacity costs.

The paper repeatedly gestures at this escape hatch: "a rare and prolonged
outage may possibly be handled by load re-direction/migration to other
(power uncorrelated) sites" (Section 1), "for handling such long outages,
request or load redirection to geo-replicated datacenters would be a better
solution" (Section 6.2), and Section 7 discusses leveraging multi-site
operation to underprovision backup everywhere — or bursting to an external
cloud provider when no second site exists.

:class:`GeoFailoverTechnique` compiles that recommendation into the same
plan language every other technique uses, so the simulator, the selection
machinery and the figures can compare it directly against throttling,
sleep and migration:

1. **Redirect window** — the local cluster keeps serving (throttled, to fit
   the local UPS) for the fleet's ``redirect_seconds`` while traffic shifts
   away; runs on battery.
2. **Remote serving** — local servers park in S3 (holding state for a fast
   return) at ~5 W each while the surviving sites carry the displaced load
   at the performance :func:`~repro.fleet.contingency.fail_over` prices.
3. **Return** — traffic shifts home after utility restore; the resume bill
   is the S3 exit plus the return traffic shift.

:class:`CloudBurstTechnique` is the Section 7 variant for organisations
without a second site: identical mechanics, but the absorbing capacity is
rented, so the plan carries an op-ex rate.  :class:`GeoEconomics` prices
both on the same $/KW/yr axis as the Section 3 backup cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.costs import BackupCostModel
from repro.errors import ConfigurationError, TechniqueError
from repro.fleet.contingency import fail_over
from repro.fleet.spec import FleetSpec
from repro.techniques.base import (
    OutagePlan,
    OutageTechnique,
    PlanPhase,
    TechniqueContext,
    check_budget,
)
from repro.techniques.sleep import throttled_save_stretch
from repro.units import SECONDS_PER_YEAR, ordered_sum, to_kilowatts

#: The paper's TCO sketch: $2000 per server over 4 years.
DEFAULT_SERVER_CAPEX_DOLLARS = 2000.0
DEFAULT_SERVER_LIFETIME_YEARS = 4.0


class GeoFailoverTechnique(OutageTechnique):
    """Redirect load to power-uncorrelated sites, park the local fleet.

    Args:
        fleet: The fleet this datacenter belongs to.
        local_site: Which of its sites this datacenter is.
    """

    name = "geo-failover"

    def __init__(self, fleet: FleetSpec, local_site: str):
        self.fleet = fleet
        self.local_site = local_site
        # Validates the site exists.
        fleet.site(local_site)

    @property
    def performance(self) -> float:
        """Delivered fraction of the local load while it serves remotely."""
        displaced = self.fleet.site(self.local_site).load
        if displaced <= 0:
            return 1.0
        remote = fail_over(self.fleet, self.local_site).remote_served
        # The per-placement shares can sum a rounding step past displaced.
        return min(1.0, remote / displaced)

    def plan(self, context: TechniqueContext) -> OutagePlan:
        performance = self.performance
        server = context.server
        cluster = context.cluster
        workload = context.workload

        # Redirect window: keep serving locally, throttled to the budget if
        # one binds (the technique must survive on whatever UPS exists).
        pstate = server.pstates.fastest
        if context.power_budget_watts != float("inf"):
            per_server = context.power_budget_watts / cluster.num_servers
            try:
                pstate = server.pstate_for_power_budget(
                    per_server, utilization=workload.utilization
                )
            except Exception as exc:  # ConfigurationError -> infeasible
                raise TechniqueError(
                    "geo-failover cannot serve the redirect window within "
                    f"{context.power_budget_watts:.0f} W"
                ) from exc
        redirect = PlanPhase(
            name="redirecting",
            power_watts=cluster.power_watts(
                utilization=workload.utilization, pstate=pstate
            ),
            performance=workload.throttled_performance(pstate.frequency_ratio),
            duration_seconds=self.fleet.redirect_seconds,
            committed=False,
            state_safe=False,
            resume_downtime_seconds=0.0,
        )
        # Park in S3 (throttled entry) and let the fleet serve.
        stretch = throttled_save_stretch(server.pstates.slowest.frequency_ratio)
        suspend = PlanPhase(
            name="suspend-for-failover",
            power_watts=cluster.power_watts(
                utilization=workload.utilization, pstate=server.pstates.slowest
            ),
            performance=performance,
            duration_seconds=server.sleep.s3_enter_seconds * stretch,
            committed=True,
            state_safe=False,
            resume_downtime_seconds=server.sleep.s3_exit_seconds,
            crash_performance=performance,
        )
        remote = PlanPhase(
            name="served-remotely",
            power_watts=context.active_servers * server.sleep.s3_power_watts,
            performance=performance,
            duration_seconds=float("inf"),
            # The local fleet's S3 still dies with the battery, but the
            # remote sites keep serving at failover performance.
            state_safe=False,
            resume_downtime_seconds=server.sleep.s3_exit_seconds,
            crash_performance=performance,
            active_servers=context.active_servers,
        )
        phases = [redirect, suspend, remote]
        check_budget(phases, context.power_budget_watts, self.name)
        return OutagePlan(technique_name=self.name, phases=phases)


class CloudBurstTechnique(GeoFailoverTechnique):
    """Geo-failover onto rented cloud capacity (Section 7).

    Args:
        fleet: A fleet whose "cloud" site models the provider's absorbing
            capacity.
        local_site: The (only) owned site.
        dollars_per_server_hour: Rental rate while burst capacity serves.
    """

    name = "cloud-burst"

    def __init__(
        self,
        fleet: FleetSpec,
        local_site: str,
        dollars_per_server_hour: float = 0.50,
    ):
        super().__init__(fleet, local_site)
        if dollars_per_server_hour < 0:
            raise TechniqueError("rental rate must be >= 0")
        self.dollars_per_server_hour = dollars_per_server_hour

    def burst_cost_dollars(
        self, context: TechniqueContext, outage_seconds: float
    ) -> float:
        """Op-ex of renting replacement capacity for one outage."""
        rented_servers = fail_over(self.fleet, self.local_site).absorbed_load
        hours = max(0.0, outage_seconds - self.fleet.redirect_seconds) / 3600.0
        return rented_servers * self.dollars_per_server_hour * hours


def required_spare_fraction(fleet: FleetSpec, site: str) -> float:
    """Uniform spare fraction every power-uncorrelated survivor must hold
    for ``site``'s whole load to be placed — the capacity-planning knob
    Section 7 raises (``inf`` when even emptied survivors are too small)."""
    failed = fleet.site(site)
    capacity = _survivor_capacity(fleet, site)
    if capacity < failed.load:
        return float("inf")
    return failed.load / capacity if failed.load > 0 else 0.0


def _survivor_capacity(fleet: FleetSpec, site: str) -> float:
    region = fleet.site(site).power_region
    return ordered_sum(
        s.capacity for s in fleet.sites if s.power_region != region
    )


@dataclass(frozen=True)
class GeoEconomics:
    """Prices spare-capacity and cloud-burst failover strategies.

    Geo-failover is not free.  Absorbing a failed site's load requires the
    surviving sites to hold spare capacity — idle servers with cap-ex of
    their own — or renting cloud capacity per outage.  Both are quoted per
    KW of the protected site, on the Section 3 cost model's axis.

    Attributes:
        server_peak_watts: Per-server peak draw (cost is quoted per KW).
        server_capex_dollars: Up-front server cost.
        server_lifetime_years: Depreciation horizon.
        overhead_multiplier: Facility overhead on top of the bare server
            (land, shell, cooling share) — 1.6 is a modest PUE-ish uplift.
    """

    server_peak_watts: float = 250.0
    server_capex_dollars: float = DEFAULT_SERVER_CAPEX_DOLLARS
    server_lifetime_years: float = DEFAULT_SERVER_LIFETIME_YEARS
    overhead_multiplier: float = 1.6

    def __post_init__(self) -> None:
        if min(
            self.server_peak_watts,
            self.server_capex_dollars,
            self.server_lifetime_years,
            self.overhead_multiplier,
        ) <= 0:
            raise ConfigurationError("economics parameters must be positive")

    @property
    def spare_server_dollars_per_year(self) -> float:
        """Amortised yearly cost of one idle spare server."""
        return (
            self.server_capex_dollars
            * self.overhead_multiplier
            / self.server_lifetime_years
        )

    def spare_capacity_cost_per_kw_year(
        self, fleet: FleetSpec, failed_site: str
    ) -> float:
        """$/KW/yr (of the protected site's capacity) to hold enough spare
        across the fleet to place the failed site's whole load."""
        spare_fraction = required_spare_fraction(fleet, failed_site)
        if spare_fraction == float("inf"):
            return float("inf")
        spare_servers = _survivor_capacity(fleet, failed_site) * spare_fraction
        yearly = spare_servers * self.spare_server_dollars_per_year
        protected_kw = to_kilowatts(
            fleet.site(failed_site).load * self.server_peak_watts
        )
        if protected_kw <= 0:
            return 0.0
        return yearly / protected_kw

    def cloud_burst_cost_per_kw_year(
        self,
        displaced_servers: float,
        outage_seconds_per_year: float,
        dollars_per_server_hour: float,
        protected_servers: float,
    ) -> float:
        """$/KW/yr of renting burst capacity for the yearly outage budget."""
        if outage_seconds_per_year < 0 or dollars_per_server_hour < 0:
            raise ConfigurationError("rates must be >= 0")
        yearly = (
            displaced_servers
            * dollars_per_server_hour
            * (outage_seconds_per_year / 3600.0)
        )
        protected_kw = to_kilowatts(protected_servers * self.server_peak_watts)
        if protected_kw <= 0:
            return 0.0
        return yearly / protected_kw

    def cheaper_than_local_backup(
        self,
        fleet: FleetSpec,
        failed_site: str,
        cost_model: Optional[BackupCostModel] = None,
    ) -> bool:
        """Does geo spare for the whole load undercut a MaxPerf-style local
        backup (DG + base UPS) for the protected site?"""
        model = cost_model if cost_model is not None else BackupCostModel()
        local_per_kw = model.baseline_cost(1000.0) / 1.0  # $/KW/yr at 1 KW
        geo_per_kw = self.spare_capacity_cost_per_kw_year(fleet, failed_site)
        return geo_per_kw < local_per_kw

    def breakeven_outage_seconds_per_year(
        self,
        displaced_servers: float,
        protected_servers: float,
        dollars_per_server_hour: float,
        alternative_cost_per_kw_year: float,
    ) -> float:
        """Yearly outage time at which cloud burst's rent equals an
        always-on alternative (spare or hardware)."""
        if dollars_per_server_hour <= 0 or displaced_servers <= 0:
            return float("inf")
        protected_kw = to_kilowatts(protected_servers * self.server_peak_watts)
        yearly_budget = alternative_cost_per_kw_year * protected_kw
        hourly = displaced_servers * dollars_per_server_hour
        seconds = (yearly_budget / hourly) * 3600.0
        return min(seconds, SECONDS_PER_YEAR)
