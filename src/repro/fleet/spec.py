"""Fleet specifications: many sites, one scenario, canonical encoding.

A :class:`FleetSpec` is the *input* language of the fleet engine: a tuple
of :class:`SiteSpec` rows (each naming a workload, a Table-3 backup
configuration, a technique and a slice of serving capacity) plus the
regional-shock knobs of :mod:`repro.fleet.correlation`.  Everything is a
frozen dataclass of primitives, so a spec drops straight into
:func:`repro.runner.jobs.canonical_encode` — fleet jobs fingerprint and
cache exactly like single-site jobs do.

Capacity and load are in *server-equivalents of delivered work*, so they
compose with the cluster/performance normalisation used everywhere else.

A small registry of named fleets gives the CLI/serve layers stable,
fingerprintable handles (``us-triad``, ``coastal-pair``, ``regional-quad``,
``cloud-hybrid``) — a request carries the *name*, never the object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import ordered_sum

#: Traffic-shift convergence time (DNS TTLs / anycast withdrawal).
DEFAULT_REDIRECT_SECONDS = 90.0


@dataclass(frozen=True)
class SiteSpec:
    """One datacenter in a fleet scenario.

    Attributes:
        name: Site identifier (unique within the fleet).
        workload: Registered workload name driving the site.
        configuration: Table-3 backup configuration name.
        technique: Registered outage-technique name for local handling.
        servers: Cluster size for the site's simulator instance.
        capacity: Serving capacity in server-equivalents of work.
        load: Normal-operation load (<= capacity); the headroom is what
            absorbs other sites' failover traffic.
        power_region: Utility correlation group — shocks are regional,
            and sites sharing a region cannot back each other up.
        rtt_seconds: Client round-trip when this site serves redirected
            traffic (feeds the latency penalty of the routing model).
    """

    name: str
    workload: str = "websearch"
    configuration: str = "LargeEUPS"
    technique: str = "full-service"
    servers: int = 16
    capacity: float = 1.0
    load: float = 0.6
    power_region: str = "default"
    rtt_seconds: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("site name must be non-empty")
        if self.servers < 1:
            raise ConfigurationError(f"{self.name}: servers must be >= 1")
        if self.capacity <= 0:
            raise ConfigurationError(f"{self.name}: capacity must be positive")
        if not 0 <= self.load <= self.capacity:
            raise ConfigurationError(
                f"{self.name}: load must be within [0, capacity]"
            )
        if not self.rtt_seconds >= 0:  # NaN too
            raise ConfigurationError(f"{self.name}: rtt must be >= 0")

    @property
    def spare_capacity(self) -> float:
        return self.capacity - self.load

    def with_spare_fraction(self, spare_fraction: float) -> "SiteSpec":
        """This site re-loaded to keep ``spare_fraction`` of capacity free."""
        if not 0 <= spare_fraction <= 1:
            raise ConfigurationError("spare_fraction must be in [0, 1]")
        return replace(self, load=self.capacity * (1 - spare_fraction))


@dataclass(frozen=True)
class FleetSpec:
    """A fleet scenario: sites plus the correlated-shock model.

    Attributes:
        name: Scenario identifier.
        sites: The fleet, in a fixed order (seed streams are positional).
        shock_rate_per_year: Poisson rate of regional shock events
            (storms, grid collapses) laid *on top of* each site's own
            Figure 1 outage process.
        correlation: Probability a shock strikes each site in its
            epicenter power region; 0 turns the shock layer into a
            no-op on every schedule (the independence anchor).
        spillover: Fraction of ``correlation`` applied to sites *outside*
            the epicenter region — shocks have soft edges.
        redirect_seconds: Traffic-shift convergence time before a dark
            site's load serves remotely.
    """

    name: str
    sites: Tuple[SiteSpec, ...] = field(default_factory=tuple)
    shock_rate_per_year: float = 0.0
    correlation: float = 0.0
    spillover: float = 0.25
    redirect_seconds: float = DEFAULT_REDIRECT_SECONDS

    def __post_init__(self) -> None:
        if not self.sites:
            raise ConfigurationError("fleet needs at least one site")
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ConfigurationError("site names must be unique")
        if not self.shock_rate_per_year >= 0:  # NaN too
            raise ConfigurationError("shock rate must be >= 0")
        if not 0 <= self.correlation <= 1:
            raise ConfigurationError("correlation must be in [0, 1]")
        if not 0 <= self.spillover <= 1:
            raise ConfigurationError("spillover must be in [0, 1]")
        if not self.redirect_seconds >= 0:  # NaN too
            raise ConfigurationError("redirect_seconds must be >= 0")

    @property
    def total_load(self) -> float:
        return ordered_sum(site.load for site in self.sites)

    @property
    def power_regions(self) -> Tuple[str, ...]:
        """Distinct power regions, first-appearance order (seeded shock
        epicenter draws index into this tuple, so order must be stable)."""
        seen: List[str] = []
        for site in self.sites:
            if site.power_region not in seen:
                seen.append(site.power_region)
        return tuple(seen)

    def site(self, name: str) -> SiteSpec:
        for candidate in self.sites:
            if candidate.name == name:
                return candidate
        raise ConfigurationError(f"unknown site {name!r} in fleet {self.name!r}")

    # -- derivation helpers ---------------------------------------------------

    def with_uniform(
        self,
        configuration: Optional[str] = None,
        technique: Optional[str] = None,
        workload: Optional[str] = None,
    ) -> "FleetSpec":
        """Every site re-provisioned to the same configuration/technique —
        the per-cell transform of the fleet frontier sweep."""
        sites = []
        for site in self.sites:
            changes: Dict[str, str] = {}
            if configuration is not None:
                changes["configuration"] = configuration
            if technique is not None:
                changes["technique"] = technique
            if workload is not None:
                changes["workload"] = workload
            sites.append(replace(site, **changes) if changes else site)
        return replace(self, sites=tuple(sites))

    def with_shocks(
        self, shock_rate_per_year: float, correlation: float
    ) -> "FleetSpec":
        return replace(
            self,
            shock_rate_per_year=shock_rate_per_year,
            correlation=correlation,
        )


def _named_fleets() -> Dict[str, FleetSpec]:
    fleets = [
        # Three equal sites in three power regions with identical client
        # RTTs: the cleanest "the fleet is the backup" geometry (0.4 spare
        # at each survivor covers a 0.6 dark load with no latency penalty).
        FleetSpec(
            name="us-triad",
            sites=(
                SiteSpec(name="east", power_region="pjm", rtt_seconds=0.05),
                SiteSpec(name="central", power_region="miso", rtt_seconds=0.05),
                SiteSpec(name="west", power_region="wecc", rtt_seconds=0.05),
            ),
        ),
        # Two sites, asymmetric RTTs: failover pays the Table-7 latency
        # penalty, and N-1 leaves no redundancy at all.
        FleetSpec(
            name="coastal-pair",
            sites=(
                SiteSpec(
                    name="virginia",
                    capacity=1.0,
                    load=0.5,
                    power_region="pjm",
                    rtt_seconds=0.04,
                ),
                SiteSpec(
                    name="oregon",
                    capacity=1.0,
                    load=0.5,
                    power_region="wecc",
                    rtt_seconds=0.09,
                ),
            ),
        ),
        # Four sites, two sharing a gulf-coast grid: a regional shock can
        # darken both at once, and neither may absorb the other's load.
        FleetSpec(
            name="regional-quad",
            sites=(
                SiteSpec(
                    name="houston",
                    load=0.55,
                    power_region="ercot",
                    rtt_seconds=0.05,
                ),
                SiteSpec(
                    name="dallas",
                    load=0.55,
                    power_region="ercot",
                    rtt_seconds=0.05,
                ),
                SiteSpec(
                    name="atlanta",
                    load=0.55,
                    power_region="serc",
                    rtt_seconds=0.06,
                ),
                SiteSpec(
                    name="denver",
                    load=0.55,
                    power_region="wecc",
                    rtt_seconds=0.07,
                ),
            ),
        ),
        # One owned site plus rented cloud headroom: the Section 7
        # cloud-burst story (the "cloud" site carries no load of its own).
        FleetSpec(
            name="cloud-hybrid",
            sites=(
                SiteSpec(
                    name="onprem",
                    capacity=1.0,
                    load=0.7,
                    power_region="local",
                    rtt_seconds=0.05,
                ),
                SiteSpec(
                    name="cloud",
                    capacity=4.0,
                    load=0.0,
                    power_region="cloud",
                    rtt_seconds=0.12,
                ),
            ),
        ),
    ]
    return {fleet.name: fleet for fleet in fleets}


_FLEETS = _named_fleets()

#: The default fleet for CLI/serve requests that name none.
DEFAULT_FLEET = "us-triad"


def fleet_names() -> List[str]:
    """Registered fleet scenario names."""
    return list(_FLEETS)


def get_fleet(name: str) -> FleetSpec:
    """Look up a named fleet scenario."""
    fleet = _FLEETS.get(name.lower())
    if fleet is None:
        raise ConfigurationError(
            f"unknown fleet {name!r}; known: {', '.join(fleet_names())}"
        )
    return fleet
