"""Correlated regional shocks layered on the per-site outage processes.

Figure 1's statistics describe *one* datacenter's utility.  At fleet
scale the dangerous events are the correlated ones — an ice storm or a
grid collapse that darkens several sites in the same interconnect at
once, exactly when failover capacity is scarcest (the scenario framing
of the stochastic-optimization backup literature).

The sampler is a seeded shared-shock (one-factor copula) construction:

* shock *events* arrive as a Poisson process at ``shock_rate_per_year``,
  each with a uniform start and a duration drawn from the same
  Figure 1(b) empirical distribution single-site outages use;
* each shock picks an epicenter power region uniformly at random and
  then strikes every site with an independent Bernoulli whose success
  probability is ``correlation`` inside the epicenter region and
  ``correlation * spillover`` outside it.

``correlation = 0`` (or a zero rate) makes the layer a strict no-op:
no site is ever struck, and :func:`merge_outage_events` returns each
site's base schedule *object* unchanged — the bit-identical anchor the
independence regression pins.  Raising ``correlation`` strictly raises
every site's shock-hit probability simultaneously, which is what makes
the probability of multi-site simultaneous outages monotone in it (the
smoke certification's gate 3).

The per-site hit draws happen in fleet site order for *every* shock
regardless of outcome, so the stream a given site consumes depends only
on (seed, shock index, site position) — never on which other sites were
hit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    EmpiricalDistribution,
)
from repro.outages.events import OutageEvent, OutageSchedule
from repro.units import SECONDS_PER_YEAR


class RegionalShockSampler:
    """Seeded sampler of per-site shock outage events for one year.

    Args:
        fleet: The scenario (rate, correlation, spillover, regions).
        duration_distribution: Shock-duration distribution (defaults to
            Figure 1(b) — regional events are drawn from the same
            empirical tail as local ones).
        horizon_seconds: Year length.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        duration_distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
        horizon_seconds: float = SECONDS_PER_YEAR,
    ):
        if horizon_seconds <= 0:
            raise ConfigurationError("horizon must be positive")
        self.fleet = fleet
        self._durations = duration_distribution
        self._horizon = float(horizon_seconds)

    @property
    def active(self) -> bool:
        """Whether any shock can strike: :meth:`sample_year` draws from
        its ``rng`` only then."""
        return self.fleet.shock_rate_per_year > 0 and self.fleet.correlation > 0

    def sample_year(
        self, rng: np.random.Generator
    ) -> Dict[str, List[OutageEvent]]:
        """Per-site shock events for one year (site name -> events).

        Events are clipped to the horizon; sites never struck map to an
        empty list.  The dict covers every site, in fleet order.
        """
        fleet = self.fleet
        hits: Dict[str, List[OutageEvent]] = {
            site.name: [] for site in fleet.sites
        }
        if not self.active:
            return hits
        regions = fleet.power_regions
        count = int(rng.poisson(fleet.shock_rate_per_year))
        for _ in range(count):
            start = float(rng.uniform(0.0, self._horizon))
            duration = float(self._durations.sample(rng, size=1)[0])
            duration = min(duration, self._horizon - start)
            epicenter = regions[int(rng.integers(0, len(regions)))]
            # One Bernoulli per site per shock, fleet order, drawn
            # unconditionally: site streams are position-stable.
            draws = rng.random(len(fleet.sites))
            if duration <= 0:
                continue
            for site, draw in zip(fleet.sites, draws):
                probability = fleet.correlation * (
                    1.0 if site.power_region == epicenter else fleet.spillover
                )
                if draw < probability:
                    hits[site.name].append(
                        OutageEvent(
                            start_seconds=start, duration_seconds=duration
                        )
                    )
        return hits


def merge_outage_events(
    base: OutageSchedule, shocks: Sequence[OutageEvent]
) -> OutageSchedule:
    """Union a site's base schedule with its shock events.

    Overlapping intervals coalesce (a shock striking mid-outage extends
    the outage; the site does not fail twice at once) and the result is
    clipped to the base horizon.  With no shocks the *same schedule
    object* is returned — the fleet layer adds exactly nothing to the
    certified single-site path, not even a float round-trip.
    """
    if not shocks:
        return base
    intervals = sorted(
        [(e.start_seconds, e.end_seconds) for e in base.events]
        + [(e.start_seconds, min(e.end_seconds, base.horizon_seconds))
           for e in shocks],
    )
    merged: List[List[float]] = []
    for start, end in intervals:
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return OutageSchedule(
        events=tuple(
            OutageEvent(start_seconds=start, duration_seconds=end - start)
            for start, end in merged
        ),
        horizon_seconds=base.horizon_seconds,
    )
