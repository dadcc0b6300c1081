"""The fleet router against the per-interval scalar loop, at scale.

Every fleet payload's routed and unrouted totals come from the array
router in :mod:`repro.fleet.routing`, driven by
:func:`repro.fleet.sim.simulate_fleet_routings` over windows sampled by
``_sample_fleet_years``.  For every named fleet and its shocked variant
(``with_shocks(6.0, 0.6)``: merged schedules, multi-site dark years,
shared power regions), at 3 roots x 40 years seeded as a fleet frontier
job seeds them, this test requires each year's fleet totals under both
routings to be ``==`` :func:`tests.fleet.reference.
reference_route_fleet_year` on the same windows, year by year.  The
4-year ``TestBatchAgainstScalarReference`` in ``tests/fleet/test_sim.py``
holds the whole fleet year (kernel included) to the scalar engine; this
is the routing stage's check at frontier scale.
"""

import numpy as np
import pytest

from repro.fleet.routing import OutageWindow, SiteTimeline
from repro.fleet.sim import _no_span, _sample_fleet_years, simulate_fleet_routings
from repro.fleet.spec import fleet_names, get_fleet
from repro.runner.jobs import child_seed
from repro.units import SECONDS_PER_YEAR

from tests.fleet.reference import reference_route_fleet_year

YEARS = 40
ROUTINGS = (False, True)
ROOTS = {
    "seed-7": lambda: np.random.SeedSequence(7),
    "wide-keyed": lambda: np.random.SeedSequence(2**70 + 3, spawn_key=(5,)),
    "list-pool-8": lambda: np.random.SeedSequence([2**40 + 1, 9], pool_size=8),
}
FLEETS = {
    **{name: lambda name=name: get_fleet(name) for name in fleet_names()},
    **{
        f"{name}+shocks": lambda name=name: get_fleet(name).with_shocks(6.0, 0.6)
        for name in fleet_names()
    },
}


def year_timelines(fleet, sample, year):
    """Each site's windows in ``year``, as the scalar router's timelines."""
    timelines = []
    for site, windows in zip(fleet.sites, sample.windows):
        mine = windows.year == year
        timelines.append(
            SiteTimeline(
                name=site.name,
                capacity=site.capacity,
                load=site.load,
                power_region=site.power_region,
                rtt_seconds=site.rtt_seconds,
                windows=tuple(
                    OutageWindow(start, end, performance)
                    for start, end, performance in zip(
                        windows.start[mine].tolist(),
                        windows.end[mine].tolist(),
                        windows.performance[mine].tolist(),
                    )
                ),
            )
        )
    return timelines


@pytest.mark.parametrize("root", sorted(ROOTS))
@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_routed_years_equal_scalar_loop(fleet, root):
    fleet = FLEETS[fleet]()
    root = ROOTS[root]()
    seeds = [child_seed(root, y) for y in range(YEARS)]
    sample = _sample_fleet_years(fleet, seeds, _no_span, None)
    results = simulate_fleet_routings(fleet, ROUTINGS, seeds)
    for year in range(YEARS):
        timelines = year_timelines(fleet, sample, year)
        for routing, years in zip(ROUTINGS, results):
            expected = reference_route_fleet_year(
                timelines, SECONDS_PER_YEAR, fleet.redirect_seconds, routing
            )
            expected["shock_site_hits"] = float(sample.shock_hits[year])
            assert years[year]["fleet"] == expected, (
                f"year {year}, routing={routing}: totals differ"
            )
    # Not vacuous: routing moved load in some year.
    assert any(year["fleet"]["remote_served"] > 0 for year in results[1])
