"""Characterization: geo-failover priced by the fleet router.

Geo-failover used to have a model of its own, which averaged the
absorption-weighted RTT before it applied the latency penalty and never
applied the degraded-survivor factor.  It is now priced by
:func:`repro.fleet.contingency.fail_over` (``serve_instant`` with the
local site dark).  This module pins where the two models agreed bit for
bit — the registered techniques, so their payloads did not move — and
the fleet's numbers where they differed (the old model's in comments):

* a survivor pushed past ``DEGRADED_UTILIZATION`` serves at
  ``SURVIVOR_DEGRADED_FACTOR``;
* a host so far away that its latency factor floors at 0 is clamped per
  placement, not after averaging;
* float rounding: the fleet sums per-placement products.
"""

import pytest

from repro.fleet.failover import GeoFailoverTechnique
from repro.fleet.spec import FleetSpec, SiteSpec, get_fleet
from repro.techniques.registry import get_technique


def performance(fleet, name):
    return GeoFailoverTechnique(fleet, name).performance


def three_sites(rtts, load=0.7):
    return FleetSpec(
        name="three",
        sites=tuple(
            SiteSpec(name=name, load=load, power_region=name, rtt_seconds=rtt)
            for name, rtt in zip(("west", "east", "eu"), rtts)
        ),
    )


class TestModelsAgree:
    @pytest.mark.parametrize(
        "technique, fleet, site, expected",
        [
            ("geo-failover", "us-triad", "east", 1.0),
            ("cloud-burst", "cloud-hybrid", "onprem", 0.895),
        ],
    )
    def test_registered_techniques(self, technique, fleet, site, expected):
        tech = get_technique(technique)
        assert tech.fleet == get_fleet(fleet)
        assert tech.local_site == site
        assert tech.performance == expected


class TestModelsDiffer:
    def test_degraded_survivor(self):
        # oregon absorbs virginia's 0.5 at utilization 1.0 > 0.95.
        # Old model: 0.925.
        fleet = get_fleet("coastal-pair")
        assert performance(fleet, "virginia") == 0.925 * 0.85

    @pytest.mark.parametrize(
        "rtts, expected",
        [
            # the integration-test fleet (old model: 0.7479)
            ((0.05, 0.12, 0.15), 0.6357),
            # the replication-test fleet (old model: 0.7929)
            ((0.05, 0.05, 0.15), 0.6739),
        ],
    )
    def test_degraded_survivors_on_three_sites(self, rtts, expected):
        # 0.6 spare for 0.7 displaced: both survivors end at 1.0.
        assert performance(three_sites(rtts), "west") == pytest.approx(
            expected, abs=1e-4
        )

    def test_latency_clamped_per_placement(self):
        # Half the load lands 1 s away (factor floors at 0), half next
        # door.  Old model, clamping the 0.5 s mean: 1 - 0.15 * 5 = 0.25.
        fleet = FleetSpec(
            name="far",
            sites=(
                SiteSpec(name="dark", load=0.4, power_region="a",
                         rtt_seconds=0.0),
                SiteSpec(name="near", load=0.0, power_region="b",
                         rtt_seconds=0.0),
                SiteSpec(name="far", load=0.0, power_region="c",
                         rtt_seconds=1.0),
            ),
        )
        assert performance(fleet, "dark") == pytest.approx(0.5)

    def test_one_ulp_on_regional_quad(self):
        # Old model: 0.9775.
        fleet = get_fleet("regional-quad")
        assert performance(fleet, "houston") == 0.9774999999999999
