"""FleetSpec/SiteSpec: validation, registry, canonical encodability."""

import json
import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import (
    DEFAULT_FLEET,
    FleetSpec,
    SiteSpec,
    fleet_names,
    get_fleet,
)
from repro.runner.jobs import canonical_encode


class TestSiteSpec:
    def test_defaults_are_valid(self):
        site = SiteSpec(name="a")
        assert site.workload == "websearch"
        assert site.spare_capacity == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SiteSpec(name="")
        with pytest.raises(ConfigurationError):
            SiteSpec(name="a", servers=0)
        with pytest.raises(ConfigurationError):
            SiteSpec(name="a", capacity=0.0)
        with pytest.raises(ConfigurationError):
            SiteSpec(name="a", capacity=1.0, load=1.1)
        with pytest.raises(ConfigurationError):
            SiteSpec(name="a", rtt_seconds=-0.1)

    def test_nan_rtt_rejected(self):
        # latency_factor would turn a NaN RTT into no penalty at all.
        with pytest.raises(ConfigurationError, match="rtt"):
            SiteSpec(name="a", rtt_seconds=math.nan)


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(name="empty", sites=())
        with pytest.raises(ConfigurationError):
            FleetSpec(
                name="dup",
                sites=(SiteSpec(name="a"), SiteSpec(name="a")),
            )
        sites = (SiteSpec(name="a"),)
        with pytest.raises(ConfigurationError):
            FleetSpec(name="f", sites=sites, shock_rate_per_year=-1.0)
        with pytest.raises(ConfigurationError):
            FleetSpec(name="f", sites=sites, correlation=1.5)
        with pytest.raises(ConfigurationError):
            FleetSpec(name="f", sites=sites, spillover=-0.1)
        with pytest.raises(ConfigurationError):
            FleetSpec(name="f", sites=sites, redirect_seconds=-1.0)

    @pytest.mark.parametrize(
        "field, message",
        [("redirect_seconds", "redirect"), ("shock_rate_per_year", "shock")],
    )
    def test_nan_knobs_rejected(self, field, message):
        # A NaN redirect would silently turn routing off (no interval is
        # ever past it), and a NaN rate would silently turn shocks off.
        with pytest.raises(ConfigurationError, match=message):
            replace(get_fleet("us-triad"), **{field: math.nan})

    def test_totals_and_lookup(self):
        fleet = get_fleet("us-triad")
        assert fleet.total_load == pytest.approx(1.8)
        assert fleet.site("east").power_region == "pjm"
        with pytest.raises(ConfigurationError):
            fleet.site("nowhere")

    def test_power_regions_first_appearance_order(self):
        fleet = get_fleet("regional-quad")
        # houston and dallas share ercot; order must be stable for the
        # seeded epicenter draws.
        assert fleet.power_regions == ("ercot", "serc", "wecc")

    def test_with_uniform(self):
        fleet = get_fleet("us-triad").with_uniform(
            configuration="NoDG", technique="sleep-l"
        )
        assert all(s.configuration == "NoDG" for s in fleet.sites)
        assert all(s.technique == "sleep-l" for s in fleet.sites)
        # untouched fields survive
        assert [s.power_region for s in fleet.sites] == [
            "pjm", "miso", "wecc",
        ]

    def test_with_shocks(self):
        fleet = get_fleet("us-triad").with_shocks(6.0, 0.5)
        assert fleet.shock_rate_per_year == 6.0
        assert fleet.correlation == 0.5


class TestRegistry:
    def test_known_fleets(self):
        names = fleet_names()
        assert DEFAULT_FLEET in names
        for name in names:
            assert get_fleet(name).name == name

    def test_lookup_case_insensitive(self):
        assert get_fleet("US-TRIAD").name == "us-triad"

    def test_unknown_fleet(self):
        with pytest.raises(ConfigurationError):
            get_fleet("atlantis")

    def test_specs_are_canonically_encodable(self):
        # fleet jobs carry FleetSpec in their spec dicts; the runner
        # must be able to fingerprint them, i.e. the canonical form
        # must be JSON-serializable and stable.
        for name in fleet_names():
            encoded = canonical_encode({"fleet": get_fleet(name)})
            dumped = json.dumps(encoded, sort_keys=True)
            assert dumped == json.dumps(
                canonical_encode({"fleet": get_fleet(name)}), sort_keys=True
            )
