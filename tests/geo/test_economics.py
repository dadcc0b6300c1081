"""GeoEconomics: spare-capacity pricing and cloud-burst breakeven."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.failover import GeoEconomics
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.units import SECONDS_PER_YEAR, to_kilowatts


def fleet():
    return FleetSpec(
        name="test",
        sites=tuple(
            SiteSpec(name=name, capacity=100.0, load=70.0, power_region=region)
            for name, region in (("west", "wecc"), ("east", "pjm"), ("eu", "eu"))
        ),
    )


class TestParameters:
    def test_positive_parameters_required(self):
        with pytest.raises(ConfigurationError):
            GeoEconomics(server_peak_watts=0.0)
        with pytest.raises(ConfigurationError):
            GeoEconomics(overhead_multiplier=-1.0)

    def test_spare_server_amortisation(self):
        econ = GeoEconomics(
            server_capex_dollars=2000.0,
            server_lifetime_years=4.0,
            overhead_multiplier=1.6,
        )
        assert econ.spare_server_dollars_per_year == pytest.approx(
            2000.0 * 1.6 / 4.0
        )


class TestSpareCapacityCost:
    def test_closed_form(self):
        econ = GeoEconomics()
        model = fleet()
        # spare fraction 70/200, spread over 200 survivor capacity ->
        # exactly 70 spare servers held for 70 protected load-servers.
        spare_servers = 200.0 * (70.0 / 200.0)
        yearly = spare_servers * econ.spare_server_dollars_per_year
        protected_kw = to_kilowatts(70.0 * econ.server_peak_watts)
        assert econ.spare_capacity_cost_per_kw_year(
            model, "west"
        ) == pytest.approx(yearly / protected_kw)

    def test_infeasible_fleet_is_infinite(self):
        model = FleetSpec(
            name="test",
            sites=(
                SiteSpec(name="dark", capacity=100.0, load=90.0,
                         power_region="r0"),
                SiteSpec(name="tiny", capacity=50.0, load=0.0,
                         power_region="r1"),
            ),
        )
        assert math.isinf(
            GeoEconomics().spare_capacity_cost_per_kw_year(model, "dark")
        )


class TestCloudBurst:
    def test_cost_scales_with_outage_budget(self):
        econ = GeoEconomics()
        cheap = econ.cloud_burst_cost_per_kw_year(
            displaced_servers=70.0,
            outage_seconds_per_year=3600.0,
            dollars_per_server_hour=0.5,
            protected_servers=70.0,
        )
        double = econ.cloud_burst_cost_per_kw_year(
            displaced_servers=70.0,
            outage_seconds_per_year=7200.0,
            dollars_per_server_hour=0.5,
            protected_servers=70.0,
        )
        assert double == pytest.approx(2.0 * cheap)
        assert cheap > 0

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoEconomics().cloud_burst_cost_per_kw_year(
                70.0, -1.0, 0.5, 70.0
            )


class TestBreakeven:
    def test_breakeven_matches_cloud_cost(self):
        """At the breakeven outage budget, renting costs the alternative."""
        econ = GeoEconomics()
        alternative = 80.0  # $/KW/yr
        seconds = econ.breakeven_outage_seconds_per_year(
            displaced_servers=70.0,
            protected_servers=70.0,
            dollars_per_server_hour=0.5,
            alternative_cost_per_kw_year=alternative,
        )
        assert 0 < seconds < SECONDS_PER_YEAR
        rent = econ.cloud_burst_cost_per_kw_year(
            displaced_servers=70.0,
            outage_seconds_per_year=seconds,
            dollars_per_server_hour=0.5,
            protected_servers=70.0,
        )
        assert rent == pytest.approx(alternative)

    def test_free_cloud_never_breaks_even(self):
        econ = GeoEconomics()
        assert math.isinf(
            econ.breakeven_outage_seconds_per_year(70.0, 70.0, 0.0, 80.0)
        )

    def test_capped_at_a_year(self):
        econ = GeoEconomics()
        seconds = econ.breakeven_outage_seconds_per_year(
            displaced_servers=0.001,
            protected_servers=70.0,
            dollars_per_server_hour=0.001,
            alternative_cost_per_kw_year=1e9,
        )
        assert seconds == SECONDS_PER_YEAR

    def test_cheaper_than_local_backup_monotone_in_price(self):
        model = fleet()
        cheap_spare = GeoEconomics(server_capex_dollars=1.0)
        costly_spare = GeoEconomics(server_capex_dollars=10_000_000.0)
        assert cheap_spare.cheaper_than_local_backup(model, "west")
        assert not costly_spare.cheaper_than_local_backup(model, "west")
