"""fail_over and N-1/N-2 contingency analysis: deterministic geometry verdicts."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.contingency import (
    contingency_report,
    contingency_scenarios,
    fail_over,
)
from repro.fleet.spec import get_fleet


class TestFailOver:
    def test_one_site_by_name(self):
        instant = fail_over(get_fleet("coastal-pair"), "virginia")
        assert instant.demand == pytest.approx(1.0)
        assert instant.local_served == pytest.approx(0.5)
        assert instant.absorbed_load == pytest.approx(0.5)
        assert instant.per_site_absorption == {"oregon": 0.5}
        # oregon ends at utilization 1.0: degraded, and 50 ms further out.
        assert instant.degraded_sites == ("oregon",)
        assert instant.remote_served == pytest.approx(0.5 * 0.925 * 0.85)

    def test_name_or_names(self):
        fleet = get_fleet("regional-quad")
        assert fail_over(fleet, "houston") == fail_over(fleet, ["houston"])
        both = fail_over(fleet, ("houston", "dallas"))
        assert both.local_served == pytest.approx(1.1)
        assert set(both.per_site_absorption) == {"atlanta", "denver"}

    def test_unknown_site(self):
        with pytest.raises(ConfigurationError):
            fail_over(get_fleet("us-triad"), ["east", "mars"])

    def test_scenarios_price_with_fail_over(self):
        fleet = get_fleet("regional-quad")
        for record in contingency_scenarios(fleet, depth=2):
            instant = fail_over(fleet, record["lost_sites"])
            assert record["absorbed_load"] == instant.absorbed_load
            assert record["remote_served"] == instant.remote_served


class TestScenarios:
    def test_counts(self):
        fleet = get_fleet("regional-quad")  # 4 sites
        scenarios = contingency_scenarios(fleet, depth=2)
        orders = [s["order"] for s in scenarios]
        assert orders.count(1) == 4
        assert orders.count(2) == 6

    def test_depth_clamped_to_fleet_size(self):
        fleet = get_fleet("coastal-pair")  # 2 sites
        scenarios = contingency_scenarios(fleet, depth=5)
        assert max(s["order"] for s in scenarios) == 2

    def test_depth_validated(self):
        with pytest.raises(ConfigurationError):
            contingency_scenarios(get_fleet("us-triad"), depth=0)

    def test_us_triad_survives_n1(self):
        # 0.6 displaced onto 0.4+0.4 spare in other regions, equal RTTs
        report = contingency_report(get_fleet("us-triad"))
        assert report["n1_safe"] is True
        assert report["n2_safe"] is False

    def test_shared_region_pair_cannot_back_each_other(self):
        fleet = get_fleet("regional-quad")
        scenarios = contingency_scenarios(fleet, depth=2)
        both_ercot = next(
            s
            for s in scenarios
            if s["lost_sites"] == ["dallas", "houston"]
        )
        # survivors can absorb at most their spare (0.45 + 0.45)
        assert both_ercot["absorbed_load"] == pytest.approx(0.9)
        assert not both_ercot["fully_served"]

    def test_determinism(self):
        fleet = get_fleet("regional-quad")
        assert contingency_report(fleet) == contingency_report(fleet)


class TestReport:
    def test_worst_is_minimum_delivery(self):
        report = contingency_report(get_fleet("us-triad"))
        worst = report["worst"]
        assert worst["delivered_fraction"] == min(
            s["delivered_fraction"] for s in report["scenarios"]
        )

    def test_cloud_hybrid_n1_onprem_covered(self):
        # losing onprem (0.7 load) routes to the 4.0-capacity cloud site;
        # the latency penalty degrades but every unit of load lands.
        report = contingency_report(get_fleet("cloud-hybrid"), depth=1)
        onprem_loss = next(
            s
            for s in report["scenarios"]
            if s["lost_sites"] == ["onprem"]
        )
        assert onprem_loss["absorbed_load"] == pytest.approx(0.7)
        assert onprem_loss["delivered_fraction"] < 1.0  # +70ms RTT
