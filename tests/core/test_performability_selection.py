"""Performability evaluation and the Section 6 selection rules."""

import math

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import (
    evaluate_point,
    make_datacenter,
    plan_power_budget_watts,
)
from repro.core.selection import (
    best_technique,
    lowest_cost_backup,
    rank_techniques,
)
from repro.errors import InfeasibleError
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.memcached import memcached
from repro.workloads.specjbb import specjbb


class TestEvaluatePoint:
    def test_maxperf_point(self):
        point = evaluate_point(
            get_configuration("MaxPerf"),
            get_technique("full-service"),
            specjbb(),
            minutes(30),
        )
        assert point.feasible
        assert point.performance == pytest.approx(1.0)
        assert point.downtime_seconds == 0.0
        assert point.normalized_cost == pytest.approx(1.0)

    def test_infeasible_technique_reported_not_raised(self):
        # Throttling cannot fit a 10 %-power UPS.
        from repro.core.configurations import BackupConfiguration

        tiny = BackupConfiguration("tiny", 0.0, 0.1, minutes(2))
        point = evaluate_point(
            tiny, get_technique("throttling"), specjbb(), minutes(5)
        )
        assert not point.feasible
        assert point.performance == 0.0
        assert math.isinf(point.downtime_seconds)
        assert point.crashed

    def test_budget_is_ups_rating_when_ups_present(self):
        dc = make_datacenter(specjbb(), get_configuration("DG-SmallPUPS"))
        assert plan_power_budget_watts(dc) == pytest.approx(
            0.5 * dc.cluster.peak_power_watts
        )

    def test_budget_is_dg_rating_when_no_ups(self):
        dc = make_datacenter(specjbb(), get_configuration("NoUPS"))
        assert plan_power_budget_watts(dc) == pytest.approx(
            dc.cluster.peak_power_watts
        )

    def test_budget_unbounded_with_no_backup(self):
        dc = make_datacenter(specjbb(), get_configuration("MinCost"))
        assert math.isinf(plan_power_budget_watts(dc))

    def test_point_metadata(self):
        point = evaluate_point(
            get_configuration("NoDG"), get_technique("sleep"), specjbb(), 60
        )
        assert point.configuration_name == "NoDG"
        assert point.technique_name == "sleep"
        assert point.workload_name == "specjbb"
        assert point.downtime_minutes == pytest.approx(point.downtime_seconds / 60)


class TestBestTechnique:
    def test_maxperf_picks_full_service(self):
        point = best_technique(get_configuration("MaxPerf"), specjbb(), minutes(30))
        assert point.technique_name == "full-service"
        assert point.downtime_seconds == 0.0

    def test_nodg_short_outage_full_service(self):
        # 30 s fits inside the free 2-minute runtime: nothing beats just
        # riding it out at full performance.
        point = best_technique(get_configuration("NoDG"), specjbb(), 30)
        assert point.downtime_seconds == 0.0
        assert point.performance == pytest.approx(1.0)

    def test_nodg_5min_prefers_deep_throttle(self):
        # Paper: NoDG at 5 min degrades to ~60 % but stays up.
        point = best_technique(get_configuration("NoDG"), specjbb(), minutes(5))
        assert point.downtime_seconds == 0.0
        assert 0.4 < point.performance < 0.8

    def test_largeeups_full_service_through_30min(self):
        # Paper: LargeEUPS matches MaxPerf up to its 30-minute runtime.
        point = best_technique(get_configuration("LargeEUPS"), specjbb(), minutes(30))
        assert point.downtime_seconds == 0.0
        assert point.performance == pytest.approx(1.0)

    def test_mincost_point_still_returned(self):
        point = best_technique(get_configuration("MinCost"), specjbb(), 30)
        assert point.feasible
        assert point.downtime_seconds > 0


class TestLowestCostBackup:
    def test_sleep_l_sized_cheap_for_short_outage(self):
        sized = lowest_cost_backup(get_technique("sleep-l"), specjbb(), 30)
        assert sized.normalized_cost < 0.25
        assert not sized.point.crashed

    def test_full_power_needed_for_plain_sleep(self):
        # Plain sleep suspends at ~full draw, so its UPS must be near
        # full power; Sleep-L halves that.
        plain = lowest_cost_backup(get_technique("sleep"), specjbb(), 30)
        low = lowest_cost_backup(get_technique("sleep-l"), specjbb(), 30)
        assert (
            low.configuration.ups_power_fraction
            < plain.configuration.ups_power_fraction
        )
        assert low.normalized_cost < plain.normalized_cost

    def test_throttling_expensive_for_very_long_outage(self):
        # Paper: throttling "becomes infeasible ... for cost less than 56 %
        # of MaxPerf" on long outages — a big enough battery always works,
        # but at a price far above the sleep hybrids.
        throttled = lowest_cost_backup(get_technique("throttling"), specjbb(), hours(6))
        hybrid = lowest_cost_backup(
            get_technique("throttle+sleep-l"), specjbb(), hours(6)
        )
        assert throttled.normalized_cost > 2 * hybrid.normalized_cost

    def test_runtime_cap_makes_throttling_infeasible(self):
        with pytest.raises(InfeasibleError):
            lowest_cost_backup(
                get_technique("throttling"),
                specjbb(),
                hours(6),
                max_runtime_seconds=minutes(30),
            )

    def test_throttle_sleep_l_survives_two_hours_cheaply(self):
        # Paper: Throttle+Sleep-L sustains 2 h at ~20 % of MaxPerf cost.
        sized = lowest_cost_backup(
            get_technique("throttle+sleep-l"), specjbb(), hours(2)
        )
        assert sized.normalized_cost < 0.3
        assert not sized.point.crashed

    def test_proactive_migration_cheaper_than_migration_for_memcached(self):
        # Paper (Figure 7): PM saves ~20 % more than Migration because the
        # read-only cache leaves almost nothing to move.
        mc = memcached()
        migration = lowest_cost_backup(get_technique("migration"), mc, minutes(30))
        proactive = lowest_cost_backup(
            get_technique("proactive-migration"), mc, minutes(30)
        )
        assert proactive.normalized_cost < migration.normalized_cost

    def test_runtime_minimality(self):
        # Shrinking the found runtime by 20 % must crash the plan.
        from repro.core.configurations import BackupConfiguration

        sized = lowest_cost_backup(
            get_technique("throttling-p6"), specjbb(), minutes(10)
        )
        config = sized.configuration
        smaller = BackupConfiguration(
            "probe",
            0.0,
            config.ups_power_fraction,
            max(1.0, config.ups_runtime_seconds * 0.8),
        )
        point = evaluate_point(
            smaller, get_technique("throttling-p6"), specjbb(), minutes(10)
        )
        assert point.crashed or not point.feasible


class TestRankTechniques:
    def test_rank_sorted_by_cost(self):
        ranking = rank_techniques(
            specjbb(),
            minutes(30),
            technique_names=("sleep-l", "throttling", "hibernate"),
        )
        costs = [sized.normalized_cost for sized in ranking]
        assert costs == sorted(costs)
        assert len(ranking) >= 2

    def test_sleep_l_ranks_first_for_long_outages(self):
        ranking = rank_techniques(
            specjbb(),
            hours(6),
            technique_names=("throttling", "sleep-l"),
        )
        assert ranking[0].point.technique_name == "sleep-l"


class TestSizingFastPath:
    """The search's shortcuts (docs/MODELING.md §12) against the
    bisecting reference loop, off the default grid, and its counters."""

    @staticmethod
    def _counters(technique, seconds):
        from repro import obs

        with obs.session() as session:
            sized = lowest_cost_backup(get_technique(technique), specjbb(), seconds)
        snapshot = session.metrics.snapshot()
        counts = {
            name.split(".", 1)[1]: entry["value"]
            for name, entry in snapshot.items()
            if name.startswith("selection.")
        }
        return sized, counts

    def test_counters_report_solved_pruned_and_simulated_probes(self):
        sized, counts = self._counters("sleep-l", minutes(30))
        assert counts["probes_solved"] > 0
        assert counts["fractions_pruned"] > 0
        assert counts["probes_simulated"] > 0
        plain = lowest_cost_backup(get_technique("sleep-l"), specjbb(), minutes(30))
        assert repr(sized) == repr(plain)

    def test_adaptive_plans_are_simulated_not_solved(self):
        _, counts = self._counters("throttle+sleep-l", hours(2))
        assert counts["probes_simulated"] > 0
        assert "probes_solved" not in counts

    @pytest.mark.parametrize(
        "technique", ["sleep-l", "throttling", "hibernate", "throttle+sleep-l"]
    )
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cost_model_free_runtime": 0.0},
            {"cost_model_free_runtime": 900.0},
            {"max_runtime_seconds": 60.0},
            {"max_runtime_seconds": 1500.0},
            {"power_fractions": (1.0, 0.6, 0.3, 0.15, 0.05)},
        ],
        ids=["free-0", "free-900", "max-60", "max-1500", "descending"],
    )
    def test_matches_reference_off_the_default_grid(self, technique, kwargs):
        from repro.core.costs import BackupCostModel, CostParameters
        from tests.core.reference_selection import reference_lowest_cost_backup

        kwargs = dict(kwargs)
        free = kwargs.pop("cost_model_free_runtime", None)
        if free is not None:
            kwargs["cost_model"] = BackupCostModel(
                CostParameters(free_runtime_seconds=free)
            )
        results = []
        for search in (reference_lowest_cost_backup, lowest_cost_backup):
            try:
                sized = search(get_technique(technique), specjbb(), minutes(20), **kwargs)
            except InfeasibleError:
                results.append("infeasible")
                continue
            results.append(repr(sized))
            cap = kwargs.get("max_runtime_seconds")
            if cap is not None:
                assert sized.configuration.ups_runtime_seconds <= cap
        assert results[0] == results[1]

    @pytest.mark.parametrize("servers", [4, 16])
    @pytest.mark.parametrize(
        "fraction, runtime", [(0.05, 120.0), (0.5, 1800.0), (1.0, 9000.0)]
    )
    def test_probe_datacenters_equal_what_make_datacenter_builds(
        self, servers, fraction, runtime
    ):
        from repro.core.selection import _refit, _search_base, _ups_only
        from repro.servers.server import PAPER_SERVER

        config = _ups_only("probe", fraction, runtime)
        base = _search_base(memcached(), servers, PAPER_SERVER)
        assert _refit(base, config) == make_datacenter(
            memcached(), config, servers, PAPER_SERVER
        )
