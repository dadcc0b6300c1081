"""Provisioning planner, the online predictor/adaptive policy, and TCO."""

import math

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import evaluate_point, make_datacenter
from repro.core.planner import ProvisioningPlanner
from repro.core.predictor import AdaptivePolicy, OutageDurationPredictor
from repro.core.tco import TCOModel
from repro.errors import ConfigurationError, InfeasibleError
from repro.outages.events import OutageEvent, OutageSchedule
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import TechniqueContext
from repro.units import hours, minutes
from repro.workloads.specjbb import specjbb


class TestPlanner:
    @pytest.fixture
    def planner(self):
        return ProvisioningPlanner(specjbb())

    def test_cheap_plan_when_targets_loose(self, planner):
        result = planner.plan(outage_seconds=minutes(30))
        assert result.normalized_cost < 0.3
        assert not result.point.crashed

    def test_full_performance_target_costs_more(self, planner):
        loose = planner.plan(outage_seconds=minutes(30))
        strict = planner.plan(
            outage_seconds=minutes(30),
            min_performance=0.99,
            max_downtime_seconds=0.0,
        )
        assert strict.normalized_cost > loose.normalized_cost
        assert strict.point.performance >= 0.99

    def test_dg_free_full_service_cheaper_than_maxperf(self, planner):
        # The headline: zero-downtime full-perf coverage of a 30-minute
        # outage WITHOUT a DG costs far less than today's practice.
        result = planner.plan(
            outage_seconds=minutes(30),
            min_performance=0.99,
            max_downtime_seconds=0.0,
        )
        assert result.normalized_cost < 1.0

    def test_degradation_tolerance_buys_savings(self, planner):
        # Paper: tolerate 40 % degradation over a 1 h outage -> ~40 % cost
        # savings versus full-performance coverage.
        full = planner.plan(
            outage_seconds=hours(1), min_performance=0.99, max_downtime_seconds=0.0
        )
        degraded = planner.plan(
            outage_seconds=hours(1), min_performance=0.55, max_downtime_seconds=0.0
        )
        # Savings are quoted against today's practice (MaxPerf = 1.0).
        assert degraded.normalized_cost < 0.6
        assert degraded.normalized_cost < full.normalized_cost

    def test_impossible_target_raises(self, planner):
        with pytest.raises(InfeasibleError):
            planner.plan(
                outage_seconds=minutes(30),
                min_performance=1.01,  # cannot exceed MaxPerf
            )

    @pytest.mark.parametrize("target", [
        {"min_performance": -3.0},
        {"min_performance": math.nan},
        {"max_downtime_seconds": -60.0},
        {"max_downtime_seconds": math.nan},
    ], ids=["negative-perf", "nan-perf", "negative-down", "nan-down"])
    def test_out_of_range_target_rejected(self, planner, target):
        with pytest.raises(ConfigurationError):
            planner.plan(outage_seconds=minutes(30), **target)

    def test_compare_named_configurations(self, planner):
        rows = planner.compare_named_configurations(minutes(5))
        assert len(rows) == 9
        by_name = {config.name: point for config, point in rows}
        assert by_name["MaxPerf"].downtime_seconds == 0.0
        assert by_name["MinCost"].downtime_seconds > 0


class TestPredictor:
    @pytest.fixture
    def predictor(self):
        return OutageDurationPredictor()

    def test_survival_complements_cdf(self, predictor):
        assert predictor.survival(0) == pytest.approx(1.0)
        assert predictor.survival(minutes(5)) == pytest.approx(0.42, abs=0.02)

    def test_conditional_probability_unity_below_elapsed(self, predictor):
        assert predictor.probability_exceeds(10, 20) == 1.0

    def test_conditional_hazard_rises_with_elapsed(self, predictor):
        # Heavy-tail behaviour: the longer an outage has lasted, the more
        # likely it continues well beyond.
        early = predictor.probability_exceeds(minutes(60), minutes(1))
        late = predictor.probability_exceeds(minutes(60), minutes(30))
        assert late > early

    def test_expected_remaining_grows_with_elapsed(self, predictor):
        fresh = predictor.expected_remaining_seconds(0)
        aged = predictor.expected_remaining_seconds(minutes(30))
        assert aged > fresh

    def test_escalation_thresholds_near_bucket_edges(self, predictor):
        thresholds = predictor.escalation_thresholds(confidence=0.3)
        assert thresholds
        assert all(t > 0 for t in thresholds)
        assert thresholds == sorted(thresholds)

    def test_invalid_confidence_rejected(self, predictor):
        with pytest.raises(ValueError):
            predictor.escalation_thresholds(confidence=0.0)


class TestAdaptivePolicy:
    def test_plan_escalates_then_sleeps(self):
        dc = make_datacenter(specjbb(), get_configuration("LargeEUPS"))
        policy = AdaptivePolicy(rung_boundaries_seconds=[60, minutes(5)])
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=dc.workload,
            power_budget_watts=dc.ups.power_capacity_watts,
        )
        plan = policy.plan(context)
        assert plan.phases[0].name.startswith("rung0")
        assert plan.phases[1].name.startswith("rung1")
        assert plan.phases[-1].name == "asleep-s3"
        # Deeper rungs draw less power and deliver less performance.
        assert plan.phases[1].power_watts < plan.phases[0].power_watts

    def test_short_outage_stays_at_full_performance_rung(self):
        dc = make_datacenter(specjbb(), get_configuration("LargeEUPS"))
        policy = AdaptivePolicy(rung_boundaries_seconds=[minutes(2), minutes(10)])
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=dc.workload,
            power_budget_watts=dc.ups.power_capacity_watts,
        )
        outcome = simulate_outage(dc, policy.plan(context), 60)
        assert outcome.mean_performance > 0.9
        assert outcome.downtime_seconds == 0.0

    def test_long_outage_survives_via_sleep(self):
        dc = make_datacenter(specjbb(), get_configuration("LargeEUPS"))
        policy = AdaptivePolicy()
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=dc.workload,
            power_budget_watts=dc.ups.power_capacity_watts,
        )
        outcome = simulate_outage(dc, policy.plan(context), hours(2))
        assert not outcome.crashed

    def test_adaptive_beats_static_full_service_on_long_outage(self):
        config = get_configuration("LargeEUPS")
        policy_point = evaluate_point(
            config, AdaptivePolicy(), specjbb(), hours(2)
        )
        from repro.techniques.nop import FullService

        static_point = evaluate_point(config, FullService(), specjbb(), hours(2))
        assert policy_point.downtime_seconds < static_point.downtime_seconds

    def test_bad_boundaries_rejected(self):
        from repro.errors import TechniqueError

        with pytest.raises(TechniqueError):
            AdaptivePolicy(rung_boundaries_seconds=[-5])


class TestTCO:
    def test_loss_rate(self):
        assert TCOModel().loss_per_kw_minute == pytest.approx(0.283)

    def test_crossover_near_five_hours(self):
        # Paper: "the cross-over point ... turns out to be around 5 hours
        # per year".
        crossover = TCOModel().crossover_minutes_per_year()
        assert crossover == pytest.approx(294, abs=2)
        assert 4.5 * 60 < crossover < 5.5 * 60

    def test_profitability_sides(self):
        model = TCOModel()
        assert model.profitable_without_dg(100)
        assert not model.profitable_without_dg(400)

    def test_figure_series_shape(self):
        rows = TCOModel().figure_series(max_minutes=500, step_minutes=50)
        assert len(rows) == 11
        minutes_axis, losses, savings = zip(*rows)
        assert losses[0] == 0.0
        assert all(s == savings[0] for s in savings)
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_schedule_loss(self):
        schedule = OutageSchedule(
            events=(OutageEvent(0, minutes(100)),), horizon_seconds=3.15e7
        )
        loss = TCOModel().yearly_loss_for_schedule(schedule)
        assert loss == pytest.approx(0.283 * 100)

    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TCOModel(revenue_per_kw_minute=-1)
        with pytest.raises(ConfigurationError):
            TCOModel().outage_cost_per_kw_year(-5)
