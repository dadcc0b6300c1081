"""The sim stack under an ambient session: spans, events, metric hooks.

Everything here constructs the instrumented objects *inside*
``obs.session()`` — instrumentation captures the ambient tracer/metrics at
construction time, so objects built outside a session stay dark (the
zero-overhead contract, asserted explicitly at the bottom).
"""

import pytest

from repro import obs
from repro.checks.guard import InvariantGuard
from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.obs.export import span_tree_paths
from repro.outages.events import OutageEvent, OutageSchedule
from repro.sim.outage_sim import OutageSimulator
from repro.sim.yearly import YearlyRunner
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import minutes
from repro.workloads.specjbb import specjbb
from tests.sim.engine import SimulationEngine


@pytest.fixture(autouse=True)
def _no_leaked_session():
    obs.deactivate()
    yield
    obs.deactivate()


def build(config_name):
    return make_datacenter(specjbb(), get_configuration(config_name), 16)


def plan_for(datacenter, technique_name):
    context = TechniqueContext(
        cluster=datacenter.cluster,
        workload=datacenter.workload,
        power_budget_watts=plan_power_budget_watts(datacenter),
    )
    return get_technique(technique_name).compile_plan(context)


class TestOutageSpans:
    def test_outage_and_phase_spans(self):
        dc = build("LargeEUPS")
        with obs.session() as s:
            plan = plan_for(dc, "sleep-l")
            OutageSimulator(dc).run(plan, minutes(30))
        paths = span_tree_paths(s.tracer.records)
        assert "technique.plan" in paths
        assert "outage" in paths
        assert any(p == "outage/phase" for p in paths)
        outage = next(r for r in s.tracer.records if r["name"] == "outage")
        assert outage["attrs"]["technique"] == "sleep-l"
        assert "downtime_seconds" in outage["attrs"]
        assert "soc_end" in outage["attrs"]

    def test_phase_spans_cover_every_executed_phase(self):
        dc = build("LargeEUPS")
        with obs.session() as s:
            plan = plan_for(dc, "sleep-l")
            outcome = OutageSimulator(dc).run(plan, minutes(30))
        phase_names = {
            r["attrs"]["phase"]
            for r in s.tracer.records
            if r["name"] == "phase"
        }
        executed = {seg.label for seg in outcome.trace if seg.label}
        # Every phase span names a plan phase (trace labels are a superset:
        # they also carry recovery segments the plan does not model).
        assert phase_names <= {p.name for p in plan.phases} | executed
        assert phase_names

    def test_crash_emits_instant_event(self):
        dc = build("MinCost")
        with obs.session() as s:
            plan = plan_for(dc, "full-service")
            outcome = OutageSimulator(dc).run(plan, minutes(30))
        assert outcome.crashed
        events = [
            e
            for r in s.tracer.records
            for e in r["events"]
            if e["name"] == "crash"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["t"] == outcome.crash_time_seconds

    def test_source_switch_events(self):
        dc = build("LargeEUPS")
        with obs.session() as s:
            plan = plan_for(dc, "full-service")
            OutageSimulator(dc).run(plan, minutes(30))
        sources = [
            e["attrs"]["source"]
            for r in s.tracer.records
            for e in r["events"]
            if e["name"] == "source"
        ]
        assert "ups" in sources

    def test_metrics_hooks(self):
        dc = build("LargeEUPS")
        with obs.session() as s:
            plan = plan_for(dc, "sleep-l")
            OutageSimulator(dc).run(plan, minutes(30))
        snap = s.metrics.snapshot()
        assert snap["sim.outages"]["value"] == 1.0
        assert snap["battery.soc"]["count"] > 0
        assert snap["battery.discharge_wh"]["value"] > 0
        assert any(name.startswith("sim.phase_seconds[") for name in snap)


class TestGuardSink:
    def test_violation_routed_to_tracer_and_metrics(self):
        with obs.session() as s:
            guard = InvariantGuard(collect=True)
            guard.check_nonnegative(-1.0, "downtime", context="unit-test")
        assert not guard.ok
        violation = next(
            r for r in s.tracer.records if r["name"] == "guard-violation"
        )
        assert violation["attrs"]["invariant"] == "non-negative"
        assert violation["attrs"]["context"] == "unit-test"
        snap = s.metrics.snapshot()
        assert snap["checks.violations"]["value"] == 1.0
        assert snap["checks.violations[non-negative]"]["value"] == 1.0

    def test_violation_attaches_to_open_span(self):
        with obs.session() as s:
            guard = InvariantGuard(collect=True)
            with s.tracer.span("outage", "sim"):
                guard.check_soc(1.5)
        (record,) = s.tracer.records
        assert record["name"] == "outage"
        assert any(e["name"] == "guard-violation" for e in record["events"])

    def test_guard_off_without_session(self):
        guard = InvariantGuard(collect=True)
        assert guard._sink is None
        assert guard._metrics is None
        guard.check_soc(1.5)  # must not blow up on the dark path
        assert not guard.ok


class TestYearlySpans:
    def test_schedule_span_wraps_outages(self):
        dc = build("LargeEUPS")
        schedule = OutageSchedule(
            events=(
                OutageEvent(0.0, minutes(10)),
                OutageEvent(minutes(60), minutes(5)),
            )
        )
        with obs.session() as s:
            plan = plan_for(dc, "sleep-l")
            result = YearlyRunner(dc, plan).run_schedule(schedule)
        paths = span_tree_paths(s.tracer.records)
        assert "schedule" in paths
        assert paths.count("schedule/outage") == 2
        span = next(r for r in s.tracer.records if r["name"] == "schedule")
        assert span["attrs"]["outages"] == len(result.outcomes) == 2


class TestEngineSpans:
    def test_run_span_and_labeled_events(self):
        with obs.session() as s:
            engine = SimulationEngine()
            engine.schedule(5.0, lambda eng: None, label="restore")
            engine.schedule(1.0, lambda eng: None)  # unlabeled: no event
            engine.run()
        (record,) = s.tracer.records
        assert record["name"] == "engine.run"
        assert record["attrs"]["events_processed"] == 2
        (event,) = record["events"]
        assert event["name"] == "engine-event"
        assert event["attrs"] == {"t": 5.0, "label": "restore"}


class TestZeroOverheadPath:
    def test_objects_built_outside_session_stay_dark(self):
        dc = build("LargeEUPS")
        plan = plan_for(dc, "sleep-l")
        sim = OutageSimulator(dc)
        assert sim.tracer is None
        assert sim.metrics is None
        with obs.session() as s:
            sim.run(plan, minutes(30))  # constructed before activation
        assert s.tracer.records == []
        assert len(s.metrics) == 0

    def test_engine_outside_session_is_dark(self):
        engine = SimulationEngine()
        assert engine._tracer is None
