"""The power-trace recorder, and the test-held discrete-event engine.

:class:`PowerTrace` is what the outage simulator records.  The engine lives
in ``tests/sim/engine.py``: no result schedules events on it.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.trace import PowerTrace, TraceSegment
from tests.sim.engine import SimulationEngine


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, lambda e: order.append("b"))
        engine.schedule(1.0, lambda e: order.append("a"))
        engine.schedule(9.0, lambda e: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda e: order.append(1))
        engine.schedule(1.0, lambda e: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_handlers_can_schedule_relative(self):
        engine = SimulationEngine()
        times = []

        def chain(e):
            times.append(e.now)
            if len(times) < 3:
                e.schedule(10.0, chain, relative=True)

        engine.schedule(0.0, chain)
        engine.run()
        assert times == [0.0, 10.0, 20.0]

    def test_cancellation(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda e: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []
        assert engine.events_processed == 0

    def test_run_until_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda e: fired.append(1))
        engine.schedule(100.0, lambda e: fired.append(2))
        engine.run(until_seconds=50.0)
        assert fired == [1]
        assert engine.now == 50.0
        engine.run()
        assert fired == [1, 2]

    def test_scheduling_into_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(10.0, lambda e: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(5.0, lambda e: None)

    def test_step_returns_false_when_drained(self):
        assert SimulationEngine().step() is False

    def test_peek_skips_cancelled(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda e: None)
        engine.schedule(2.0, lambda e: None)
        event.cancel()
        assert engine.peek_time() == 2.0


class TestTrace:
    def test_segment_energy(self):
        seg = TraceSegment(0, 10, 100, 1.0, "ups", "x")
        assert seg.energy_joules == 1000

    def test_inverted_segment_rejected(self):
        with pytest.raises(SimulationError):
            TraceSegment(10, 5, 100, 1.0, "ups", "x")

    def test_record_and_integrate(self):
        trace = PowerTrace()
        trace.record(0, 10, 100, 1.0, "ups", "a")
        trace.record(10, 20, 50, 0.5, "dg", "b")
        assert trace.energy_joules() == 1000 + 500
        assert trace.energy_joules(source="ups") == 1000
        assert trace.peak_power_watts() == 100
        assert trace.peak_power_watts(source="dg") == 50
        assert len(trace) == 2
        assert trace.end_seconds == 20

    def test_zero_length_segments_dropped(self):
        trace = PowerTrace()
        trace.record(5, 5, 100, 1.0, "ups", "a")
        assert len(trace) == 0

    def test_overlap_rejected(self):
        trace = PowerTrace()
        trace.record(0, 10, 100, 1.0, "ups", "a")
        with pytest.raises(SimulationError):
            trace.record(5, 15, 100, 1.0, "ups", "b")

    def test_mean_performance_weights_time(self):
        trace = PowerTrace()
        trace.record(0, 10, 0, 1.0, "ups", "a")
        trace.record(10, 30, 0, 0.25, "ups", "b")
        assert trace.mean_performance(0, 30) == pytest.approx(
            (10 * 1.0 + 20 * 0.25) / 30
        )

    def test_uncovered_time_counts_as_zero_performance(self):
        trace = PowerTrace()
        trace.record(0, 10, 0, 1.0, "ups", "a")
        assert trace.mean_performance(0, 20) == pytest.approx(0.5)

    def test_zero_performance_seconds(self):
        trace = PowerTrace()
        trace.record(0, 10, 0, 1.0, "ups", "up")
        trace.record(10, 25, 0, 0.0, "ups", "down")
        # 15 s of explicit zero + 5 s uncovered.
        assert trace.zero_performance_seconds(0, 30) == pytest.approx(20)

    def test_power_at(self):
        trace = PowerTrace()
        trace.record(0, 10, 123, 1.0, "ups", "a")
        assert trace.power_at(5) == 123
        assert trace.power_at(15) == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(SimulationError):
            PowerTrace().mean_performance(10, 10)
