"""A small discrete-event engine, kept only for the tests that pin it.

The outage simulator integrates its piecewise-constant phases in closed
form and never schedules an event, so no analysis, CLI command or
benchmark runs this engine.  It lives under ``tests/`` so the tests of its
ordering, cancellation and tracing (``tests/sim/test_engine_trace.py``,
``tests/obs/test_instrumentation.py``) keep running.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.obs import current_tracer

Handler = Callable[["SimulationEngine"], None]


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering is (time, sequence) so simultaneous
    events fire in scheduling order (deterministic runs)."""

    time_seconds: float
    sequence: int
    handler: Handler = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class SimulationEngine:
    """A classic event-heap simulator.

    Example::

        engine = SimulationEngine()
        engine.schedule(10.0, lambda eng: eng.schedule(5.0, noop, relative=True))
        engine.run()
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self.events_processed = 0
        # Ambient observability, captured at construction (None = off).
        self._tracer = current_tracer()

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def schedule(
        self,
        time_seconds: float,
        handler: Handler,
        label: str = "",
        relative: bool = False,
    ) -> Event:
        """Schedule ``handler`` at an absolute time (or ``now + time`` when
        ``relative``).  Returns the :class:`Event` for cancellation."""
        when = self._now + time_seconds if relative else time_seconds
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        event = Event(
            time_seconds=max(when, self._now),
            sequence=next(self._counter),
            handler=handler,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if drained."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time_seconds if self._heap else None

    def step(self) -> bool:
        """Process one event.  Returns False when the heap is drained."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time_seconds
            self.events_processed += 1
            if self._tracer is not None and event.label:
                self._tracer.event(
                    "engine-event", t=event.time_seconds, label=event.label
                )
            event.handler(self)
            return True
        return False

    def run(self, until_seconds: Optional[float] = None) -> None:
        """Run to quiescence, or until simulation time would pass
        ``until_seconds`` (the clock is left at the horizon)."""
        if self._tracer is None:
            return self._run_loop(until_seconds)
        with self._tracer.span("engine.run", "sim") as span:
            self._run_loop(until_seconds)
            span.set("events_processed", self.events_processed)
            span.set("sim_now", self._now)

    def _run_loop(self, until_seconds: Optional[float] = None) -> None:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until_seconds is not None and next_time > until_seconds:
                    self._now = until_seconds
                    break
                if not self.step():
                    break
        finally:
            self._running = False
