"""Multi-outage (schedule) simulation with cross-outage state.

Single-outage studies assume a fully charged battery and a willing diesel
engine; across a year, neither is guaranteed:

* a battery drained by one outage recharges over hours, so a back-to-back
  outage starts from partial charge, and
* a DG fails to start with some small probability each time it is called.

:class:`YearlyRunner` threads this state through an
:class:`~repro.outages.events.OutageSchedule`, producing per-event outcomes
plus a small aggregate; the availability analyzer builds its Monte-Carlo
statistics on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.checks.guard import InvariantGuard
from repro.errors import SimulationError
from repro.faults import FaultInjector
from repro.obs import current_metrics, current_tracer
from repro.outages.events import OutageEvent, OutageSchedule
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import OutagePlan
from repro.units import ordered_sum


@dataclass(frozen=True)
class YearlyResult:
    """Outcomes of one schedule run.

    Attributes:
        outcomes: Per-event simulator outcomes, schedule order.
        events: The schedule's events (parallel to ``outcomes``).
        dg_start_failures: How many times the engine refused to start.
    """

    outcomes: Sequence[OutageOutcome]
    events: Sequence[OutageEvent]
    dg_start_failures: int

    @property
    def total_downtime_seconds(self) -> float:
        return ordered_sum(outcome.downtime_seconds for outcome in self.outcomes)

    @property
    def crashes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.crashed)

    @property
    def worst_event_downtime_seconds(self) -> float:
        return max(
            (outcome.downtime_seconds for outcome in self.outcomes), default=0.0
        )


class YearlyRunner:
    """Runs outage schedules with battery-recharge and DG-reliability state.

    Args:
        datacenter: The facility under study.
        plan: The compiled outage plan executed at every event.  ``None``
            when ``policy`` drives the events instead.
        recharge_seconds: Full battery recharge time (linear refill between
            outages).
        rng: Source for DG start rolls (None -> deterministic: the engine
            always starts).
        strict: Install an :class:`~repro.checks.InvariantGuard` (unless one
            is supplied) so every event's outcome is invariant-checked;
            off (the default) costs nothing.
        guard: An explicit guard instance (implies strict checking);
            supply one with ``collect=True`` to gather violations instead
            of raising on the first.
        injector: Optional :class:`~repro.faults.FaultInjector` drawing one
            set of injected backup faults per outage event.  The injector
            consumes a fixed variate budget per draw regardless of what
            activates, so results stay deterministic for a given seed; None
            (the default) is the fault-free path.
        policy: Optional :class:`~repro.policy.OutagePolicy` consulted
            stepwise during every event instead of a precompiled plan.
            Mutually exclusive with ``plan``; the mode catalog is compiled
            once here and shared across the schedule's events.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        plan: Optional[OutagePlan],
        recharge_seconds: float = DEFAULT_RECHARGE_SECONDS,
        rng: Optional[np.random.Generator] = None,
        strict: bool = False,
        guard: Optional[InvariantGuard] = None,
        injector: Optional[FaultInjector] = None,
        policy=None,
    ):
        if recharge_seconds <= 0:
            raise SimulationError("recharge_seconds must be positive")
        if (plan is None) == (policy is None):
            raise SimulationError("pass exactly one of plan and policy")
        self.datacenter = datacenter
        self.plan = plan
        self.policy = policy
        self.catalog = None
        if policy is not None:
            # Imported lazily: the plan path must not pay for the policy
            # subsystem.  Compiling once amortises the per-event cost.
            from repro.policy.catalog import ModeCatalog

            self.catalog = ModeCatalog.compile(datacenter)
        self.recharge_seconds = recharge_seconds
        self.rng = rng
        self.guard = guard if guard is not None else (
            InvariantGuard() if strict else None
        )
        self.injector = injector
        # Ambient observability, captured at construction (None = off).
        self._tracer = current_tracer()
        self._metrics = current_metrics()

    def _dg_starts(self) -> bool:
        generator = self.datacenter.generator
        if not generator.is_provisioned:
            return True  # vacuously; the simulator ignores it
        if self.rng is None or generator.start_reliability >= 1.0:
            return True
        return bool(self.rng.random() < generator.start_reliability)

    def run_schedule(self, schedule: OutageSchedule) -> YearlyResult:
        """Simulate every event of ``schedule`` in order.

        Raises:
            SimulationError: If the events are unordered or overlapping.
                (:class:`~repro.outages.events.OutageSchedule` validates
                this at construction, but any iterable of events is
                accepted here, so the runner re-checks rather than letting
                a negative recharge gap drive the state of charge below 0.)
        """
        if self._tracer is None:
            return self._run_schedule(schedule)
        technique = (
            self.plan.technique_name
            if self.plan is not None
            else f"policy:{self.policy.name}"
        )
        with self._tracer.span("schedule", "sim", technique=technique) as span:
            result = self._run_schedule(schedule)
            span.set("outages", len(result.outcomes))
            span.set("crashes", result.crashes)
            span.set("dg_start_failures", result.dg_start_failures)
            span.set("downtime_seconds", result.total_downtime_seconds)
            return result

    def _run_schedule(self, schedule: OutageSchedule) -> YearlyResult:
        if self.guard is not None:
            self.guard.check_schedule(schedule, context="run_schedule")
        outcomes: List[OutageOutcome] = []
        failures = 0
        soc = 1.0
        previous_end = -float("inf")
        for event in schedule:
            gap = event.start_seconds - previous_end
            if gap < 0:
                raise SimulationError(
                    f"schedule events must be ordered and non-overlapping: "
                    f"event at {event.start_seconds:g}s starts before the "
                    f"previous event ended at {previous_end:g}s"
                )
            # Clamp: a fully drained string plus float rounding in the
            # previous outcome must never push the next outage's initial
            # charge outside [0, 1].
            soc = min(1.0, max(0.0, soc + gap / self.recharge_seconds))
            dg_starts = self._dg_starts()
            if self.datacenter.generator.is_provisioned and not dg_starts:
                failures += 1
                if self._tracer is not None:
                    self._tracer.event(
                        "dg-start-failure", start_seconds=event.start_seconds
                    )
                if self._metrics is not None:
                    self._metrics.counter("sim.dg_start_failures").inc()
            draw = self.injector.draw() if self.injector is not None else None
            outcome = simulate_outage(
                self.datacenter,
                self.plan,
                event.duration_seconds,
                initial_state_of_charge=soc,
                dg_starts=dg_starts,
                guard=self.guard,
                faults=draw,
                policy=self.policy,
                catalog=self.catalog,
            )
            outcomes.append(outcome)
            if self.guard is not None:
                self.guard.check_discharge_step(
                    soc,
                    outcome.ups_state_of_charge_end,
                    f"event at {event.start_seconds:g}s",
                )
            soc = outcome.ups_state_of_charge_end
            previous_end = event.end_seconds
        return YearlyResult(
            outcomes=tuple(outcomes),
            events=tuple(schedule),
            dg_start_failures=failures,
        )
