"""Randomised invariant fuzzing through the runner.

:func:`run_fuzz` drives randomly generated backup configurations,
techniques and outage schedules through :class:`~repro.sim.yearly.YearlyRunner`
with a strict :class:`~repro.checks.InvariantGuard` installed, and asserts
every invariant on every event.  Each case is one :mod:`repro.runner` job
with its own :class:`numpy.random.SeedSequence` stream, so a fuzz run is
fully reproducible from its base seed at any worker count, and a failing
case is re-runnable in isolation by its index.

Each case also probes the exact failure modes behind the library's fixed
state bugs, so a regression resurfaces immediately:

* an *invalid* (unordered/overlapping) event list must be rejected by
  :meth:`YearlyRunner.run_schedule` with a clean
  :class:`~repro.errors.SimulationError` — not a ``ConfigurationError``
  thrown from deep inside the simulator after the state of charge went
  negative;
* zero-runtime battery packs must answer
  :meth:`~repro.power.battery.BatterySpec.load_for_runtime` with 0 W, not a
  ``ZeroDivisionError``, and must never be offered as a load source
  (which previously hung the simulator on state-safe phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.checks.guard import InvariantGuard
from repro.core.configurations import BackupConfiguration
from repro.core.performability import make_datacenter, plan_context
from repro.errors import SimulationError, TechniqueError
from repro.outages.events import OutageEvent, OutageSchedule
from repro.runner import BaseExecutor, SerialExecutor, make_jobs
from repro.sim.datacenter import Datacenter
from repro.sim.yearly import YearlyRunner
from repro.techniques.base import OutagePlan
from repro.techniques.registry import PAPER_TECHNIQUES, get_technique
from repro.units import days, hours, minutes
from repro.workloads.registry import workload_names, get_workload

#: Techniques the fuzzer samples from (full-service is the no-technique
#: baseline and not in PAPER_TECHNIQUES).
FUZZ_TECHNIQUES = ("full-service",) + tuple(PAPER_TECHNIQUES)

Record = Dict[str, Any]


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run.

    Attributes:
        records: One entry per fuzz case, case order.
    """

    records: Sequence[Record]

    @property
    def violations(self) -> List[str]:
        found: List[str] = []
        for record in self.records:
            found.extend(record.get("violations", ()))
        return found

    @property
    def cases_run(self) -> int:
        return len(self.records)

    @property
    def events_simulated(self) -> int:
        return sum(int(r.get("events", 0)) for r in self.records)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            f"{self.cases_run} cases, {self.events_simulated} events, "
            f"{len(self.violations)} violation"
            f"{'s' if len(self.violations) != 1 else ''}"
        )


def random_configuration(rng: np.random.Generator) -> BackupConfiguration:
    """A random valid point in the underprovisioning space.

    Samples beyond the nine Table-3 rows: fractional capacities, tiny and
    very large energy ratings, and zero-runtime UPSes (power electronics
    with no usable battery) all appear.
    """
    dg = float(rng.choice([0.0, 0.5, 1.0]))
    ups = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
    if ups > 0:
        runtime = float(rng.choice([0.0, minutes(0.5), minutes(2), minutes(30), minutes(62)]))
    else:
        runtime = 0.0
    return BackupConfiguration("fuzz", dg, ups, runtime)


def random_schedule(
    rng: np.random.Generator, horizon_seconds: float
) -> OutageSchedule:
    """A random valid (ordered, disjoint) schedule inside the horizon."""
    count = int(rng.integers(1, 6))
    starts = np.sort(rng.uniform(0.0, horizon_seconds * 0.9, size=count))
    events: List[OutageEvent] = []
    previous_end = 0.0
    for start in starts:
        start = max(float(start), previous_end)
        duration = float(rng.choice([30.0, minutes(2), minutes(10), minutes(45), hours(2)]))
        end = min(start + duration, horizon_seconds)
        if end <= start:
            continue
        events.append(OutageEvent(start, end - start))
        previous_end = end
    if not events:
        events.append(OutageEvent(0.0, minutes(5)))
    return OutageSchedule(events=tuple(events), horizon_seconds=horizon_seconds)


def _shuffled_invalid_events(
    rng: np.random.Generator, schedule: OutageSchedule
) -> Optional[List[OutageEvent]]:
    """An unordered/overlapping variant of ``schedule``'s events, or None
    when it cannot be made invalid (single-event schedules get an overlap)."""
    events = list(schedule)
    if len(events) >= 2:
        events.reverse()
        if events[0].start_seconds < events[-1].start_seconds:
            return None  # all events identical; cannot invalidate by order
        return events
    only = events[0]
    overlapping = OutageEvent(
        max(0.0, only.start_seconds + only.duration_seconds / 2),
        only.duration_seconds,
    )
    return [only, overlapping]


@dataclass(frozen=True)
class FuzzCase:
    """One drawn case: a random configuration, workload and technique,
    compiled against the datacenter they describe.

    Attributes:
        technique: The drawn name, or ``"drawn->compiled"`` when the
            drawn technique did not fit and a lighter one stood in.
        plan: ``None`` when no technique fits the power budget.
    """

    configuration: BackupConfiguration
    workload: str
    technique: str
    datacenter: Datacenter
    plan: Optional[OutagePlan]

    def record(self) -> Record:
        """The case's identifying fields, as every fuzz record carries."""
        config = self.configuration
        return {
            "configuration": (
                config.dg_power_fraction,
                config.ups_power_fraction,
                config.ups_runtime_seconds,
            ),
            "workload": self.workload,
            "technique": self.technique,
            "skipped": self.plan is None,
        }


def draw_case(rng: np.random.Generator) -> FuzzCase:
    """Draw one case; the invariant and differential fuzzers both start here.

    The draws come in one fixed order — configuration, workload,
    technique, server count — so a seed names the same case in both.
    Infeasible pairings fall back to progressively lighter techniques so
    nearly every case exercises the simulator (sleep-l fits almost any
    power budget).
    """
    configuration = random_configuration(rng)
    workload = get_workload(str(rng.choice(workload_names())))
    drawn = str(rng.choice(FUZZ_TECHNIQUES))
    num_servers = int(rng.choice([4, 8, 16]))
    datacenter = make_datacenter(workload, configuration, num_servers=num_servers)
    context = plan_context(datacenter)
    for candidate in (drawn, "throttle+sleep-l", "sleep-l", "full-service"):
        try:
            plan = get_technique(candidate).compile_plan(context)
        except TechniqueError:
            continue
        label = drawn if candidate == drawn else f"{drawn}->{candidate}"
        return FuzzCase(configuration, workload.name, label, datacenter, plan)
    return FuzzCase(configuration, workload.name, drawn, datacenter, None)


def fuzz_case(spec: Mapping[str, Any], seed) -> Record:
    """One fuzz case (runner job entry point): generate, run, assert."""
    if seed is None:
        seed = np.random.SeedSequence(int(spec["case"]))
    rng = np.random.default_rng(seed)
    violations: List[str] = []
    case = draw_case(rng)
    datacenter, plan = case.datacenter, case.plan
    record: Record = {
        "case": int(spec["case"]),
        **case.record(),
        "events": 0,
        "crashes": 0,
        "violations": violations,
    }

    if plan is not None:
        schedule = random_schedule(rng, horizon_seconds=days(30))
        guard = InvariantGuard(collect=True)
        runner = YearlyRunner(
            datacenter,
            plan,
            recharge_seconds=float(rng.choice([minutes(30), hours(8), hours(24)])),
            rng=rng,
            guard=guard,
        )
        try:
            result = runner.run_schedule(schedule)
            record["events"] = len(result.outcomes)
            record["crashes"] = result.crashes
            if result.total_downtime_seconds < 0:
                violations.append(
                    f"negative total downtime {result.total_downtime_seconds}"
                )
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            violations.append(
                f"valid schedule raised {type(exc).__name__}: {exc}"
            )
        violations.extend(str(v) for v in guard.violations)

        # Invalid schedules must be rejected cleanly at the runner boundary.
        invalid = _shuffled_invalid_events(rng, schedule)
        if invalid is not None:
            unguarded = YearlyRunner(
                datacenter, plan, recharge_seconds=hours(8)
            )
            try:
                unguarded.run_schedule(invalid)
                violations.append("invalid schedule was accepted")
            except SimulationError:
                pass  # the contract
            except Exception as exc:  # noqa: BLE001 - wrong error class
                violations.append(
                    f"invalid schedule raised {type(exc).__name__} "
                    f"instead of SimulationError: {exc}"
                )

    # Battery-law probes, independent of the simulation outcome.
    ups = case.configuration.ups_spec(10_000.0)
    if ups.is_provisioned:
        battery = ups.battery_spec
        for multiple in (0.0, 0.5, 1.0, float(rng.uniform(1.0, 20.0))):
            target = battery.rated_runtime_seconds * multiple + (
                minutes(1) if battery.rated_runtime_seconds == 0 else 0.0
            )
            try:
                load = battery.load_for_runtime(target)
            except ZeroDivisionError:
                violations.append(
                    f"load_for_runtime({target}) raised ZeroDivisionError"
                )
                continue
            if load < 0 or load > battery.rated_power_watts * (1 + 1e-9):
                violations.append(
                    f"load_for_runtime({target}) returned {load} outside "
                    f"[0, {battery.rated_power_watts}]"
                )
    return record


def run_fuzz(
    cases: int = 25,
    seed: int = 0,
    executor: Optional[BaseExecutor] = None,
) -> FuzzReport:
    """Run ``cases`` randomised invariant checks; returns a report.

    Deterministic in ``seed`` at any worker count (per-case
    ``SeedSequence`` streams), so a red run is reproducible bit-for-bit.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    executor = executor if executor is not None else SerialExecutor()
    specs = [{"case": i} for i in range(cases)]
    labels = [f"fuzz:{i}" for i in range(cases)]
    jobs = make_jobs(fuzz_case, specs, base_seed=seed, labels=labels)
    report = executor.run(jobs, strict=False)
    records: List[Record] = []
    for value, label in zip(report.values, labels):
        if value is None:
            records.append(
                {
                    "case": label,
                    "events": 0,
                    "violations": [f"{label}: case raised; see runner failures"],
                }
            )
        else:
            records.append(value)
    for failure in report.failures:
        records[failure.index]["violations"] = [
            f"{failure.label}: {failure.error}"
        ]
    return FuzzReport(records=tuple(records))
