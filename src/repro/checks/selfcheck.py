"""Self-check: closed forms vs numeric oracles across the Table-3 space.

``repro selfcheck`` (and :func:`run_selfcheck`) sweeps every Table-3
configuration and cross-checks each closed form the simulator relies on
against the independent brute-force oracles of :mod:`repro.sim.validation`:

* :meth:`~repro.power.battery.BatterySpec.runtime_at` vs
  :func:`~repro.sim.validation.numeric_battery_runtime` (small-step ODE
  integration of the Peukert drain law);
* :meth:`~repro.power.battery.BatterySpec.load_for_runtime` round-trips,
  including the zero-runtime-pack edge;
* split-discharge bookkeeping via
  :func:`~repro.sim.validation.verify_peukert_consistency`;
* the adaptive-hold algebra
  (:func:`~repro.sim.outage_sim.solve_hold_time`) vs
  :func:`~repro.sim.validation.numeric_adaptive_hold` (grid scan + replay);
* full outage simulations across configurations × techniques × durations
  with a strict :class:`~repro.checks.InvariantGuard` installed, plus a
  guarded :class:`~repro.sim.yearly.YearlyRunner` schedule.

The sweep runs through :mod:`repro.runner` — one job per (configuration,
check family) cell — so ``--jobs N`` parallelises it and a cache makes
reruns cheap.  Every cell returns plain-dict records; a failing record
never aborts the sweep (the report collects everything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checks.guard import InvariantGuard
from repro.core.configurations import PAPER_CONFIGURATIONS, get_configuration
from repro.core.performability import make_datacenter, plan_context
from repro.errors import InvariantViolation, TechniqueError
from repro.outages.events import OutageEvent, OutageSchedule
from repro.runner import BaseExecutor, SerialExecutor, make_jobs
from repro.sim.outage_sim import solve_hold_time
from repro.sim.validation import (
    numeric_adaptive_hold,
    numeric_battery_runtime,
    replay_phases,
    verify_peukert_consistency,
)
from repro.sim.yearly import YearlyRunner
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.registry import get_workload

#: Reference facility peak (watts) at which configurations materialise;
#: every checked quantity is scale-free, so any positive value works.
REFERENCE_PEAK_WATTS = 10_000.0

#: Techniques exercised by the strict-simulation sweep.
FAST_TECHNIQUES = ("full-service", "sleep-l", "throttle+sleep-l")
FULL_TECHNIQUES = FAST_TECHNIQUES + (
    "throttling",
    "sleep",
    "hibernate",
    "hibernate-l",
    "throttle+hibernate",
    "geo-failover",
)

Record = Dict[str, Any]


def _record(check: str, subject: str, ok: bool, detail: str = "") -> Record:
    return {
        "check": check,
        "subject": subject,
        "status": "pass" if ok else "FAIL",
        "detail": detail,
    }


@dataclass(frozen=True)
class SelfCheckReport:
    """Outcome of one selfcheck sweep.

    Attributes:
        records: One entry per individual comparison, sweep order.
    """

    records: Sequence[Record]

    @property
    def failures(self) -> List[Record]:
        return [r for r in self.records if r["status"] != "pass"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"{len(self.records)} checks, {len(self.failures)} failed"
        )


# -- runner job functions (top-level: pools pickle by qualified name) ---------


def _battery_spec_for(configuration_name: str):
    config = get_configuration(configuration_name)
    ups = config.ups_spec(REFERENCE_PEAK_WATTS)
    if not ups.is_provisioned:
        return None
    return ups.battery_spec


def check_battery_oracles(spec: Mapping[str, Any], seed) -> List[Record]:
    """Closed-form runtime/load laws vs small-step integration."""
    name = spec["configuration"]
    step = float(spec["step_seconds"])
    records: List[Record] = []
    battery = _battery_spec_for(name)
    if battery is None:
        return [_record("battery-oracle", name, True, "no UPS; skipped")]

    for fraction in spec["load_fractions"]:
        load = battery.rated_power_watts * float(fraction)
        closed = battery.runtime_at(load)
        numeric = numeric_battery_runtime(battery, load, step_seconds=step)
        ok = abs(closed - numeric) <= step + 1e-6 * closed
        records.append(
            _record(
                "battery-oracle",
                f"{name} @ {fraction:.0%} load",
                ok,
                f"closed={closed:.2f}s numeric={numeric:.2f}s (step {step}s)",
            )
        )

    for multiple in (0.5, 1.0, 2.0, 8.0):
        target = battery.rated_runtime_seconds * multiple
        load = battery.load_for_runtime(target)
        if multiple <= 1.0:
            ok = load == battery.rated_power_watts
            detail = f"power-limited: load={load:.1f}W"
        else:
            achieved = battery.runtime_at(load)
            ok = abs(achieved - target) <= 1e-6 * target
            detail = f"target={target:.1f}s achieved={achieved:.1f}s"
        records.append(
            _record("load-roundtrip", f"{name} x{multiple:g}", ok, detail)
        )

    # Zero-runtime (NoUPS-style) pack: finite loads, no ZeroDivisionError.
    zero = battery.with_runtime(0.0)
    try:
        load = zero.load_for_runtime(minutes(1))
        ok = load == 0.0
        detail = f"load_for_runtime(60s)={load!r} (want 0.0)"
    except ZeroDivisionError:  # the pre-fix failure mode
        ok, detail = False, "ZeroDivisionError on zero-runtime pack"
    records.append(_record("load-roundtrip", f"{name} zero-runtime", ok, detail))

    try:
        verify_peukert_consistency(
            battery,
            [battery.rated_power_watts * f for f in (1.0, 0.5, 0.25)],
        )
        records.append(_record("peukert-split", name, True))
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        records.append(_record("peukert-split", name, False, str(exc)))
    return records


def check_adaptive_oracle(spec: Mapping[str, Any], seed) -> List[Record]:
    """Closed-form adaptive hold vs the candidate-scanning oracle."""
    name = spec["configuration"]
    resolution = float(spec["resolution_seconds"])
    window = float(spec["window_seconds"])
    battery = _battery_spec_for(name)
    if battery is None:
        return [_record("adaptive-oracle", name, True, "no UPS; skipped")]

    rated = battery.rated_power_watts
    hold_power, save_power = 0.8 * rated, 0.05 * rated
    committed: Tuple[Tuple[float, float], ...] = ((0.5 * rated, 120.0),)

    def rate(power: float) -> float:
        runtime = battery.runtime_at(power)
        return 0.0 if runtime == float("inf") else 1.0 / runtime

    committed_soc = sum(rate(p) * d for p, d in committed)
    committed_time = sum(d for _, d in committed)
    closed = solve_hold_time(
        1.0, rate(hold_power), rate(save_power), committed_soc, committed_time, window
    )
    if closed >= window - 1e-9:
        # Ride-out: the battery survives the whole window at hold power and
        # the committed/save phases never execute; the oracle's replay of
        # them does not apply, so verify the ride-out claim directly.
        ok = replay_phases(battery, [(hold_power, window)])
        detail = f"ride-out claim over {window:.0f}s window: replay={'ok' if ok else 'fails'}"
    else:
        numeric = numeric_adaptive_hold(
            battery,
            hold_power,
            list(committed),
            save_power,
            window,
            resolution_seconds=resolution,
        )
        ok = abs(closed - numeric) <= resolution + 1e-3
        detail = f"closed={closed:.2f}s numeric={numeric:.2f}s (res {resolution}s)"
    return [_record("adaptive-oracle", name, ok, detail)]


def check_strict_simulation(spec: Mapping[str, Any], seed) -> List[Record]:
    """Outage + yearly simulations under a strict invariant guard."""
    name = spec["configuration"]
    workload = get_workload(spec["workload"])
    records: List[Record] = []
    config = get_configuration(name)
    datacenter = make_datacenter(workload, config, num_servers=int(spec["servers"]))
    context = plan_context(datacenter)
    for technique_name in spec["techniques"]:
        try:
            plan = get_technique(technique_name).compile_plan(context)
        except TechniqueError as exc:
            records.append(
                _record(
                    "strict-sim",
                    f"{name} / {technique_name}",
                    True,
                    f"infeasible here: {exc}",
                )
            )
            continue
        for duration in spec["durations"]:
            subject = f"{name} / {technique_name} @ {duration / 60:.0f}min"
            guard = InvariantGuard(collect=True)
            try:
                from repro.sim.outage_sim import simulate_outage

                simulate_outage(
                    datacenter, plan, float(duration), guard=guard
                )
                ok = guard.ok
                detail = guard.summary() if not ok else ""
                if not ok:
                    detail += "; " + "; ".join(str(v) for v in guard.violations[:3])
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            records.append(_record("strict-sim", subject, ok, detail))

        # A short guarded schedule with back-to-back events exercises the
        # cross-outage recharge coupling under the same invariants.
        guard = InvariantGuard(collect=True)
        schedule = OutageSchedule(
            events=(
                OutageEvent(0.0, minutes(2)),
                OutageEvent(minutes(10), minutes(2)),
                OutageEvent(hours(12), minutes(5)),
            ),
            horizon_seconds=hours(24),
        )
        subject = f"{name} / {technique_name} yearly"
        try:
            YearlyRunner(
                datacenter, plan, recharge_seconds=hours(8), guard=guard
            ).run_schedule(schedule)
            ok = guard.ok
            detail = "" if ok else guard.summary()
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        records.append(_record("strict-yearly", subject, ok, detail))
    return records


# -- driver -------------------------------------------------------------------


def run_selfcheck(
    fast: bool = False,
    workload: str = "specjbb",
    executor: Optional[BaseExecutor] = None,
) -> SelfCheckReport:
    """Sweep the Table-3 space; returns a report, never raises on failures.

    Args:
        fast: Trim grids (coarser oracle steps, fewer techniques/durations)
            so the sweep finishes in a few seconds — the CI smoke setting.
        workload: Workload driving the strict-simulation cells.
        executor: Runner executor (serial when omitted); pass a parallel
            one to spread cells across workers.
    """
    executor = executor if executor is not None else SerialExecutor()
    techniques = FAST_TECHNIQUES if fast else FULL_TECHNIQUES
    durations = (
        (minutes(5), minutes(30))
        if fast
        else (minutes(2), minutes(10), minutes(30), hours(2))
    )
    config_names = [c.name for c in PAPER_CONFIGURATIONS]

    specs: List[Mapping[str, Any]] = []
    labels: List[str] = []
    for name in config_names:
        specs.append(
            {
                "kind": "battery",
                "configuration": name,
                "step_seconds": 1.0 if fast else 0.5,
                "load_fractions": (1.0, 0.25) if fast else (1.0, 0.75, 0.5, 0.25, 0.1),
            }
        )
        labels.append(f"battery:{name}")
        specs.append(
            {
                "kind": "adaptive",
                "configuration": name,
                "resolution_seconds": 2.0 if fast else 0.5,
                "window_seconds": minutes(30),
            }
        )
        labels.append(f"adaptive:{name}")
        specs.append(
            {
                "kind": "strict",
                "configuration": name,
                "workload": workload,
                "servers": 8,
                "techniques": tuple(techniques),
                "durations": tuple(durations),
            }
        )
        labels.append(f"strict:{name}")

    jobs = make_jobs(run_selfcheck_cell, specs, labels=labels)
    report = executor.run(jobs, strict=False)
    records: List[Record] = []
    for value in report.values:
        if value is not None:
            records.extend(value)
    for failure in report.failures:
        records.append(
            _record("selfcheck-cell", failure.label, False, failure.error)
        )
    return SelfCheckReport(records=tuple(records))


def run_selfcheck_cell(spec: Mapping[str, Any], seed) -> List[Record]:
    """Dispatch one sweep cell (runner job entry point)."""
    kind = spec["kind"]
    if kind == "battery":
        return check_battery_oracles(spec, seed)
    if kind == "adaptive":
        return check_adaptive_oracle(spec, seed)
    if kind == "strict":
        return check_strict_simulation(spec, seed)
    raise InvariantViolation(f"unknown selfcheck cell kind {kind!r}")
