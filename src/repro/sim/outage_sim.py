"""Execute an outage plan against a concrete backup infrastructure.

This is the library's experiment harness: given a :class:`Datacenter`, a
technique's :class:`~repro.techniques.base.OutagePlan` and an outage
duration, it plays out the outage second by second (in closed form — plans
are piecewise-constant, so every segment integrates exactly) and produces an
:class:`~repro.sim.metrics.OutageOutcome`.

Semantics implemented here, all from Sections 3-5 of the paper:

* **Source selection.**  Until the DG's start-up + load-step transfer
  completes (~2 min), only the UPS can carry load; a load above the UPS
  rating, or a drained battery, crashes the servers (the 30 ms PSU hold-up
  cannot bridge it).  Once the DG carries the full normal draw, the outage
  is over from the servers' perspective: service resumes (after the current
  phase's resume path) and runs on DG until utility returns.
* **Peukert battery accounting.**  Battery charge drains at
  ``dt / runtime(P)``, so light loads (S3 sleep at 5 W/server) stretch the
  same pack enormously — the mechanism behind Throttle+Sleep-L's two-hour
  outages on a 20 %-cost backup.
* **Adaptive phases.**  A hybrid's sustain phase holds exactly as long as
  the battery can afford while reserving charge for the remaining (save)
  phases over the bridging horizon; the reservation is solved in closed
  form against the same Peukert accounting.
* **Crash and recovery.**  A crash loses volatile state; recovery starts
  when power returns (utility, or a full-capacity DG mid-outage) and walks
  the workload's reboot/reload/warm-up/recompute pipeline.
* **Committed phases.**  A hibernation image write or S3 suspend completes
  even if power returns mid-way; the remainder plus the phase's resume path
  is booked as post-restore down time.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.checks.guard import InvariantGuard
from repro.errors import SimulationError
from repro.faults import FaultDraw
from repro.obs import MetricsRegistry, Tracer, current_metrics, current_tracer
from repro.power.generator import DieselGenerator
from repro.power.ups import UPSUnit
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome, SourceKind
from repro.sim.trace import PowerTrace
from repro.techniques.base import OutagePlan, PlanPhase
from repro.units import ordered_sum

#: Relative slack on the adaptive-phase reservation so float accumulation
#: never crashes a plan the solver deemed exactly feasible.
_RESERVE_SLACK = 1e-6

_EPS = 1e-9


def solve_hold_time(
    soc: float,
    rate_hold: float,
    rate_save: float,
    committed_soc: float,
    committed_time: float,
    remaining_window: float,
) -> float:
    """Closed-form adaptive hold: how long the sustain stage can run.

    Given drain rates in state-of-charge fraction per second, solves the
    charge budget ``soc = x*rate_hold + committed_soc + (max_hold - x) *
    rate_save`` for the hold time ``x``, clamped to ``[0, max_hold]`` where
    ``max_hold = remaining_window - committed_time``.  This is the algebra
    :class:`_OutageRun` applies at every adaptive phase, factored out so
    ``repro selfcheck`` can cross-check it against
    :func:`repro.sim.validation.numeric_adaptive_hold`.
    """
    if remaining_window <= 0:
        return 0.0
    if math.isinf(rate_hold):
        return 0.0  # zero-runtime pack: holding is instantly infeasible
    if rate_hold * remaining_window <= soc:
        # The battery sustains the whole bridging window without ever
        # transitioning to the save stage: ride it out.
        return remaining_window
    max_hold = max(0.0, remaining_window - committed_time)
    if rate_hold <= rate_save + _EPS:
        # Sustaining is no more expensive than saving: never transition.
        return max_hold
    budget = soc - committed_soc - max_hold * rate_save
    hold = budget / (rate_hold - rate_save)
    return min(max(0.0, hold), max_hold)


class OutageSimulator:
    """Simulates outages for one datacenter.  Stateless across runs.

    Args:
        datacenter: The facility under study.
        guard: Optional :class:`~repro.checks.InvariantGuard` checking the
            run's physical invariants (SoC range, monotone discharge,
            energy conservation, non-negative downtime) as it executes;
            None (the default) skips every check at zero cost.
        tracer: Span sink; defaults to the ambient
            :func:`repro.obs.current_tracer` (None = tracing off).  A
            traced run wraps itself in an ``outage`` span with one child
            ``phase`` span per technique phase executed.
        metrics: Metrics sink; defaults to the ambient registry.  Records
            battery SoC samples, discharge watt-hours, per-phase simulated
            durations and downtime attribution.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        guard: Optional[InvariantGuard] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.datacenter = datacenter
        self.guard = guard
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()

    # -- public API ---------------------------------------------------------

    def run(
        self,
        plan: Optional[OutagePlan],
        outage_seconds: float,
        lost_work_seconds: Optional[float] = None,
        initial_state_of_charge: float = 1.0,
        dg_starts: bool = True,
        faults: Optional[FaultDraw] = None,
        policy: Optional[object] = None,
        catalog: Optional[object] = None,
    ) -> OutageOutcome:
        """Simulate one outage of ``outage_seconds`` under ``plan``.

        Args:
            plan: The technique's compiled plan.  ``None`` when a
                ``policy`` drives the outage instead.
            outage_seconds: Utility outage duration.
            lost_work_seconds: Work to recompute if a crash occurs (defaults
                to the workload's expected loss — half its recompute
                horizon).  Sweep it for the Figure 9 min/max bars.
            initial_state_of_charge: Battery charge at outage start (< 1.0
                when a recent outage drained the string; back-to-back
                outage and yearly availability studies set this).
            dg_starts: Whether the DG engine starts this time.  Single-
                outage studies leave it True; Monte-Carlo availability runs
                sample it against the spec's ``start_reliability``.
            faults: Optional :class:`~repro.faults.FaultDraw` of injected
                backup failures this outage (DG fail-to-start or mid-run
                trip, battery capacity fade, ATS transfer failure/delay,
                PSU hold-up loss).  ``None`` (the default) is the
                fault-free path and costs nothing.
            policy: Optional :class:`~repro.policy.OutagePolicy` consulted
                stepwise *during* the outage instead of a precompiled
                plan.  Mutually exclusive with ``plan``.  ``None`` (the
                default) is the plan path, untouched.
            catalog: Optional precompiled
                :class:`~repro.policy.ModeCatalog` for the policy engine
                (compiled from the datacenter when omitted).  Ignored on
                the plan path.
        """
        if outage_seconds <= 0:
            raise SimulationError("outage duration must be positive")
        if policy is not None:
            if plan is not None:
                raise SimulationError(
                    "pass exactly one of plan and policy, not both"
                )
            return self._run_policy(
                policy,
                outage_seconds,
                lost_work_seconds,
                initial_state_of_charge=initial_state_of_charge,
                dg_starts=dg_starts,
                faults=faults,
                catalog=catalog,
            )
        if plan is None:
            raise SimulationError("pass exactly one of plan and policy")
        if self.tracer is None:
            run = _OutageRun(
                self.datacenter,
                plan,
                outage_seconds,
                lost_work_seconds,
                initial_state_of_charge=initial_state_of_charge,
                dg_starts=dg_starts,
                guard=self.guard,
                metrics=self.metrics,
                faults=faults,
            )
            return run.execute()
        with self.tracer.span(
            "outage",
            "sim",
            technique=plan.technique_name,
            outage_seconds=float(outage_seconds),
            dg_starts=dg_starts,
        ) as span:
            run = _OutageRun(
                self.datacenter,
                plan,
                outage_seconds,
                lost_work_seconds,
                initial_state_of_charge=initial_state_of_charge,
                dg_starts=dg_starts,
                guard=self.guard,
                tracer=self.tracer,
                metrics=self.metrics,
                faults=faults,
            )
            outcome = run.execute()
            span.set("crashed", outcome.crashed)
            span.set("downtime_seconds", outcome.downtime_seconds)
            span.set("soc_end", outcome.ups_state_of_charge_end)
            return outcome

    def _run_policy(
        self,
        policy,
        outage_seconds: float,
        lost_work_seconds: Optional[float],
        initial_state_of_charge: float,
        dg_starts: bool,
        faults: Optional[FaultDraw],
        catalog,
    ) -> OutageOutcome:
        # Imported lazily: the plan path must not pay for (or depend on)
        # the policy subsystem.
        from repro.policy.engine import _PolicyRun

        def execute(tracer: Optional[Tracer]) -> OutageOutcome:
            run = _PolicyRun(
                self.datacenter,
                policy,
                outage_seconds,
                lost_work_seconds,
                initial_state_of_charge=initial_state_of_charge,
                dg_starts=dg_starts,
                guard=self.guard,
                tracer=tracer,
                metrics=self.metrics,
                faults=faults,
                catalog=catalog,
            )
            return run.execute()

        if self.tracer is None:
            return execute(None)
        with self.tracer.span(
            "outage",
            "sim",
            technique=f"policy:{policy.name}",
            outage_seconds=float(outage_seconds),
            dg_starts=dg_starts,
        ) as span:
            outcome = execute(self.tracer)
            span.set("crashed", outcome.crashed)
            span.set("downtime_seconds", outcome.downtime_seconds)
            span.set("soc_end", outcome.ups_state_of_charge_end)
            return outcome


def simulate_outage(
    datacenter: Datacenter,
    plan: Optional[OutagePlan],
    outage_seconds: float,
    lost_work_seconds: Optional[float] = None,
    initial_state_of_charge: float = 1.0,
    dg_starts: bool = True,
    guard: Optional[InvariantGuard] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[FaultDraw] = None,
    policy=None,
    catalog=None,
) -> OutageOutcome:
    """Functional convenience wrapper over :class:`OutageSimulator`."""
    return OutageSimulator(datacenter, guard=guard, tracer=tracer, metrics=metrics).run(
        plan,
        outage_seconds,
        lost_work_seconds,
        initial_state_of_charge=initial_state_of_charge,
        dg_starts=dg_starts,
        faults=faults,
        policy=policy,
        catalog=catalog,
    )


class _PooledBackupStore:
    """Rack-level (pooled) battery adapter over :class:`UPSUnit`."""

    def __init__(
        self,
        spec,
        num_servers: int,
        state_of_charge: float,
        guard: Optional[InvariantGuard] = None,
    ):
        self._unit = UPSUnit(spec, state_of_charge=state_of_charge, guard=guard)
        self.spec = spec

    def can_carry(self, power_watts: float, active: Optional[int]) -> bool:
        return self._unit.can_carry(power_watts)

    def remaining_runtime_at(self, power_watts: float, active: Optional[int]) -> float:
        return self._unit.remaining_runtime_at(power_watts)

    def carry(self, power_watts: float, duration: float, active: Optional[int]) -> float:
        return self._unit.carry(power_watts, duration)

    def drain_rate(self, power_watts: float, active: Optional[int]) -> float:
        if power_watts <= 0:
            return 0.0
        runtime = self.spec.battery_spec.runtime_at(
            min(power_watts, self.spec.power_capacity_watts)
        )
        if runtime <= 0:
            # Zero-runtime pack: any load drains it instantly.
            return math.inf
        return 0.0 if math.isinf(runtime) else 1.0 / runtime

    @property
    def is_exhausted(self) -> bool:
        return self._unit.is_exhausted

    @property
    def state_of_charge(self) -> float:
        return self._unit.battery.state_of_charge

    @property
    def energy_delivered_joules(self) -> float:
        return self._unit.battery.energy_delivered_joules


class _ServerBackupStore:
    """Server-level (private packs) adapter over
    :class:`~repro.power.placement.ServerLevelBatteryBank`."""

    def __init__(
        self,
        spec,
        num_servers: int,
        state_of_charge: float,
        guard: Optional[InvariantGuard] = None,
    ):
        # The bank's per-step invariants are checked by _OutageRun._advance
        # (the bank aggregates many private packs, so the guard observes it
        # at the store level rather than per pack).
        from repro.power.placement import ServerLevelBatteryBank

        self.spec = spec
        self.num_servers = num_servers
        unit_spec = spec.battery_spec.with_power(
            spec.power_capacity_watts / num_servers
        )
        self._bank = ServerLevelBatteryBank(
            unit_spec, num_servers, state_of_charge=state_of_charge
        )

    def _units(self, active: Optional[int]) -> int:
        return self.num_servers if active is None else active

    def can_carry(self, power_watts: float, active: Optional[int]) -> bool:
        per_unit = power_watts / self._units(active)
        return per_unit <= self._bank.unit_spec.rated_power_watts * (1 + 1e-9)

    def remaining_runtime_at(self, power_watts: float, active: Optional[int]) -> float:
        if not self.can_carry(power_watts, active):
            return 0.0
        return self._bank.remaining_runtime_at(power_watts, self._units(active))

    def carry(self, power_watts: float, duration: float, active: Optional[int]) -> float:
        return self._bank.discharge(power_watts, duration, self._units(active))

    def drain_rate(self, power_watts: float, active: Optional[int]) -> float:
        if power_watts <= 0:
            return 0.0
        per_unit = min(
            power_watts / self._units(active), self._bank.unit_spec.rated_power_watts
        )
        runtime = self._bank.unit_spec.runtime_at(per_unit)
        if runtime <= 0:
            # Zero-runtime packs: any load drains them instantly.
            return math.inf
        return 0.0 if math.isinf(runtime) else 1.0 / runtime

    @property
    def is_exhausted(self) -> bool:
        return self._bank.is_empty

    @property
    def state_of_charge(self) -> float:
        return self._bank.active_state_of_charge

    @property
    def energy_delivered_joules(self) -> float:
        return self._bank.energy_delivered_joules


class _OutageRun:
    """One simulation's mutable state (the simulator itself stays stateless)."""

    def __init__(
        self,
        datacenter: Datacenter,
        plan: OutagePlan,
        outage_seconds: float,
        lost_work_seconds: Optional[float],
        initial_state_of_charge: float = 1.0,
        dg_starts: bool = True,
        guard: Optional[InvariantGuard] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultDraw] = None,
    ):
        from repro.power.placement import UPSPlacement

        self.dc = datacenter
        self.plan = plan
        self.phases: List[PlanPhase] = list(plan.phases)
        self.T = float(outage_seconds)
        self.lost_work_seconds = lost_work_seconds
        self.guard = guard
        self.tracer = tracer
        self.metrics = metrics
        self.faults = faults
        self._phase_span = None
        self._last_source: Optional[SourceKind] = None
        if guard is not None:
            guard.check_soc(initial_state_of_charge, "initial state of charge")

        # Apply the outage's fault draw to the component specs before any
        # state is built: a faded battery is a different pack for the whole
        # run, not an event mid-way.  The fault-free path (faults None or
        # null) touches nothing.
        ups_spec = datacenter.ups
        run_limit: Optional[float] = None
        dg_starts_eff = dg_starts
        ats_ok = True
        extra_delay = 0.0
        self._psu_ok = True
        if faults is not None and not faults.is_null:
            if faults.battery_capacity_factor < 1.0:
                ups_spec = ups_spec.derated(faults.battery_capacity_factor)
                self._record_fault(
                    "battery_fade", factor=faults.battery_capacity_factor
                )
            run_limit = faults.dg_run_limit_seconds
            if not faults.dg_starts:
                dg_starts_eff = False
                self._record_fault("dg_start", t=0.0)
            if not faults.ats_transfer_ok:
                ats_ok = False
                self._record_fault("ats_transfer", t=0.0)
            if faults.ats_extra_delay_seconds > 0:
                extra_delay = faults.ats_extra_delay_seconds
                self._record_fault("ats_delay", extra_seconds=extra_delay)
            if not faults.psu_holdup_ok:
                self._psu_ok = False
                self._record_fault("psu_holdup", t=0.0)

        if not ups_spec.is_provisioned:
            self.ups = None
        elif ups_spec.placement is UPSPlacement.SERVER:
            self.ups = _ServerBackupStore(
                ups_spec,
                datacenter.cluster.num_servers,
                initial_state_of_charge,
                guard=guard,
            )
        else:
            self.ups = _PooledBackupStore(
                ups_spec,
                datacenter.cluster.num_servers,
                initial_state_of_charge,
                guard=guard,
            )
        self._initial_soc = initial_state_of_charge
        self.dg = DieselGenerator(datacenter.generator, run_limit_seconds=run_limit)
        # A failed ATS transfer strands the plant behind an open switch: the
        # engine may well start, the load never reaches it.
        dg_usable = datacenter.generator.is_provisioned and dg_starts_eff and ats_ok
        self.t_dg = (
            datacenter.generator.transfer_complete_seconds + extra_delay
            if dg_usable
            else math.inf
        )
        self._dg_usable = dg_usable
        self.normal_power = datacenter.normal_power_watts
        self.dg_full = dg_usable and self.dg.can_carry(self.normal_power)

        self.trace = PowerTrace()
        self.t = 0.0
        self.idx = 0
        self.phase_remaining = self._phase_duration_on_entry(0)

        self.crashed = False
        self.crash_time: Optional[float] = None
        self.restored_by_dg = False
        self.downtime_after = 0.0

    # -- observability ----------------------------------------------------------

    def _record_fault(self, kind: str, **attrs) -> None:
        """Make an injected-fault activation observable: a ``fault`` span
        event and a ``faults.<kind>`` counter bump (both no-ops when the
        respective sink is off)."""
        if self.tracer is not None:
            self.tracer.event("fault", kind=kind, **attrs)
        if self.metrics is not None:
            self.metrics.counter(f"faults.{kind}").inc()

    def _open_phase_span(self) -> None:
        """One span per technique-phase occupancy (manual begin/end because
        phase boundaries do not nest lexically with the main loop)."""
        phase = self.phases[self.idx]
        self._phase_span = self.tracer.start_span(
            "phase",
            "technique",
            phase=phase.name,
            technique=self.plan.technique_name,
            index=self.idx,
            t_enter=self.t,
        )

    def _close_phase_span(self) -> None:
        if self._phase_span is not None:
            self._phase_span.set("t_exit", self.t)
            self.tracer.end_span(self._phase_span)
            self._phase_span = None

    # -- phase bookkeeping ------------------------------------------------------

    def _phase_duration_on_entry(self, idx: int) -> float:
        phase = self.phases[idx]
        if phase.is_adaptive:
            return self._adaptive_hold(idx)
        return float(phase.duration_seconds)

    def _bridging_horizon(self) -> float:
        """Time until something other than the battery carries the day:
        utility restore, or a full-capacity DG taking over."""
        if self.dg_full:
            return min(self.T, self.t_dg)
        return self.T

    def _drain_rate(self, power_watts: float, active: Optional[int] = None) -> float:
        """Fractional state-of-charge consumed per second at ``power_watts``
        (0 for loads the battery never sees)."""
        if self.ups is None or power_watts <= 0:
            return 0.0
        return self.ups.drain_rate(power_watts, active)

    def _adaptive_hold(self, idx: int) -> float:
        """Solve how long the adaptive phase can run (module docstring)."""
        phase = self.phases[idx]
        horizon = self._bridging_horizon()
        remaining_window = horizon - self.t
        if remaining_window <= 0:
            return 0.0
        if self.ups is None:
            # No battery to ration: hold until the horizon (a DG must be
            # carrying the load, or the run will crash immediately anyway).
            return remaining_window

        fixed = self.phases[idx + 1 : -1]
        terminal = self.phases[-1]
        if any(p.is_adaptive or p.is_terminal for p in fixed):
            raise SimulationError("plan has multiple adaptive/terminal phases")

        soc = self.ups.state_of_charge * (1.0 - _RESERVE_SLACK)
        rate_hold = self._drain_rate(phase.power_watts, phase.active_servers)
        rate_save = self._drain_rate(terminal.power_watts, terminal.active_servers)
        committed_soc = ordered_sum(
            self._drain_rate(p.power_watts, p.active_servers) * float(p.duration_seconds)
            for p in fixed
        )
        committed_time = ordered_sum(float(p.duration_seconds) for p in fixed)
        return solve_hold_time(
            soc,
            rate_hold,
            rate_save,
            committed_soc,
            committed_time,
            remaining_window,
        )

    # -- source selection ---------------------------------------------------------

    def _source_for(
        self, power_watts: float, active: Optional[int] = None
    ) -> Optional[SourceKind]:
        """Who can carry ``power_watts`` right now; None means nobody."""
        if power_watts <= 0:
            return SourceKind.NONE
        if (
            self._dg_usable
            and self.t >= self.t_dg - _EPS
            and self.dg.can_carry(power_watts)
            and self.dg.fuel_energy_joules > 0
        ):
            return SourceKind.DG
        if (
            self.ups is not None
            and self.ups.can_carry(power_watts, active)
            and not self.ups.is_exhausted
        ):
            return SourceKind.UPS
        return None

    # -- main loop -------------------------------------------------------------------

    def execute(self) -> OutageOutcome:
        if self.tracer is not None:
            self._open_phase_span()
        # Section 3's seamlessness condition: the PSU hold-up must bridge
        # the offline UPS's switch-in gap, or the servers drop at the very
        # first instant despite the battery behind them.  (Default specs
        # are seamless — 30 ms hold-up vs 10 ms detection; an injected PSU
        # hold-up loss voids the bridge the same way.)
        if (
            not (self.dc.switchover_is_seamless and self._psu_ok)
            and self.phases[0].power_watts > 0
        ):
            self._crash(0.0)
            return self._outcome()
        while self.t < self.T - _EPS:
            if self.dg_full and self.t >= self.t_dg - _EPS:
                self._internal_dg_restore()
                break

            phase = self.phases[self.idx]
            source = self._source_for(phase.power_watts, phase.active_servers)
            if source is None:
                self._crash(self.t)
                break

            seg_end = self._segment_end(phase, source)
            self._advance(phase, source, seg_end)

            if self._dispatch_boundary(phase, source, seg_end):
                break

        if not self.crashed and not self.restored_by_dg and self.t >= self.T - _EPS:
            self._utility_restore()

        return self._outcome()

    def _segment_end(self, phase: PlanPhase, source: SourceKind) -> float:
        candidates = [self.T]
        if self._dg_usable and self.t < self.t_dg:
            candidates.append(self.t_dg)
        if not math.isinf(self.phase_remaining):
            candidates.append(self.t + self.phase_remaining)
        if source is SourceKind.UPS:
            assert self.ups is not None
            candidates.append(
                self.t
                + self.ups.remaining_runtime_at(
                    phase.power_watts, phase.active_servers
                )
            )
        if source is SourceKind.DG:
            candidates.append(self.t + self.dg.remaining_runtime_at(phase.power_watts))
        return min(candidates)

    def _advance(self, phase: PlanPhase, source: SourceKind, seg_end: float) -> None:
        duration = seg_end - self.t
        if duration < 0:
            raise SimulationError("segment moved backwards")
        self.trace.record(
            self.t,
            seg_end,
            phase.power_watts,
            phase.performance,
            source.value,
            phase.name,
        )
        if source is SourceKind.UPS:
            assert self.ups is not None
            if self.guard is not None:
                soc_before = self.ups.state_of_charge
                self.ups.carry(phase.power_watts, duration, phase.active_servers)
                self.guard.check_discharge_step(
                    soc_before,
                    self.ups.state_of_charge,
                    f"phase {phase.name!r} at t={self.t:.1f}s",
                )
            else:
                self.ups.carry(phase.power_watts, duration, phase.active_servers)
        elif source is SourceKind.DG:
            self.dg.carry(phase.power_watts, duration)
        if self.metrics is not None:
            if source is SourceKind.UPS:
                self.metrics.histogram("battery.soc").observe(
                    self.ups.state_of_charge
                )
                self.metrics.counter("battery.discharge_wh").inc(
                    phase.power_watts * duration / 3600.0
                )
            if duration > 0:
                self.metrics.histogram(
                    f"sim.phase_seconds[{phase.name}]"
                ).observe(duration)
        if self.tracer is not None and source is not self._last_source:
            self.tracer.event("source", t=self.t, source=source.value)
            self._last_source = source
        if not math.isinf(self.phase_remaining):
            self.phase_remaining -= duration
        self.t = seg_end

    def _dispatch_boundary(
        self, phase: PlanPhase, source: SourceKind, seg_end: float
    ) -> bool:
        """Handle whichever event ended the segment.  Returns True to stop."""
        if seg_end >= self.T - _EPS:
            return True  # outage over; restore handled by caller
        if self._dg_usable and abs(seg_end - self.t_dg) <= _EPS:
            if self.dg_full:
                self._internal_dg_restore()
                return True
            if self.phase_remaining > _EPS:
                return False  # source re-evaluated next iteration
            # The DG arrival coincides with a phase boundary (within
            # _EPS).  Fall through to the phase transition: returning
            # False here would re-enter this branch every iteration with
            # a zero-length segment and never advance — the infinite
            # loop the scalar/batch differential certification caught.
        if self.phase_remaining <= _EPS:
            self.idx += 1
            if self.idx >= len(self.phases):
                raise SimulationError("ran past the terminal phase")
            self.phase_remaining = self._phase_duration_on_entry(self.idx)
            if self.tracer is not None:
                self._close_phase_span()
                self._open_phase_span()
            return False
        # Otherwise the battery (or DG fuel / run budget) ran dry mid-phase.
        if source is SourceKind.DG and self.dg.tripped:
            # The injected run limit expired under load: the engine dies.
            # Strike the DG from the rest of the run and re-evaluate the
            # source — a still-charged UPS catches the load (that is what
            # an offline UPS is for); nobody left means a crash next turn.
            self._record_fault("dg_trip", t=self.t)
            self._dg_usable = False
            self.dg_full = False
            self.t_dg = math.inf
            return False
        if phase.state_safe:
            # State is parked safely; just wait out the outage at 0 W.
            if self.tracer is not None:
                self.tracer.event("backup-exhausted", t=self.t, phase=phase.name)
            self.phase_remaining = math.inf
            return False
        self._crash(seg_end)
        return True

    # -- terminal paths -----------------------------------------------------------------

    def _crash(self, when: float) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "crash", t=float(when), phase=self.phases[self.idx].name
            )
        self.crashed = True
        self.crash_time = when
        # Remote serving (geo-failover) survives the local fleet's death.
        crash_perf = self.phases[self.idx].crash_performance
        dg_recovers = self.dg_full and not self.dg.tripped
        power_return = min(self.T, self.t_dg) if dg_recovers else self.T
        power_return = max(power_return, when)
        if dg_recovers and power_return < self.T and self.dg.run_limited:
            # A run-limited engine only counts as a mid-outage recovery
            # source if its remaining budget carries the fleet all the way
            # to utility restore; otherwise it would die mid-reboot, so we
            # conservatively book recovery from utility return instead.
            needed = self.T - power_return
            if self.dg.remaining_runtime_at(self.normal_power) < needed - _EPS:
                self._record_fault("dg_trip", t=power_return)
                self._dg_usable = False
                self.dg_full = False
                self.t_dg = math.inf
                power_return = self.T
        recovery = self.dc.workload.crash_downtime_after_restore_seconds(
            self.dc.cluster.spec, lost_work_seconds=self.lost_work_seconds
        )
        recovery_end = power_return + recovery
        if crash_perf > 0 and power_return > when:
            self.trace.record(
                when, power_return, 0.0, crash_perf,
                SourceKind.NONE.value, "degraded-after-local-loss",
            )
        if power_return < self.T:
            # Recovering (and then serving) on DG power inside the outage;
            # any remote serving keeps answering while the fleet reboots.
            boot_end = min(recovery_end, self.T)
            self.trace.record(
                power_return, boot_end, self.normal_power, crash_perf,
                SourceKind.DG.value, "crash-recovery",
            )
            self.dg.carry(self.normal_power, boot_end - power_return)
            if recovery_end < self.T:
                sustained = self.dg.carry(self.normal_power, self.T - recovery_end)
                self.trace.record(
                    recovery_end, recovery_end + sustained, self.normal_power, 1.0,
                    SourceKind.DG.value, "full-service-on-dg",
                )
            self.downtime_after = max(0.0, recovery_end - self.T) * (
                1.0 - crash_perf
            )
        else:
            # Recovery happens after utility restore; remote serving (if
            # any) degrades it from an outage to a slowdown.
            self.downtime_after = recovery * (1.0 - crash_perf)
        self.t = self.T

    def _internal_dg_restore(self) -> None:
        """A full-capacity DG takes over mid-outage: resume full service."""
        if self.tracer is not None:
            self.tracer.event(
                "dg-restore", t=self.t, phase=self.phases[self.idx].name
            )
        self.restored_by_dg = True
        phase = self.phases[self.idx]
        committed_remaining = 0.0
        if phase.committed and not math.isinf(self.phase_remaining):
            committed_remaining = max(0.0, self.phase_remaining)
        resume = phase.resume_downtime_seconds
        start = max(self.t, self.t_dg)

        # Finish the committed work, then walk the resume path, on DG power.
        # Each segment carries first and records what was actually
        # sustained: a run-limited engine (injected fail-while-running) can
        # die under any of them, at which point _dg_died books the abrupt
        # loss.  An unlimited engine always sustains in full — the default
        # 24 h fuel reserve never runs dry for the paper's outages — so the
        # fault-free trace is unchanged.
        commit_end = start + committed_remaining
        resume_end = commit_end + resume
        if committed_remaining > 0:
            seg_end = min(commit_end, self.T)
            if seg_end > start:
                wanted = seg_end - start
                sustained = self.dg.carry(
                    min(phase.power_watts, self.normal_power), wanted
                )
                if sustained > 0:
                    self.trace.record(
                        start, start + sustained, phase.power_watts,
                        phase.performance, SourceKind.DG.value,
                        f"{phase.name}-completing",
                    )
                if sustained < wanted - _EPS:
                    return self._dg_died(start + sustained)
        if resume > 0:
            seg_start = min(commit_end, self.T)
            seg_end = min(resume_end, self.T)
            if seg_end > seg_start:
                wanted = seg_end - seg_start
                sustained = self.dg.carry(self.normal_power, wanted)
                if sustained > 0:
                    self.trace.record(
                        seg_start, seg_start + sustained, self.normal_power,
                        0.0, SourceKind.DG.value, "resuming",
                    )
                if sustained < wanted - _EPS:
                    return self._dg_died(seg_start + sustained)
        if resume_end < self.T:
            wanted = self.T - resume_end
            sustained = self.dg.carry(self.normal_power, wanted)
            if sustained > 0:
                self.trace.record(
                    resume_end, resume_end + sustained, self.normal_power, 1.0,
                    SourceKind.DG.value, "full-service-on-dg",
                )
            if sustained < wanted - _EPS:
                return self._dg_died(resume_end + sustained)
        # Down time inside the outage window is read off the trace; only the
        # overflow past utility restore is booked separately.
        self.downtime_after = max(0.0, resume_end - self.T)
        self.t = self.T

    def _dg_died(self, when: float) -> None:
        """The engine dies while carrying the restored fleet (injected
        fail-while-running): abrupt power loss with the plan already
        retired, so the servers crash and recovery waits for utility."""
        self._record_fault("dg_trip", t=float(when))
        if self.tracer is not None:
            self.tracer.event("crash", t=float(when), phase="dg-carried")
        self._dg_usable = False
        self.dg_full = False
        self.t_dg = math.inf
        self.restored_by_dg = False
        self.crashed = True
        self.crash_time = when
        # Remote serving (geo-failover) survives the local fleet's death,
        # exactly as in _crash.
        crash_perf = self.phases[self.idx].crash_performance
        if crash_perf > 0 and self.T > when:
            self.trace.record(
                when, self.T, 0.0, crash_perf,
                SourceKind.NONE.value, "degraded-after-local-loss",
            )
        recovery = self.dc.workload.crash_downtime_after_restore_seconds(
            self.dc.cluster.spec, lost_work_seconds=self.lost_work_seconds
        )
        self.downtime_after = recovery * (1.0 - crash_perf)
        self.t = self.T

    def _utility_restore(self) -> None:
        """Utility returns at T with the plan still in control (no crash)."""
        phase = self.phases[self.idx]
        committed_remaining = 0.0
        if phase.committed and not math.isinf(self.phase_remaining):
            committed_remaining = max(0.0, self.phase_remaining)
        self.downtime_after = (
            committed_remaining * (1.0 - phase.performance)
            + phase.resume_downtime_seconds
        )

    # -- outcome assembly ------------------------------------------------------------------

    def _outcome(self) -> OutageOutcome:
        if self.tracer is not None:
            self._close_phase_span()
        downtime_during = self.trace.zero_performance_seconds(0.0, self.T)
        mean_perf = self.trace.mean_performance(0.0, self.T)
        charge_used = 0.0
        soc_end = 0.0
        ups_energy = 0.0
        if self.ups is not None:
            soc_end = self.ups.state_of_charge
            charge_used = self._initial_soc - soc_end
            ups_energy = self.ups.energy_delivered_joules
        outcome = OutageOutcome(
            technique_name=self.plan.technique_name,
            outage_seconds=self.T,
            crashed=self.crashed,
            crash_time_seconds=self.crash_time,
            state_preserved=not self.crashed,
            downtime_during_outage_seconds=downtime_during,
            downtime_after_restore_seconds=self.downtime_after,
            mean_performance=mean_perf,
            ups_charge_consumed=charge_used,
            ups_state_of_charge_end=soc_end,
            ups_energy_joules=ups_energy,
            dg_energy_joules=self.dg.spec.fuel_energy_joules
            - self.dg.fuel_energy_joules,
            peak_backup_power_watts=self.trace.peak_power_watts(),
            restored_by_dg=self.restored_by_dg,
            trace=self.trace,
        )
        if self.metrics is not None:
            self.metrics.counter("sim.outages").inc()
            self.metrics.counter("sim.downtime_seconds[during]").inc(
                max(0.0, downtime_during)
            )
            self.metrics.counter("sim.downtime_seconds[after]").inc(
                max(0.0, self.downtime_after)
            )
            if self.crashed:
                self.metrics.counter("sim.crashes").inc()
        if self.guard is not None:
            self.guard.check_outcome(outcome)
        return outcome
