"""Execute an outage under a policy instead of a precompiled plan.

:class:`_PolicyRun` subclasses the plan engine
(:class:`~repro.sim.outage_sim._OutageRun`) and changes exactly three
things: the phase list starts empty and is *spliced* from policy
decisions, segment ends gain one extra candidate (the decision's
state-of-charge review threshold, solved in closed form against the same
Peukert drain the battery applies), and a boundary that exhausts the
spliced program consults the policy again instead of raising.  Everything
else — source selection, fault draws, invariant guards, closed-form
segment integration, crash/restore semantics, the power trace — is the
plan engine's code, untouched.  A run with no policy configured never
enters this module, so the plan path stays bit-identical by construction.

Decision points:

* ``outage-start`` — before the first segment (the seamlessness check
  sees the first *decided* phase, exactly as the plan path would).
* ``hold-expired`` — the decision's ``hold_seconds`` ran out.
* ``reserve`` — the battery reached the decision's ``review_soc``
  (never during a committed phase: an image write cannot be abandoned).

Clairvoyant policies additionally receive a rollout oracle that
simulates candidate programs — or rival online policies — against the
exact same trace (same faults, same initial charge, same DG roll) with
observability and guards off, which is how the hindsight baseline is an
upper bound *by construction* rather than by trusted arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional

from repro.checks.guard import InvariantGuard
from repro.errors import PolicyError
from repro.faults import FaultDraw
from repro.obs import MetricsRegistry, Tracer
from repro.policy.base import (
    ModeView,
    OutagePolicy,
    PolicyContext,
    PolicyDecision,
    RolloutCandidate,
)
from repro.policy.catalog import ModeCatalog
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome, SourceKind
from repro.sim.outage_sim import _EPS, _OutageRun
from repro.techniques.base import OutagePlan, PlanPhase
from repro.units import ordered_sum

#: Absolute slack on state-of-charge comparisons (review thresholds).
_SOC_EPS = 1e-9

#: Hard ceiling on decisions per outage — a backstop against a policy
#: that keeps asking for vanishing holds, far above any sane cadence.
_MAX_DECISIONS = 100_000

#: Longest delegate -> delegate chain one consult may walk.
_MAX_DELEGATIONS = 8


def _placeholder_plan(policy: OutagePolicy) -> OutagePlan:
    """A valid do-nothing plan to satisfy the base constructor; replaced
    by the first decision before any segment executes."""
    return OutagePlan(
        technique_name=f"policy:{policy.name}",
        phases=(
            PlanPhase(
                name="policy-pending",
                power_watts=0.0,
                performance=0.0,
                duration_seconds=math.inf,
                state_safe=True,
            ),
        ),
    )


class _PolicyRun(_OutageRun):
    """One policy-driven simulation's mutable state."""

    def __init__(
        self,
        datacenter: Datacenter,
        policy: OutagePolicy,
        outage_seconds: float,
        lost_work_seconds: Optional[float] = None,
        initial_state_of_charge: float = 1.0,
        dg_starts: bool = True,
        guard: Optional[InvariantGuard] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultDraw] = None,
        catalog: Optional[ModeCatalog] = None,
    ):
        super().__init__(
            datacenter,
            _placeholder_plan(policy),
            outage_seconds,
            lost_work_seconds,
            initial_state_of_charge=initial_state_of_charge,
            dg_starts=dg_starts,
            guard=guard,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
        )
        self.policy = policy
        self._dg_starts_param = dg_starts
        self.catalog = (
            catalog if catalog is not None else ModeCatalog.compile(datacenter)
        )
        self._mode_views = self.catalog.views_for(
            (
                None if self.ups is None else self.ups.spec,
                datacenter.cluster.num_servers,
            ),
            self._build_mode_views,
        )
        self._mode: Optional[str] = None
        self._review_soc: Optional[float] = None
        self._leaving: Optional[PlanPhase] = None
        self._final = False  # a terminal program is spliced; no more consults
        self.decisions = 0
        self.switches = 0
        self._consult("outage-start")

    # -- the controller's view ---------------------------------------------------

    def _build_mode_views(self) -> Dict[str, ModeView]:
        """Mode economics against *this* run's battery (fault derates
        included — the store was built from the derated spec); the
        catalog keeps them per store (:meth:`ModeCatalog.views_for`)."""
        views: Dict[str, ModeView] = {}
        for mode in self.catalog:
            steady = mode.steady_phase
            entry_cost = ordered_sum(
                self._drain_rate(p.power_watts, p.active_servers)
                * float(p.duration_seconds)
                for p in mode.entry_phases
            )
            feasible = True
            if self.ups is not None:
                feasible = all(
                    self.ups.can_carry(p.power_watts, p.active_servers)
                    for p in mode.program()
                    if p.power_watts > 0
                )
            views[mode.name] = ModeView(
                name=mode.name,
                performance=steady.performance,
                power_watts=steady.power_watts,
                drain_per_second=self._drain_rate(
                    steady.power_watts, steady.active_servers
                ),
                entry_seconds=mode.entry_seconds,
                entry_soc_cost=entry_cost,
                state_safe=steady.state_safe,
                resume_downtime_seconds=steady.resume_downtime_seconds,
                ups_feasible=feasible,
            )
        return views

    def _context(self, reason: str) -> PolicyContext:
        clairvoyant = self.policy.clairvoyant
        dg_eta = math.inf
        if self._dg_usable and math.isfinite(self.t_dg):
            dg_eta = max(0.0, self.t_dg - self.t)
        return PolicyContext(
            t=self.t,
            reason=reason,
            state_of_charge=(
                self.ups.state_of_charge if self.ups is not None else None
            ),
            initial_state_of_charge=self._initial_soc,
            normal_power_watts=self.normal_power,
            modes=self._mode_views,
            mode=self._mode,
            dg_pending=self._dg_usable and self.t < self.t_dg,
            dg_eta_seconds=dg_eta,
            dg_restores=self.dg_full,
            outage_seconds=self.T if clairvoyant else None,
            rollout=self._rollout if clairvoyant else None,
            datacenter=self.dc,
            catalog=self.catalog,
        )

    # -- the clairvoyant oracle ----------------------------------------------------

    def _rollout(self, candidate: RolloutCandidate) -> OutageOutcome:
        """Simulate ``candidate`` against this exact trace, silently.

        Same facility, same faults, same initial charge, same DG start
        roll; no tracer, no metrics, no guard — exploration must not
        pollute observability or strict checking.
        """
        if isinstance(candidate, OutagePolicy):
            if candidate.clairvoyant:
                raise PolicyError(
                    "rollout candidates must be online policies or programs"
                )
            run: _OutageRun = _PolicyRun(
                self.dc,
                candidate,
                self.T,
                self.lost_work_seconds,
                initial_state_of_charge=self._initial_soc,
                dg_starts=self._dg_starts_param,
                faults=self.faults,
                catalog=self.catalog,
            )
        else:
            plan = OutagePlan("rollout", tuple(candidate))
            run = _OutageRun(
                self.dc,
                plan,
                self.T,
                self.lost_work_seconds,
                initial_state_of_charge=self._initial_soc,
                dg_starts=self._dg_starts_param,
                faults=self.faults,
            )
        return run.execute()

    # -- consulting and splicing ---------------------------------------------------

    def _consult(self, reason: str) -> None:
        for _ in range(_MAX_DELEGATIONS):
            decision = self.policy.decide(self._context(reason))
            if decision.delegate is None:
                break
            self.policy = decision.delegate
            reason = "delegated"
        else:
            raise PolicyError(
                f"policy delegation chain exceeded {_MAX_DELEGATIONS}"
            )
        self.decisions += 1
        if self.decisions > _MAX_DECISIONS:
            raise PolicyError(
                f"policy issued more than {_MAX_DECISIONS} decisions in one "
                "outage (runaway consult loop)"
            )
        self._apply(decision, reason)

    def _apply(self, decision: PolicyDecision, reason: str) -> None:
        prev_mode = self._mode
        if decision.program is not None:
            program = list(decision.program)
            label = decision.technique_name or "program"
            if decision.technique_name is not None:
                # Record the outcome under the technique's own name, so a
                # static anchor is indistinguishable from the plan path.
                self.plan = OutagePlan(
                    technique_name=decision.technique_name,
                    phases=tuple(decision.program),
                )
            self._mode = None
            self._final = True
        else:
            # An infeasible mode choice is not an error here: the engine
            # executes it and physics decides (the segment crashes, exactly
            # as an over-budget plan would on the plan path).
            mode = self.catalog.get(decision.mode)
            if prev_mode == mode.name:
                program = [mode.steady_phase]  # continue: no re-entry
            else:
                program = list(mode.program())
            if decision.hold_seconds is not None:
                program[-1] = replace(
                    program[-1], duration_seconds=float(decision.hold_seconds)
                )
            label = mode.name
            self._mode = mode.name
            self._final = False

        wake = self._wake_phase(program, switching=self._mode != prev_mode)
        if wake is not None:
            program.insert(0, wake)
        self._leaving = None

        review = decision.review_soc
        self._review_soc = None
        if (
            review is not None
            and not self._final
            and self.ups is not None
            and review < self.ups.state_of_charge - _SOC_EPS
        ):
            self._review_soc = review

        self.phases = list(self.phases[: self.idx]) + program
        self.phase_remaining = self._phase_duration_on_entry(self.idx)
        if self.tracer is not None and self._phase_span is not None:
            self._close_phase_span()
            self._open_phase_span()

        if prev_mode is not None and self._mode not in (None, prev_mode):
            self.switches += 1
            if self.metrics is not None:
                self.metrics.counter("policy.switches").inc()
        if self.metrics is not None:
            self.metrics.counter(f"policy.decisions[{label}]").inc()
            if reason == "reserve":
                self.metrics.counter("policy.reserve_averted").inc()
        if self.tracer is not None:
            self.tracer.event(
                "policy-decision",
                t=float(self.t),
                mode=label,
                reason=reason,
                policy=self.policy.name,
            )

    def _wake_phase(
        self, program: List[PlanPhase], switching: bool
    ) -> Optional[PlanPhase]:
        """Leaving a parked state is not free: charge the departed phase's
        resume path (at the incoming program's peak draw, serving nothing)
        before the new mode starts."""
        leaving = self._leaving
        if not switching or leaving is None:
            return None
        if leaving.resume_downtime_seconds <= 0:
            return None
        return PlanPhase(
            name=f"wake-from-{leaving.name}",
            power_watts=max(p.power_watts for p in program),
            performance=0.0,
            duration_seconds=leaving.resume_downtime_seconds,
            committed=True,
            state_safe=leaving.state_safe,
            resume_downtime_seconds=0.0,
            active_servers=leaving.active_servers,
        )

    # -- engine overrides -----------------------------------------------------------

    def _segment_end(self, phase: PlanPhase, source: SourceKind) -> float:
        end = super()._segment_end(phase, source)
        if (
            self._review_soc is not None
            and not phase.committed
            and source is SourceKind.UPS
            and self.ups is not None
        ):
            soc = self.ups.state_of_charge
            rate = self._drain_rate(phase.power_watts, phase.active_servers)
            if soc > self._review_soc and 0 < rate < math.inf:
                # Drain is linear in time at fixed power, so the review
                # crossing has a closed form, like every other candidate.
                end = min(end, self.t + (soc - self._review_soc) / rate)
        return end

    def _dispatch_boundary(
        self, phase: PlanPhase, source: SourceKind, seg_end: float
    ) -> bool:
        if seg_end >= self.T - _EPS:
            return True  # outage over; base caller restores
        if self._dg_usable and abs(seg_end - self.t_dg) <= _EPS:
            return super()._dispatch_boundary(phase, source, seg_end)
        if not self._final:
            if (
                self._review_soc is not None
                and not phase.committed
                and self.ups is not None
                and self.ups.state_of_charge <= self._review_soc + _SOC_EPS
            ):
                # The review threshold fired: abandon the rest of the
                # current program and ask for the next move.
                self._leaving = phase
                self.phases = list(self.phases[: self.idx])
                self.idx = len(self.phases)
                self._consult("reserve")
                return False
            if self.phase_remaining <= _EPS and self.idx + 1 >= len(self.phases):
                # The decision's hold ran out with nothing queued behind
                # it — where the plan path would overrun its terminal
                # phase, the policy path asks again.
                self._leaving = phase
                self.idx += 1
                self._consult("hold-expired")
                return False
        return super()._dispatch_boundary(phase, source, seg_end)
