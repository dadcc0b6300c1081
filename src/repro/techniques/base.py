"""The technique abstraction: outage plans of piecewise-constant phases.

Table 4 describes every technique by what it does in four operational
windows (normal operation, start of outage, during outage, after restore).
We compile the middle two into an :class:`OutagePlan` — an ordered list of
:class:`PlanPhase` segments, each with a constant aggregate power draw and
a constant normalised performance — and the last into per-phase resume
annotations.  The outage simulator then executes the plan against a concrete
backup infrastructure (UPS battery with Peukert accounting, DG with start-up
delay), which is where feasibility, battery exhaustion and crash semantics
are decided.

Phase semantics:

* ``duration_seconds`` — a fixed length, ``inf`` for the terminal steady
  state, or ``None`` for *adaptive* phases whose length the simulator
  stretches as far as battery energy allows while reserving enough charge
  to complete the remaining phases (this is how Throttle+Sleep-L decides
  when to give up throttling and go to sleep).
* ``committed`` — once entered, the phase runs to completion even if power
  returns mid-way (a hibernation image write cannot be abandoned half-way).
* ``state_safe`` — if backup energy dies *during* this phase, volatile
  state survives (true only once state rests on disk; S3 self-refresh dies
  with the battery).
* ``resume_downtime_seconds`` — down time to return to full service when
  power returns while sitting in this phase (S3 exit, hibernation image
  restore, zero for throttling).

:meth:`OutageTechnique.compile_plan` memoizes plans process-wide (see
:data:`_PLANS`): a plan is a pure function of the technique's
constructor parameters and the frozen :class:`TechniqueContext`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import TechniqueError
from repro.memo import BoundedMemo
from repro.obs import current_tracer
from repro.servers.cluster import Cluster
from repro.servers.server import ServerSpec
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class PlanPhase:
    """One piecewise-constant segment of an outage plan.

    Attributes:
        name: Phase label used in traces and reports.
        power_watts: Aggregate draw the backup must source in this phase.
        performance: Normalised delivered throughput (0 when not serving).
        duration_seconds: Fixed length, ``inf`` (terminal), or ``None``
            (adaptive — see module docstring).
        committed: Phase must complete even if utility power returns.
        state_safe: Volatile state survives backup exhaustion in this phase.
        resume_downtime_seconds: Down time to restore full service when
            power returns during this phase.
        crash_performance: Throughput still delivered if the backup dies
            during this phase — non-zero only when something *other* than
            the local servers is serving (geo-failover's remote sites keep
            answering after the parked local fleet loses its battery).
        active_servers: How many servers the phase powers (None = all).
            Irrelevant for pooled rack-level batteries, but server-level
            packs strand the parked servers' charge and concentrate load on
            the survivors' private packs.
    """

    name: str
    power_watts: float
    performance: float
    duration_seconds: Optional[float]
    committed: bool = False
    state_safe: bool = False
    resume_downtime_seconds: float = 0.0
    crash_performance: float = 0.0
    active_servers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.power_watts < 0:
            raise TechniqueError(f"{self.name}: power must be >= 0")
        if not 0 <= self.performance <= 1:
            raise TechniqueError(f"{self.name}: performance must be in [0, 1]")
        if self.duration_seconds is not None and self.duration_seconds < 0:
            raise TechniqueError(f"{self.name}: duration must be >= 0 or None")
        if self.resume_downtime_seconds < 0:
            raise TechniqueError(f"{self.name}: resume downtime must be >= 0")
        if not 0 <= self.crash_performance <= self.performance + 1e-12:
            raise TechniqueError(
                f"{self.name}: crash_performance must be in [0, performance]"
            )
        if self.active_servers is not None and self.active_servers <= 0:
            raise TechniqueError(f"{self.name}: active_servers must be positive")

    @property
    def is_terminal(self) -> bool:
        return self.duration_seconds is not None and math.isinf(self.duration_seconds)

    @property
    def is_adaptive(self) -> bool:
        return self.duration_seconds is None


@dataclass(frozen=True)
class OutagePlan:
    """An ordered phase list ending in a terminal (infinite) phase.

    Attributes:
        technique_name: Name of the compiling technique.
        phases: The segments, executed in order from outage start; stored
            as a tuple, because compiled plans are shared.
        peak_power_watts: Largest phase draw — the power capacity the
            backup must be rated for (what the cost model prices).
    """

    technique_name: str
    phases: Sequence[PlanPhase]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise TechniqueError("plan needs at least one phase")
        *body, tail = self.phases
        if not tail.is_terminal:
            raise TechniqueError("last phase must have infinite duration")
        for phase in body:
            if phase.is_terminal:
                raise TechniqueError("only the last phase may be infinite")

    @property
    def peak_power_watts(self) -> float:
        return max(phase.power_watts for phase in self.phases)

    @property
    def terminal_phase(self) -> PlanPhase:
        return self.phases[-1]

    def fixed_prefix_seconds(self) -> float:
        """Total length of the non-terminal, non-adaptive phases."""
        total = 0.0
        for phase in self.phases[:-1]:
            if phase.duration_seconds is not None:
                total += phase.duration_seconds
        return total


@dataclass(frozen=True)
class TechniqueContext:
    """Everything a technique needs to compile its plan.

    Attributes:
        cluster: The server fleet under the outage.
        workload: The application running on it.
        power_budget_watts: Power capacity ceiling the plan's phases must
            respect (the UPS or DG rating); ``inf`` for unconstrained.
        holding_servers: Servers currently holding application state; fewer
            than ``cluster.num_servers`` after a consolidation stage has
            packed state onto a subset (used when hybrids chain save-state
            phases behind Migration).  ``None`` means all servers.
    """

    cluster: Cluster
    workload: WorkloadSpec
    power_budget_watts: float = float("inf")
    holding_servers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.power_budget_watts < 0:
            raise TechniqueError("power budget must be >= 0")
        if self.holding_servers is not None and not (
            0 < self.holding_servers <= self.cluster.num_servers
        ):
            raise TechniqueError(
                "holding_servers must be in (0, cluster.num_servers]"
            )

    @property
    def server(self) -> ServerSpec:
        return self.cluster.spec

    @property
    def active_servers(self) -> int:
        """Servers currently holding state (all, unless consolidated)."""
        if self.holding_servers is not None:
            return self.holding_servers
        return self.cluster.num_servers

    @property
    def state_concentration(self) -> float:
        """How much per-server state has grown through consolidation (the
        consolidated survivors hold ``num_servers / active`` workloads)."""
        return self.cluster.num_servers / self.active_servers

    @property
    def normal_power_watts(self) -> float:
        """Draw at the workload's normal operating point."""
        return self.cluster.power_watts(utilization=self.workload.utilization)


class OutageTechnique:
    """Base class for all outage-handling techniques.

    Subclasses implement :meth:`plan`.  A technique is stateless and
    reusable across contexts; per-outage state lives in the simulator.
    """

    #: Short stable identifier, set by subclasses.
    name: str = "abstract"

    def plan(self, context: TechniqueContext) -> OutagePlan:
        """Compile the outage plan for ``context``.

        Raises:
            TechniqueError: The technique cannot fit the power budget (e.g.
                no P-state deep enough) — callers treat this as an
                infeasible operating point, not a crash.
        """
        raise NotImplementedError

    def compile_plan(self, context: TechniqueContext) -> OutagePlan:
        """:meth:`plan`, memoized process-wide, in a ``technique.plan``
        span when tracing.

        The analysis layers call this entry point.  An equal technique
        (same class and constructor parameters) on an equal context gets
        the one stored plan; an infeasible compile raises a new
        :class:`TechniqueError` with the stored message.  Traced, every
        call records its span, with ``hit`` telling whether the memo
        answered it.
        """
        tracer = current_tracer()
        if tracer is None:
            return _unwrap(_compiled(self, context)[0])
        with tracer.span(
            "technique.plan", "technique", technique=self.name
        ) as span:
            entry, hit = _compiled(self, context)
            span.set("hit", hit)
            plan = _unwrap(entry)
            span.set("phases", len(plan.phases))
            span.set("peak_power_watts", plan.peak_power_watts)
            return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: (technique identity, context) -> the plan, or an infeasible compile's
#: error message.  Only the message is kept: a caught exception's
#: traceback would pin the frames of the job that raised it.
_PLANS = BoundedMemo(2048)

#: technique -> its memo identity, computed once per instance.  Weak, so
#: the identity never outlives the technique and adds no attribute to it.
_IDENTITIES: "weakref.WeakKeyDictionary[OutageTechnique, Hashable]" = (
    weakref.WeakKeyDictionary()
)


def _identity(technique: OutageTechnique) -> Hashable:
    """The class plus every instance attribute, parts of a hybrid by
    their own identity: everything a constructor parameter can set."""
    found = _IDENTITIES.get(technique)
    if found is None:
        found = (
            type(technique),
            tuple(
                (name, _identity(value))
                if isinstance(value, OutageTechnique)
                else (name, type(value), value)
                for name, value in sorted(vars(technique).items())
            ),
        )
        _IDENTITIES[technique] = found
    return found


def _compiled(
    technique: OutageTechnique, context: TechniqueContext
) -> Tuple[Union[OutagePlan, str], bool]:
    """The memo's entry for (technique, context), and whether it was a hit."""
    key = (_identity(technique), context)
    entry = _PLANS.get(key)
    if entry is not None:
        return entry, True
    try:
        entry = technique.plan(context)
    except TechniqueError as exc:
        entry = str(exc)
    return _PLANS.put(key, entry), False


def _unwrap(entry: Union[OutagePlan, str]) -> OutagePlan:
    if isinstance(entry, str):
        raise TechniqueError(entry)
    return entry


def check_budget(phases: List[PlanPhase], budget_watts: float, technique: str) -> None:
    """Raise :class:`TechniqueError` if any phase exceeds the power budget."""
    for phase in phases:
        if phase.power_watts > budget_watts * (1 + 1e-9):
            raise TechniqueError(
                f"{technique}: phase {phase.name!r} draws "
                f"{phase.power_watts:.0f} W, over the {budget_watts:.0f} W budget"
            )
