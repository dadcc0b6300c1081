"""The mode catalog: single-technique steady states policies choose among.

A *mode* is what one of the paper's techniques does once its entry
transient is over: a fixed (power, performance) steady state plus the
entry phases that reach it.  The catalog compiles each candidate
technique against the same :class:`~repro.techniques.base.TechniqueContext`
the plan path uses (:func:`repro.core.performability.plan_context`: the
UPS rating, else the DG rating, as the power budget), so a mode's phases
are byte-for-byte the phases a static plan would have executed.
Techniques that cannot fit the budget simply do not appear — infeasibility
shrinks the menu rather than crashing the controller.

Hybrids are deliberately *not* modes: a hybrid is itself a (hard-coded)
switching policy, and the whole point of :mod:`repro.policy` is to make
that switching decision online.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Hashable, Mapping, Tuple

from repro.errors import PolicyError, TechniqueError
from repro.policy.base import ModeView
from repro.sim.datacenter import Datacenter
from repro.techniques.base import PlanPhase
from repro.units import ordered_sum

#: mode name -> technique registry name compiled for it.
MODE_TECHNIQUES: Mapping[str, str] = {
    "full": "full-service",
    "throttle": "throttling",
    "sleep": "sleep",
    "sleep-l": "sleep-l",
    "hibernate": "hibernate",
    "hibernate-l": "hibernate-l",
    "migrate": "migration",
}

#: Modes that keep serving (positive steady performance), best first.
SERVE_MODE_ORDER: Tuple[str, ...] = ("full", "migrate", "throttle")

#: Modes that park state and wait, cheapest-to-hold first.
SAVE_MODE_ORDER: Tuple[str, ...] = ("hibernate-l", "hibernate", "sleep-l", "sleep")


@dataclass(frozen=True)
class PolicyMode:
    """One compiled mode.

    Attributes:
        name: Catalog name (``full``, ``throttle``, ``sleep-l``, ...).
        technique_name: The compiling technique's display name.
        entry_phases: Fixed-duration transient phases reaching the steady
            state (empty for modes with no transient, e.g. throttling).
        steady_phase: The terminal steady state.
    """

    name: str
    technique_name: str
    entry_phases: Tuple[PlanPhase, ...]
    steady_phase: PlanPhase

    @property
    def performance(self) -> float:
        return self.steady_phase.performance

    @property
    def entry_seconds(self) -> float:
        return ordered_sum(float(p.duration_seconds) for p in self.entry_phases)

    def program(self) -> Tuple[PlanPhase, ...]:
        """The mode's full phase program (entry transient + steady)."""
        return (*self.entry_phases, self.steady_phase)


class ModeCatalog:
    """The compiled menu of modes for one datacenter."""

    def __init__(self, modes: Mapping[str, PolicyMode]):
        if not modes:
            raise PolicyError("mode catalog is empty (no technique compiled)")
        self._modes: Dict[str, PolicyMode] = dict(modes)
        self._views: Dict[Hashable, Mapping[str, ModeView]] = {}

    @classmethod
    def compile(cls, datacenter: Datacenter) -> "ModeCatalog":
        """Compile every registered mode technique that fits the budget.

        The modes compile against the plan path's own context
        (:func:`repro.core.performability.plan_context`).
        """
        from repro.core.performability import plan_context
        from repro.techniques.registry import get_technique

        context = plan_context(datacenter)
        modes: Dict[str, PolicyMode] = {}
        for mode_name, technique_name in MODE_TECHNIQUES.items():
            technique = get_technique(technique_name)
            try:
                plan = technique.compile_plan(context)
            except TechniqueError:
                continue  # infeasible here; the menu just shrinks
            if any(phase.is_adaptive for phase in plan.phases):
                continue  # hybrids are policies, not modes
            modes[mode_name] = PolicyMode(
                name=mode_name,
                technique_name=plan.technique_name,
                entry_phases=tuple(plan.phases[:-1]),
                steady_phase=plan.phases[-1],
            )
        return cls(modes)

    def views_for(
        self, key: Hashable, build: Callable[[], Dict[str, ModeView]]
    ) -> Mapping[str, ModeView]:
        """The mode views against one battery, built once per ``key``.

        A run's views depend only on this catalog and the store its
        battery is built from (the UPS spec after fault derates, which
        carries the placement, and the server count), never on the
        charge, so every run keyed alike shares one read-only mapping.
        """
        views = self._views.get(key)
        if views is None:
            views = self._views[key] = MappingProxyType(build())
        return views

    def __contains__(self, name: str) -> bool:
        return name in self._modes

    def __iter__(self):
        return iter(self._modes.values())

    def __len__(self) -> int:
        return len(self._modes)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._modes)

    def get(self, name: str) -> PolicyMode:
        mode = self._modes.get(name)
        if mode is None:
            raise PolicyError(
                f"unknown mode {name!r}; catalog has {sorted(self._modes)}"
            )
        return mode
