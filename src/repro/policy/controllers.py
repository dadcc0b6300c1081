"""The online controllers: static anchor, greedy reserve, Lyapunov.

Three policies that see only the observed context:

* :class:`StaticPolicy` — wraps any registered technique and splices its
  compiled plan wholesale at outage start.  The equivalence anchor: the
  policy engine executing ``StaticPolicy(t)`` is bit-identical to the
  plan path executing ``t``'s plan, which is what certifies the engine
  adds nothing of its own.
* :class:`GreedyReservePolicy` — serve at the best feasible mode, but
  keep a reserve: when the battery drops to the reserve threshold
  (sized so the save mode's entry transient still fits, with margin),
  switch to the save mode and park.  The online analogue of the paper's
  sustain-then-save hybrids, with the switch point decided from the
  *observed* charge instead of solved clairvoyantly.
* :class:`LyapunovPolicy` — drift-plus-penalty control after Urgaonkar
  et al. (arXiv 1103.3099): each epoch, pick the mode minimising
  ``V * (1 - performance) + Q * drain * horizon`` where the virtual
  queue ``Q = 1 - soc`` is the battery deficit.  Large ``V`` favours
  serving; a draining battery grows ``Q`` until parking wins.  A hard
  reserve floor backstops the tuning.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

from repro.errors import PolicyError
from repro.policy.base import (
    ModeView,
    OutagePolicy,
    PolicyContext,
    PolicyDecision,
)
from repro.policy.catalog import SAVE_MODE_ORDER, SERVE_MODE_ORDER
from repro.techniques.base import OutageTechnique


class StaticPolicy(OutagePolicy):
    """Splice one technique's compiled plan and never decide again."""

    def __init__(self, technique: Union[str, OutageTechnique]):
        if isinstance(technique, str):
            from repro.techniques.registry import get_technique

            technique = get_technique(technique)
        self.technique = technique
        self.name = f"static:{technique.name}"

    def decide(self, context: PolicyContext) -> PolicyDecision:
        from repro.core.performability import plan_context

        datacenter = context.datacenter
        if datacenter is None:
            raise PolicyError("StaticPolicy needs the engine's datacenter")
        plan = self.technique.compile_plan(plan_context(datacenter))
        return PolicyDecision(
            program=tuple(plan.phases), technique_name=plan.technique_name
        )


def _first_feasible(
    modes: Mapping[str, ModeView], order: Tuple[str, ...]
) -> Optional[ModeView]:
    for name in order:
        view = modes.get(name)
        if view is not None and view.ups_feasible:
            return view
    return None


class GreedyReservePolicy(OutagePolicy):
    """Serve until the battery hits a save-sized reserve, then park.

    Args:
        serve: Serving mode name (default: best of ``full``/``migrate``/
            ``throttle`` that the battery can carry).
        save: Parking mode name (default: cheapest-to-hold of the
            hibernate/sleep family that compiled).
        reserve_floor: State-of-charge fraction always held back.
        margin: Multiplier on the save mode's entry cost when sizing the
            reserve (2 = switch with twice the charge the transition
            needs, absorbing drain-model error).
    """

    name = "greedy"

    def __init__(
        self,
        serve: Optional[str] = None,
        save: Optional[str] = None,
        reserve_floor: float = 0.05,
        margin: float = 2.0,
    ):
        if not 0 <= reserve_floor < 1:
            raise PolicyError("reserve_floor must be in [0, 1)")
        if margin < 1:
            raise PolicyError("margin must be >= 1")
        self.serve = serve
        self.save = save
        self.reserve_floor = reserve_floor
        self.margin = margin

    def _serve_mode(self, modes: Mapping[str, ModeView]) -> Optional[ModeView]:
        if self.serve is not None:
            return modes.get(self.serve)
        return _first_feasible(modes, SERVE_MODE_ORDER)

    def _save_mode(self, modes: Mapping[str, ModeView]) -> Optional[ModeView]:
        if self.save is not None:
            return modes.get(self.save)
        return _first_feasible(modes, SAVE_MODE_ORDER)

    def _reserve(self, save: Optional[ModeView]) -> float:
        if save is None:
            return 0.0
        return min(1.0, self.reserve_floor + self.margin * save.entry_soc_cost)

    def decide(self, context: PolicyContext) -> PolicyDecision:
        modes = context.modes
        serve = self._serve_mode(modes)
        save = self._save_mode(modes)
        soc = context.state_of_charge
        reserve = self._reserve(save)
        at_reserve = soc is not None and soc <= reserve
        if save is not None and (context.reason == "reserve" or at_reserve):
            return PolicyDecision(mode=save.name)
        if serve is not None:
            review = reserve if (save is not None and soc is not None) else None
            return PolicyDecision(mode=serve.name, review_soc=review)
        if save is not None:
            return PolicyDecision(mode=save.name)
        # Nothing feasible: hold the lowest-power mode and let physics rule.
        fallback = min(
            modes.values(), key=lambda view: (view.power_watts, view.name)
        )
        return PolicyDecision(mode=fallback.name)


class LyapunovPolicy(OutagePolicy):
    """Drift-plus-penalty mode selection, re-decided every epoch.

    Args:
        v: The performance weight (the literature's ``V``): how much
            serving is worth relative to battery drift.  Large ``V``
            rides the battery harder before parking.
        epoch_seconds: Re-decision cadence.
        reserve_floor: Hard state-of-charge floor: at or below it the
            controller parks regardless of the score.
        horizon_seconds: Time scale converting a drain rate into a
            charge-pressure term (how far ahead the drift looks).
    """

    name = "lyapunov"

    def __init__(
        self,
        v: float = 1.0,
        epoch_seconds: float = 300.0,
        reserve_floor: float = 0.05,
        horizon_seconds: float = 3600.0,
    ):
        if v <= 0:
            raise PolicyError("v must be positive")
        if epoch_seconds <= 0:
            raise PolicyError("epoch_seconds must be positive")
        if not 0 <= reserve_floor < 1:
            raise PolicyError("reserve_floor must be in [0, 1)")
        if horizon_seconds <= 0:
            raise PolicyError("horizon_seconds must be positive")
        self.v = v
        self.epoch_seconds = epoch_seconds
        self.reserve_floor = reserve_floor
        self.horizon_seconds = horizon_seconds

    def _guard_soc(self, save: Optional[ModeView]) -> float:
        entry = save.entry_soc_cost if save is not None else 0.0
        return min(1.0, self.reserve_floor + entry)

    def decide(self, context: PolicyContext) -> PolicyDecision:
        modes = context.modes
        save = _first_feasible(modes, SAVE_MODE_ORDER)
        soc = context.state_of_charge
        if soc is None:
            # No battery to manage: plain greedy on performance.
            best = _first_feasible(modes, SERVE_MODE_ORDER)
            if best is None:
                best = min(
                    modes.values(), key=lambda view: (view.power_watts, view.name)
                )
            return PolicyDecision(mode=best.name)
        guard = self._guard_soc(save)
        if save is not None and (context.reason == "reserve" or soc <= guard):
            return PolicyDecision(mode=save.name)

        queue = 1.0 - soc  # the virtual battery-deficit queue
        best_name: Optional[str] = None
        best_score = float("inf")
        # Deterministic candidate order: serving modes first, then parking.
        for name in (*SERVE_MODE_ORDER, *SAVE_MODE_ORDER):
            view = modes.get(name)
            if view is None or not view.ups_feasible:
                continue
            score = (
                self.v * (1.0 - view.performance)
                + queue * view.drain_per_second * self.horizon_seconds
            )
            if score < best_score - 1e-15:
                best_score = score
                best_name = name
        if best_name is None:
            best_name = min(
                modes.values(), key=lambda view: (view.power_watts, view.name)
            ).name
        review = guard if save is not None else None
        return PolicyDecision(
            mode=best_name,
            hold_seconds=self.epoch_seconds,
            review_soc=review,
        )
