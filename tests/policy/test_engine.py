"""Policy engine semantics: consulting, splicing, reserves, guards."""

import math

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter
from repro.errors import PolicyError, SimulationError
from repro.policy import (
    ModeCatalog,
    OutagePolicy,
    PolicyDecision,
    StaticPolicy,
)
from repro.policy.engine import _MAX_DELEGATIONS, _PolicyRun
from repro.sim.outage_sim import simulate_outage
from repro.workloads.registry import get_workload


def _datacenter(config="LargeEUPS", workload="websearch"):
    return make_datacenter(get_workload(workload), get_configuration(config))


class ModePolicy(OutagePolicy):
    """Always the same mode, with optional hold/review knobs."""

    name = "test-mode"

    def __init__(self, mode, hold=None, review=None):
        self._decision = dict(mode=mode, hold_seconds=hold, review_soc=review)

    def decide(self, context):
        return PolicyDecision(**self._decision)


class ScriptPolicy(OutagePolicy):
    """Plays back a list of decisions; records the contexts it saw."""

    name = "test-script"

    def __init__(self, decisions):
        self._decisions = list(decisions)
        self.contexts = []

    def decide(self, context):
        self.contexts.append(context)
        if len(self._decisions) > 1:
            return self._decisions.pop(0)
        return self._decisions[0]


class TestRunArgumentContract:
    def test_plan_and_policy_both_rejected(self):
        dc = _datacenter()
        from repro.core.performability import plan_power_budget_watts
        from repro.techniques.base import TechniqueContext
        from repro.techniques.registry import get_technique

        plan = get_technique("sleep-l").compile_plan(
            TechniqueContext(
                cluster=dc.cluster,
                workload=dc.workload,
                power_budget_watts=plan_power_budget_watts(dc),
            )
        )
        with pytest.raises(SimulationError):
            simulate_outage(
                dc, plan, 60.0, policy=StaticPolicy("sleep-l")
            )

    def test_neither_plan_nor_policy_rejected(self):
        with pytest.raises(SimulationError):
            simulate_outage(_datacenter(), None, 60.0)


class TestConsulting:
    def test_full_mode_rides_battery_like_plan(self):
        dc = _datacenter()
        outcome = simulate_outage(dc, None, 120.0, policy=ModePolicy("full"))
        assert outcome.mean_performance == pytest.approx(1.0)
        assert not outcome.crashed

    def test_hold_expiry_reconsults(self):
        dc = _datacenter()
        policy = ScriptPolicy(
            [
                PolicyDecision(mode="full", hold_seconds=30.0),
                PolicyDecision(mode="sleep-l"),
            ]
        )
        outcome = simulate_outage(dc, None, 600.0, policy=policy)
        reasons = [c.reason for c in policy.contexts]
        assert reasons[0] == "outage-start"
        assert "hold-expired" in reasons
        # Served the 30 s hold at full speed, then slept the rest.
        assert 0 < outcome.mean_performance < 1.0

    def test_reserve_review_fires_before_exhaustion(self):
        dc = _datacenter()
        policy = ScriptPolicy(
            [
                PolicyDecision(mode="full", review_soc=0.5),
                PolicyDecision(mode="hibernate-l"),
            ]
        )
        outcome = simulate_outage(dc, None, 7200.0, policy=policy)
        reserve_contexts = [
            c for c in policy.contexts if c.reason == "reserve"
        ]
        assert reserve_contexts, "review threshold never fired"
        assert reserve_contexts[0].state_of_charge == pytest.approx(
            0.5, abs=1e-6
        )
        assert not outcome.crashed
        assert outcome.state_preserved

    def test_review_ignored_when_already_below(self):
        """A review at-or-above the current charge is dropped, not looped."""
        dc = _datacenter()
        policy = ScriptPolicy(
            [
                PolicyDecision(mode="full", review_soc=1.0),
                PolicyDecision(mode="sleep-l"),
            ]
        )
        outcome = simulate_outage(dc, None, 300.0, policy=policy)
        assert outcome.mean_performance > 0.0

    def test_switch_counts_and_decisions(self):
        dc = _datacenter()
        policy = ScriptPolicy(
            [
                PolicyDecision(mode="full", hold_seconds=60.0),
                PolicyDecision(mode="throttle", hold_seconds=60.0),
                PolicyDecision(mode="sleep-l"),
            ]
        )
        run = _PolicyRun(dc, policy, 900.0)
        run.execute()
        assert run.decisions >= 3
        assert run.switches >= 2

    def test_continuation_does_not_replay_entry(self):
        """Re-deciding the same mode must not re-pay its entry transient."""
        dc = _datacenter()
        policy = ScriptPolicy(
            [
                PolicyDecision(mode="hibernate-l", hold_seconds=120.0),
                PolicyDecision(mode="hibernate-l", hold_seconds=120.0),
            ]
        )
        run = _PolicyRun(dc, policy, 1800.0)
        outcome = run.execute()
        catalog = run.catalog
        entry = catalog.get("hibernate-l").entry_seconds
        # One entry transient only: downtime during the outage is the
        # single image write plus the parked remainder, not two writes.
        assert entry > 0
        assert outcome.downtime_during_outage_seconds >= entry


class TestDelegation:
    def test_delegate_hands_off(self):
        dc = _datacenter()

        class Delegator(OutagePolicy):
            name = "delegator"

            def decide(self, context):
                return PolicyDecision(delegate=ModePolicy("full"))

        outcome = simulate_outage(dc, None, 120.0, policy=Delegator())
        assert outcome.mean_performance == pytest.approx(1.0)

    def test_delegation_loop_bounded(self):
        dc = _datacenter()

        class Loop(OutagePolicy):
            name = "loop"

            def decide(self, context):
                return PolicyDecision(delegate=Loop())

        with pytest.raises(PolicyError, match="delegation"):
            simulate_outage(dc, None, 120.0, policy=Loop())
        assert _MAX_DELEGATIONS < 100


class TestDecisionValidation:
    def test_exactly_one_selector(self):
        with pytest.raises(PolicyError):
            PolicyDecision()
        with pytest.raises(PolicyError):
            PolicyDecision(mode="full", delegate=ModePolicy("full"))

    def test_bad_hold_and_review(self):
        with pytest.raises(PolicyError):
            PolicyDecision(mode="full", hold_seconds=0.0)
        with pytest.raises(PolicyError):
            PolicyDecision(mode="full", review_soc=1.5)

    def test_program_must_be_terminal(self):
        from repro.techniques.base import PlanPhase

        with pytest.raises(PolicyError):
            PolicyDecision(
                program=(
                    PlanPhase("p", 100.0, 1.0, 60.0),
                )
            )

    def test_unknown_mode_raises(self):
        dc = _datacenter()
        with pytest.raises(PolicyError, match="unknown mode"):
            simulate_outage(dc, None, 60.0, policy=ModePolicy("warp-drive"))


class TestContext:
    def test_online_context_hides_clairvoyant_fields(self):
        dc = _datacenter()
        policy = ScriptPolicy([PolicyDecision(mode="full")])
        simulate_outage(dc, None, 120.0, policy=policy)
        context = policy.contexts[0]
        assert context.outage_seconds is None
        assert context.rollout is None
        with pytest.raises(PolicyError):
            _ = context.bridging_horizon_seconds

    def test_context_reports_dg_and_soc(self):
        dc = _datacenter("MaxPerf")
        policy = ScriptPolicy([PolicyDecision(mode="full")])
        simulate_outage(dc, None, 1200.0, policy=policy)
        context = policy.contexts[0]
        assert context.dg_pending
        assert 0 < context.dg_eta_seconds < math.inf
        assert context.dg_restores
        assert context.state_of_charge == pytest.approx(1.0)
        assert set(context.modes) == set(ModeCatalog.compile(dc).names())

    def test_mode_views_are_shared_per_battery_and_read_only(self):
        from repro.faults import FaultDraw

        dc = _datacenter("LargeEUPS")
        catalog = ModeCatalog.compile(dc)
        policy = ModePolicy("full")
        full = _PolicyRun(dc, policy, 600.0, catalog=catalog)
        drained = _PolicyRun(
            dc, policy, 900.0, initial_state_of_charge=0.3, catalog=catalog
        )
        # The views ignore the charge: one mapping for both runs.
        assert drained._mode_views is full._mode_views
        with pytest.raises(TypeError):
            full._mode_views["full"] = None
        # A faded battery is another store, with its own views, equal
        # to a fresh build against it.
        faded = FaultDraw(battery_capacity_factor=0.7)
        a = _PolicyRun(dc, policy, 600.0, faults=faded, catalog=catalog)
        b = _PolicyRun(dc, policy, 600.0, faults=faded, catalog=catalog)
        assert a._mode_views is b._mode_views
        assert a._mode_views is not full._mode_views
        assert dict(a._mode_views) == a._build_mode_views()
        assert dict(a._mode_views) != dict(full._mode_views)
