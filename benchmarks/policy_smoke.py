"""Policy-smoke: certify the online-dispatch policy subsystem end to end.

Three gates, in order:

1. **Equivalence.**  A ``StaticPolicy(t)`` run through the policy engine
   must be *equal* (dataclass equality over every outcome field) to the
   plan path running ``t``'s compiled plan, across techniques, durations
   and initial charges — the policy engine adds nothing of its own.
2. **Hindsight bound.**  Over the ``policy_frontier`` analysis the
   clairvoyant baseline's expected score must be >= every policy's score
   on every configuration it ran on (it simulates every rival as a
   candidate, so this is a construction property being re-verified).
3. **Adaptive value.**  At least one *online* adaptive policy must
   strictly Pareto-dominate a static Table 3 cell (no worse on cost and
   expected score, strictly better on one) — the headline claim that
   deciding during the outage beats committing before it.

The frontier payload plus wall time lands in ``BENCH_policy.json`` (the
CI artifact), the ``policy`` stream of the bench ledger.  Run from the
repo root::

    PYTHONPATH=src python benchmarks/policy_smoke.py

Exit code 0 = certified.  Used by ``make policy-smoke`` and CI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_policy.json"

EQUIVALENCE_TECHNIQUES = ("full-service", "sleep-l", "hibernate", "migration")
EQUIVALENCE_CONFIGS = ("LargeEUPS", "NoDG", "DG-SmallPUPS")
EQUIVALENCE_DURATIONS = (45.0, 600.0, 5400.0)

FRONTIER_CONFIGS = (
    "MaxPerf",
    "LargeEUPS",
    "SmallPUPS",
    "NoDG",
    "DG-SmallPUPS",
)


def check_equivalence() -> int:
    """Gate 1: StaticPolicy outcomes == plan-path outcomes, field for field."""
    from repro.core.configurations import get_configuration
    from repro.core.performability import (
        make_datacenter,
        plan_power_budget_watts,
    )
    from repro.errors import TechniqueError
    from repro.policy import ModeCatalog, StaticPolicy
    from repro.sim.outage_sim import simulate_outage
    from repro.techniques.base import TechniqueContext
    from repro.techniques.registry import get_technique
    from repro.workloads.registry import get_workload

    workload = get_workload("websearch")
    checked = 0
    for config_name in EQUIVALENCE_CONFIGS:
        datacenter = make_datacenter(workload, get_configuration(config_name))
        catalog = ModeCatalog.compile(datacenter)
        context = TechniqueContext(
            cluster=datacenter.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(datacenter),
        )
        for technique_name in EQUIVALENCE_TECHNIQUES:
            technique = get_technique(technique_name)
            try:
                plan = technique.compile_plan(context)
            except TechniqueError:
                continue  # infeasible on this configuration for both paths
            for duration in EQUIVALENCE_DURATIONS:
                for soc in (1.0, 0.45):
                    planned = simulate_outage(
                        datacenter,
                        plan,
                        duration,
                        initial_state_of_charge=soc,
                    )
                    policied = simulate_outage(
                        datacenter,
                        None,
                        duration,
                        initial_state_of_charge=soc,
                        policy=StaticPolicy(technique_name),
                        catalog=catalog,
                    )
                    if planned != policied:
                        print(
                            f"FAIL equivalence: {technique_name} on "
                            f"{config_name}, T={duration}s, soc={soc}:\n"
                            f"  plan:   {planned}\n  policy: {policied}"
                        )
                        return -1
                    checked += 1
    return checked


def run_frontier() -> dict:
    """Gates 2 + 3 run over the serve-protocol reference path."""
    from repro.runner.executor import SerialExecutor
    from repro.serve.analyses import evaluate_request
    from repro.serve.protocol import PROTOCOL_VERSION, parse_request

    request = parse_request(
        {
            "v": PROTOCOL_VERSION,
            "analysis": "policy_frontier",
            "params": {
                "workload": "websearch",
                "configurations": list(FRONTIER_CONFIGS),
                "nodes_per_bucket": 2,
            },
        }
    )
    return evaluate_request(request, executor=SerialExecutor())


def main() -> int:
    from repro.obs.bench import emit, metric

    started = time.perf_counter()
    checked = check_equivalence()
    if checked < 0:
        return 1
    print(f"equivalence: {checked} (plan, policy) outcome pairs identical")

    payload = run_frontier()
    elapsed = time.perf_counter() - started

    bound = payload["hindsight_is_upper_bound"]
    print(f"hindsight upper bound holds: {bound}")

    # Gate 3 wants a *meaningful* domination: the adaptive side must
    # actually deliver work (score > 0), not just tie a zero with a zero.
    dominations = [
        d
        for d in payload["adaptive_dominations"]
        if d["adaptive"]["expected_score"] > 0.0
    ]
    print(
        f"adaptive-over-static dominations: {len(dominations)} "
        f"(of {len(payload['adaptive_dominations'])} total)"
    )
    for d in dominations[:3]:
        a, s = d["adaptive"], d["static"]
        print(
            f"  {a['policy']} @ {a['configuration']} "
            f"(cost {a['normalized_cost']:.3f}, score {a['expected_score']:.4f})"
            f"  dominates  {s['policy']} @ {s['configuration']} "
            f"(cost {s['normalized_cost']:.3f}, score {s['expected_score']:.4f})"
        )

    emit(
        str(OUTPUT),
        "policy",
        {"dominations": metric(len(dominations), "count", "higher")},
        workload="websearch",
        configurations=list(FRONTIER_CONFIGS),
        equivalence_pairs_checked=checked,
        hindsight_is_upper_bound=bound,
        dominations=dominations,
        frontier=payload["frontier"],
        points=payload["points"],
        wall_seconds=round(elapsed, 3),
    )
    print(f"wrote {OUTPUT} ({elapsed:.1f}s)")

    if not bound:
        print("FAIL: an online policy outscored the hindsight baseline")
        return 1
    if not dominations:
        print("FAIL: no adaptive policy strictly dominates a static cell")
        return 1
    print("policy-smoke: certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
