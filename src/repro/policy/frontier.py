"""The policy frontier: cost vs. expected performability, adaptive vs. static.

The paper's Table 3 story prices *static* commitments: pick a backup
configuration and a technique up front, pay the configuration's cost,
accept the technique's performability.  This analysis re-plots that
trade-off with online policies in the mix.  Each cell integrates one
(configuration, policy) pairing over the Figure 1(b) outage-duration
distribution — the same deterministic quadrature the what-if analysis
uses — into one expected :func:`~repro.policy.base.performability_score`.
The reduce step marks the Pareto frontier over (cost, score), checks the
hindsight baseline really is an upper bound on every configuration it
ran on, and lists every strict domination of a static cell by an
adaptive one (the headline the smoke benchmark asserts).

Cells follow the runner's job contract: specs carry only registry names
and scalars, results are plain JSON-able dicts, and ``seed`` is ignored
because the quadrature is deterministic — so results cache and batch
exactly like ``rank``/``sweep``/``whatif`` cells do.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.frontier import dominates, pareto_frontier
from repro.errors import PolicyError, TechniqueError
from repro.runner.jobs import Job, make_jobs
from repro.units import ordered_sum

#: Score slack for the hindsight-bound check: rollouts replay the same
#: closed-form arithmetic, so the only admissible gap is float noise.
SCORE_TOLERANCE = 1e-9

#: The default policy roster: one static anchor per serving stance plus
#: every adaptive controller, hindsight last.
DEFAULT_POLICY_SPECS: Tuple[str, ...] = (
    "static:full-service",
    "static:sleep-l",
    "static:hibernate-l",
    "greedy",
    "lyapunov",
    "hindsight",
)


def policy_cell(spec: Mapping[str, Any], seed: Any) -> Dict[str, Any]:
    """Runner job: one (configuration, policy) expectation.

    The spec carries ``workload``, ``configuration``, ``policy`` (a spec
    string for :func:`~repro.policy.parse.parse_policy`),
    ``nodes_per_bucket`` and ``servers``.  ``seed`` is ignored — the
    quadrature is deterministic.
    """
    from repro.core.configurations import get_configuration
    from repro.core.performability import make_datacenter
    from repro.core.whatif import ExpectedOutageAnalyzer
    from repro.policy.base import performability_score
    from repro.policy.catalog import ModeCatalog
    from repro.policy.parse import parse_policy
    from repro.sim.outage_sim import simulate_outage
    from repro.workloads.registry import get_workload

    workload = get_workload(spec["workload"])
    configuration = get_configuration(spec["configuration"])
    policy = parse_policy(spec["policy"])
    record: Dict[str, Any] = {
        "workload": workload.name,
        "configuration": configuration.name,
        "policy": spec["policy"],
        "label": policy.name,
        "adaptive": not policy.name.startswith("static:"),
        "clairvoyant": policy.clairvoyant,
        "normalized_cost": configuration.normalized_cost(),
        "feasible": True,
        "expected_score": 0.0,
        "expected_performance": 0.0,
        "expected_downtime_seconds": 0.0,
        "crash_probability": 0.0,
    }
    datacenter = make_datacenter(workload, configuration, spec["servers"])
    analyzer = ExpectedOutageAnalyzer(
        workload,
        nodes_per_bucket=spec["nodes_per_bucket"],
        num_servers=spec["servers"],
    )
    nodes = analyzer.quadrature_nodes()
    total_weight = ordered_sum(weight for _, weight in nodes)
    score = performance = downtime = crash = 0.0
    try:
        catalog = ModeCatalog.compile(datacenter)
        for duration, weight in nodes:
            outcome = simulate_outage(
                datacenter, None, duration, policy=policy, catalog=catalog
            )
            score += weight * performability_score(outcome)
            performance += weight * outcome.mean_performance
            downtime += weight * outcome.downtime_seconds
            crash += weight * (1.0 if outcome.crashed else 0.0)
    except (TechniqueError, PolicyError):
        # A static anchor whose technique cannot fit this configuration's
        # budget, or a configuration with no compilable mode at all:
        # an infeasible cell, exactly like the plan path's treatment.
        record["feasible"] = False
        record["expected_downtime_seconds"] = float("inf")
        record["crash_probability"] = 1.0
        return record
    record["expected_score"] = score / total_weight
    record["expected_performance"] = performance / total_weight
    record["expected_downtime_seconds"] = downtime / total_weight
    record["crash_probability"] = crash / total_weight
    return record


def policy_frontier_jobs(
    workload_name: str,
    configuration_names: Sequence[str],
    policy_specs: Sequence[str] = DEFAULT_POLICY_SPECS,
    nodes_per_bucket: int = 2,
    num_servers: int = 16,
) -> List[Job]:
    """One cell job per (configuration, policy) pairing, grid order."""
    specs = []
    labels = []
    for configuration in configuration_names:
        for policy in policy_specs:
            specs.append(
                {
                    "workload": workload_name,
                    "configuration": configuration,
                    "policy": policy,
                    "nodes_per_bucket": nodes_per_bucket,
                    "servers": num_servers,
                }
            )
            labels.append(f"policy:{workload_name}/{configuration}/{policy}")
    return make_jobs(policy_cell, specs, labels=labels)


def _objectives(record: Mapping[str, Any]) -> Tuple[float, float]:
    """Minimise cost, maximise expected score."""
    return (record["normalized_cost"], -record["expected_score"])


def hindsight_is_upper_bound(
    records: Sequence[Mapping[str, Any]], tolerance: float = SCORE_TOLERANCE
) -> bool:
    """Whether, on every configuration a clairvoyant cell ran, its score
    is >= every other feasible cell's score (up to float noise)."""
    best_clairvoyant: Dict[str, float] = {}
    for record in records:
        if record["clairvoyant"] and record["feasible"]:
            key = record["configuration"]
            best_clairvoyant[key] = max(
                best_clairvoyant.get(key, -1.0), record["expected_score"]
            )
    for record in records:
        bound = best_clairvoyant.get(record["configuration"])
        if bound is None or not record["feasible"]:
            continue
        if record["expected_score"] > bound + tolerance:
            return False
    return True


def adaptive_dominations(
    records: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Every strict Pareto domination of a static cell by an adaptive,
    *online* cell (hindsight is a bound, not a deployable policy)."""
    dominations = []
    for adaptive in records:
        if not adaptive["feasible"] or not adaptive["adaptive"]:
            continue
        if adaptive["clairvoyant"]:
            continue
        for static in records:
            if static["adaptive"] or not static["feasible"]:
                continue
            if dominates(_objectives(adaptive), _objectives(static)):
                dominations.append(
                    {
                        "adaptive": {
                            "configuration": adaptive["configuration"],
                            "policy": adaptive["policy"],
                            "normalized_cost": adaptive["normalized_cost"],
                            "expected_score": adaptive["expected_score"],
                        },
                        "static": {
                            "configuration": static["configuration"],
                            "policy": static["policy"],
                            "normalized_cost": static["normalized_cost"],
                            "expected_score": static["expected_score"],
                        },
                    }
                )
    return dominations


def reduce_policy_frontier(
    records: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold cell records into the frontier payload.

    Returns a dict with the cell ``points`` (each gaining an
    ``on_frontier`` flag), the ``frontier`` subset in input order, the
    ``hindsight_is_upper_bound`` verdict, and every strict
    ``adaptive_dominations`` pairing.  Deterministic in input order —
    the serve path and the CLI fold identical lists identically.
    """
    feasible = [r for r in records if r["feasible"]]
    frontier = pareto_frontier(feasible, _objectives)
    frontier_ids = {id(r) for r in frontier}
    points = []
    for record in records:
        point = dict(record)
        point["on_frontier"] = id(record) in frontier_ids
        points.append(point)
    return {
        "points": points,
        "frontier": [
            {
                "configuration": r["configuration"],
                "policy": r["policy"],
                "normalized_cost": r["normalized_cost"],
                "expected_score": r["expected_score"],
            }
            for r in frontier
        ],
        "hindsight_is_upper_bound": hindsight_is_upper_bound(records),
        "adaptive_dominations": adaptive_dominations(records),
    }
