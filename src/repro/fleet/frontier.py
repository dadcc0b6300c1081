"""The fleet frontier: how much backup can every site shed when the
fleet is the backup?

Each configuration provisions *every* site of a named fleet with the
same Table-3 backup configuration and local technique, Monte-Carlos and
routes the fleet's years once, and scores them as two cells —
geo-routing off (each site on its own, the paper's single-site world)
and routing on (the fleet is the backup).  Both cells see the same
outage years (common random numbers), so routing alone separates them
and a routed cell never scores below its unrouted twin.  The reduce draws the Pareto frontier
over (normalized per-site backup cost, fleet performability) and reports
every routed cell that *dominates* an unrouted cell: cheaper backup at
equal-or-better fleet service is exactly the paper's underprovisioning
bet restated at fleet scale.

Each configuration is one fingerprinted runner job carrying names only,
seeded by configuration position (child ``2k`` of ``2n``, see
:func:`fleet_frontier_jobs`) — bit-identical at any worker count,
cacheable, and batcher-composable through ``(jobs, reduce)`` like the
sweep and policy-frontier analyses before it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.frontier import dominates, pareto_frontier
from repro.core.configurations import get_configuration
from repro.errors import RunnerError
from repro.fleet.sim import reduce_fleet_scores, simulate_fleet_routings
from repro.fleet.spec import get_fleet
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, child_seed, spawn_seeds
from repro.runner.progress import ProgressListener

#: Default per-cell sample size: enough years that every Table-3 config
#: sees multi-outage tails without making the smoke run minutes long.
DEFAULT_FLEET_YEARS = 40

#: Each configuration's cells, in payload order: unrouted, then routed.
ROUTINGS = (False, True)


def fleet_cell_pair(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> List[Dict[str, Any]]:
    """Runner job: one configuration of the fleet frontier, both cells.

    The spec carries names only — ``fleet``, ``configuration``,
    ``technique``, ``years`` — so the job fingerprints on primitives.
    Year ``y`` draws from ``child_seed(seed, y)``; the same (spec, seed)
    always replays the same years.  The years are sampled, run through
    each site plant's kernel once, and routed once for both cells
    (:func:`repro.fleet.sim.simulate_fleet_routings`: shared intervals
    and site states, the failover placement for the routed cell only),
    so the two cells differ only by routing.  Returns ``[unrouted
    record, routed record]``.
    """
    if seed is None:
        raise RunnerError("fleet_cell_pair requires a seeded job")
    fleet = get_fleet(spec["fleet"]).with_uniform(
        configuration=spec["configuration"], technique=spec["technique"]
    )
    years = int(spec["years"])
    results = simulate_fleet_routings(
        fleet, ROUTINGS, [child_seed(seed, y) for y in range(years)]
    )
    return [
        _cell_record(spec, reduce_fleet_scores(values, fleet, routing))
        for routing, values in zip(ROUTINGS, results)
    ]


def _cell_record(
    spec: Mapping[str, Any], report: Mapping[str, Any]
) -> Dict[str, Any]:
    """One frontier cell: the spec's names and the fleet report's scores."""
    return {
        "fleet": spec["fleet"],
        "configuration": spec["configuration"],
        "technique": spec["technique"],
        "routing": report["routing"],
        "years": int(spec["years"]),
        "normalized_cost": get_configuration(
            spec["configuration"]
        ).normalized_cost(),
        "availability": report["availability"],
        "performability": report["performability"],
        "mean_unserved_seconds_per_year": report[
            "mean_unserved_seconds_per_year"
        ],
        "multi_site_outage_probability": report[
            "multi_site_outage_probability"
        ],
        "remote_served_fraction": report["remote_served_fraction"],
    }


def fleet_frontier_jobs(
    fleet_name: str,
    configuration_names: Sequence[str],
    technique: str = "full-service",
    years: int = DEFAULT_FLEET_YEARS,
    seed: int = 0,
) -> List[Job]:
    """Fingerprinted jobs: one per configuration, routed and unrouted.

    Configuration ``k`` is seeded with child ``2k`` of ``2n`` spawned
    from ``seed``: the layout the golden corpus pins the unrouted cells
    under (``unrouted_sha256`` in ``tests/golden/fleet_frontier.json``).
    """
    if years <= 0:
        raise RunnerError("years must be positive")
    if not configuration_names:
        raise RunnerError("fleet frontier needs at least one configuration")
    get_fleet(fleet_name)  # fail fast on unknown fleets
    seeds = spawn_seeds(seed, 2 * len(configuration_names))[::2]
    return [
        Job(
            fn=fleet_cell_pair,
            spec={
                "fleet": fleet_name,
                "configuration": configuration,
                "technique": technique,
                "years": years,
            },
            index=k,
            seed=seeds[k],
            label=f"fleet:{fleet_name}/{configuration}",
        )
        for k, configuration in enumerate(configuration_names)
    ]


def _objectives(record: Mapping[str, Any]) -> Tuple[float, float]:
    """Minimise backup cost, maximise fleet performability."""
    return (record["normalized_cost"], -record["performability"])


def _reduce_cell_pairs(pairs: Sequence[Sequence[Any]]) -> Dict[str, Any]:
    """:func:`reduce_fleet_frontier` over the pair jobs' values, flattened
    in (unrouted, routed) order per configuration."""
    return reduce_fleet_frontier([record for pair in pairs for record in pair])


def reduce_fleet_frontier(
    records: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold cell records into the frontier payload.

    ``dominations`` pairs every routed cell with each *unrouted* cell it
    Pareto-dominates on (cost, performability); the headline verdict
    ``fleet_dominates_single_site`` holds when a routed cell beats a
    cell on the unrouted (single-site) frontier with strictly cheaper
    backup — the fleet bought availability that Table 3 alone had to buy
    with diesel.
    """
    records = list(records)
    if not records:
        raise RunnerError("cannot reduce zero fleet-frontier cells")
    frontier = pareto_frontier(records, _objectives)
    frontier_keys = {id(record) for record in frontier}
    unrouted = [record for record in records if not record["routing"]]
    unrouted_frontier = pareto_frontier(unrouted, _objectives)
    unrouted_frontier_keys = {id(record) for record in unrouted_frontier}

    dominations: List[Dict[str, Any]] = []
    for routed in records:
        if not routed["routing"]:
            continue
        for single in unrouted:
            if dominates(_objectives(routed), _objectives(single)):
                dominations.append(
                    {
                        "routed": dict(routed),
                        "single_site": dict(single),
                        "single_site_on_frontier": id(single)
                        in unrouted_frontier_keys,
                        "cost_saving": single["normalized_cost"]
                        - routed["normalized_cost"],
                    }
                )
    verdict = any(
        d["single_site_on_frontier"] and d["cost_saving"] > 0
        for d in dominations
    )
    return {
        "cells": [dict(record) for record in records],
        "frontier": [
            {
                "configuration": record["configuration"],
                "routing": record["routing"],
                "normalized_cost": record["normalized_cost"],
                "performability": record["performability"],
                "availability": record["availability"],
            }
            for record in frontier
        ],
        "single_site_frontier": [
            {
                "configuration": record["configuration"],
                "normalized_cost": record["normalized_cost"],
                "performability": record["performability"],
            }
            for record in unrouted_frontier
        ],
        "dominations": dominations,
        "fleet_dominates_single_site": verdict,
        "on_frontier_count": len(frontier_keys),
    }


def fleet_frontier(
    fleet_name: str,
    configuration_names: Sequence[str],
    technique: str = "full-service",
    years: int = DEFAULT_FLEET_YEARS,
    seed: int = 0,
    jobs: int = 1,
    executor: Optional[BaseExecutor] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
) -> Dict[str, Any]:
    """Run the full sweep and reduce — identical at any worker count."""
    job_list = fleet_frontier_jobs(
        fleet_name, configuration_names, technique=technique, years=years,
        seed=seed,
    )
    if executor is None:
        executor = make_executor(jobs=jobs, cache=cache, progress=progress)
    report = executor.run(job_list)
    return _reduce_cell_pairs(report.values)


def prepare_fleet_frontier(
    fleet_name: str,
    configuration_names: Sequence[str],
    technique: str = "full-service",
    years: int = DEFAULT_FLEET_YEARS,
    seed: int = 0,
) -> Tuple[List[Job], Callable[[Sequence[Any]], Dict[str, Any]]]:
    """The sweep as ``(jobs, reduce)`` — serve/batcher composable."""
    job_list = fleet_frontier_jobs(
        fleet_name, configuration_names, technique=technique, years=years,
        seed=seed,
    )
    return job_list, _reduce_cell_pairs
