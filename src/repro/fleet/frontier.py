"""The fleet frontier: how much backup can every site shed when the
fleet is the backup?

Each cell provisions *every* site of a named fleet with the same
Table-3 backup configuration and local technique, then Monte-Carlos the
fleet twice — once with geo-routing off (each site on its own, the
paper's single-site world) and once with routing on (the fleet is the
backup).  The reduce draws the Pareto frontier over (normalized per-site
backup cost, fleet performability) and reports every routed cell that
*dominates* an unrouted cell: cheaper backup at equal-or-better fleet
service is exactly the paper's underprovisioning bet restated at fleet
scale.

Cells are fingerprinted runner jobs carrying names only, with seeds
spawned by cell position — bit-identical at any worker count, cacheable,
and batcher-composable through ``(jobs, reduce)`` like the sweep and
policy-frontier analyses before it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.frontier import dominates, pareto_frontier
from repro.core.configurations import get_configuration
from repro.errors import RunnerError
from repro.fleet.sim import reduce_fleet_years, simulate_fleet_years
from repro.fleet.spec import get_fleet
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, child_seed, make_jobs
from repro.runner.progress import ProgressListener

#: Default per-cell sample size: enough years that every Table-3 config
#: sees multi-outage tails without making the smoke run minutes long.
DEFAULT_FLEET_YEARS = 40


def fleet_cell(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> Dict[str, Any]:
    """Runner job: one (configuration, routing) cell of the fleet frontier.

    The spec carries names only — ``fleet``, ``configuration``,
    ``technique``, ``routing``, ``years`` — so the job fingerprints on
    primitives.  Year ``y`` draws from ``child_seed(seed, y)``; the same
    (cell spec, seed) always replays the same years.  All of the cell's
    years run as one batch (:func:`repro.fleet.sim.simulate_fleet_years`).
    """
    if seed is None:
        raise RunnerError("fleet_cell requires a seeded job")
    fleet = get_fleet(spec["fleet"]).with_uniform(
        configuration=spec["configuration"], technique=spec["technique"]
    )
    routing = bool(spec["routing"])
    years = int(spec["years"])
    values = simulate_fleet_years(
        fleet, routing, [child_seed(seed, y) for y in range(years)]
    )
    report = reduce_fleet_years(values, fleet, routing)
    return {
        "fleet": spec["fleet"],
        "configuration": spec["configuration"],
        "technique": spec["technique"],
        "routing": routing,
        "years": years,
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
    """Fingerprinted cell jobs: every configuration, routed and unrouted."""
    if years <= 0:
        raise RunnerError("years must be positive")
    if not configuration_names:
        raise RunnerError("fleet frontier needs at least one configuration")
    get_fleet(fleet_name)  # fail fast on unknown fleets
    specs = []
    labels = []
    for configuration in configuration_names:
        for routing in (False, True):
            specs.append(
                {
                    "fleet": fleet_name,
                    "configuration": configuration,
                    "technique": technique,
                    "routing": routing,
                    "years": years,
                }
            )
            labels.append(
                f"fleet:{fleet_name}/{configuration}/"
                f"{'routed' if routing else 'solo'}"
            )
    return make_jobs(fleet_cell, specs, base_seed=seed, labels=labels)


def _objectives(record: Mapping[str, Any]) -> Tuple[float, float]:
    """Minimise backup cost, maximise fleet performability."""
    return (record["normalized_cost"], -record["performability"])


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
    return reduce_fleet_frontier(report.values)


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
    return job_list, reduce_fleet_frontier
