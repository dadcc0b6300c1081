"""Fleet-smoke: certify the multi-site fleet subsystem end to end.

Four gates, in order:

1. **Seeded determinism.**  The ``fleet_frontier`` payload users are
   served must be identical serial, with a process pool, and at
   different worker counts — its configuration jobs follow the runner's
   positional SeedSequence discipline, so parallelism can never change
   a number.
2. **Independence regression.**  With the shock layer off, every site of
   a fleet year must reproduce the certified single-site yearly job
   *bit-identically* (same seeds, same dicts) — the fleet layer adds
   exactly nothing to the single-site path.
3. **Correlation sanity.**  Raising the regional-shock correlation (same
   shock rate, same seeds) must strictly increase the probability of
   >= 2 simultaneous site outages, folded from the batch fleet-year
   path (``simulate_fleet_years``) the frontier cells run on.
4. **Fleet frontier.**  Some fleet-level provisioning must strictly
   dominate the best uniform single-site Table 3 configuration on cost
   at equal-or-better fleet service — "the fleet is the backup" as a
   checked verdict, run over the serve-protocol reference path.

The frontier payload plus wall time lands in ``BENCH_fleet.json`` (the
CI artifact), the ``fleet`` stream of the bench ledger.  Run from the
repo root::

    PYTHONPATH=src python benchmarks/fleet_smoke.py

Exit code 0 = certified.  Used by ``make fleet-smoke`` and CI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_fleet.json"

DETERMINISM_YEARS = 8
INDEPENDENCE_YEARS = 4
CORRELATION_YEARS = 60
CORRELATION_SEED = 11
CORRELATION_SHOCK_RATE = 6.0
CORRELATION_LOW = 0.05
CORRELATION_HIGH = 0.6
FRONTIER_CONFIGS = ("MaxPerf", "LargeEUPS", "NoDG", "SmallPUPS")
FRONTIER_YEARS = 40


def check_determinism() -> int:
    """Gate 1: the frontier payload serial == process pool == any worker
    count; returns the fleet years each run simulates."""
    from repro.runner.executor import make_executor
    from repro.serve.protocol import canonical_json

    serial = canonical_json(run_frontier(DETERMINISM_YEARS, seed=42))
    for jobs in (2, 3):
        pooled = run_frontier(
            DETERMINISM_YEARS, seed=42, executor=make_executor(jobs=jobs)
        )
        if canonical_json(pooled) != serial:
            print(f"FAIL determinism: jobs={jobs} differs from serial")
            return -1
    return len(FRONTIER_CONFIGS) * DETERMINISM_YEARS


def check_independence() -> int:
    """Gate 2: uncorrelated fleet == independent single sites, dict for dict."""
    import numpy as np

    from repro.analysis.availability import _simulate_year
    from repro.core.configurations import get_configuration
    from repro.core.performability import (
        make_datacenter,
        plan_power_budget_watts,
    )
    from repro.fleet import get_fleet, simulate_fleet_year
    from repro.power.ups import DEFAULT_RECHARGE_SECONDS
    from repro.techniques.base import TechniqueContext
    from repro.techniques.registry import get_technique
    from repro.workloads.registry import get_workload

    fleet = get_fleet("us-triad")
    checked = 0
    for year in range(INDEPENDENCE_YEARS):
        year_seed = np.random.SeedSequence(7).spawn(INDEPENDENCE_YEARS)[year]
        fleet_result = simulate_fleet_year(
            {"fleet": fleet, "routing": True}, year_seed
        )
        # Re-derive the same positional seed subtree from scratch
        # (SeedSequence.spawn is stateful on the parent object).
        site_seeds = (
            np.random.SeedSequence(7)
            .spawn(INDEPENDENCE_YEARS)[year]
            .spawn(len(fleet.sites))
        )
        for site, site_seed in zip(fleet.sites, site_seeds):
            workload = get_workload(site.workload)
            datacenter = make_datacenter(
                workload, get_configuration(site.configuration), site.servers
            )
            context = TechniqueContext(
                cluster=datacenter.cluster,
                workload=workload,
                power_budget_watts=plan_power_budget_watts(datacenter),
            )
            plan = get_technique(site.technique).compile_plan(context)
            single = _simulate_year(
                {
                    "datacenter": datacenter,
                    "plan": plan,
                    "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
                },
                site_seed,
            )
            if single != fleet_result["sites"][site.name]:
                print(
                    f"FAIL independence: year {year}, site {site.name}:\n"
                    f"  single: {single}\n"
                    f"  fleet:  {fleet_result['sites'][site.name]}"
                )
                return -1
            checked += 1
    return checked


def check_correlation() -> dict:
    """Gate 3: P(>=2 simultaneous site outages) rises with correlation."""
    import numpy as np

    from repro.fleet import get_fleet, simulate_fleet_years
    from repro.fleet.sim import reduce_fleet_scores

    base = get_fleet("regional-quad")
    seeds = np.random.SeedSequence(CORRELATION_SEED).spawn(CORRELATION_YEARS)
    results = {}
    for label, correlation in (
        ("low", CORRELATION_LOW),
        ("high", CORRELATION_HIGH),
    ):
        fleet = base.with_shocks(CORRELATION_SHOCK_RATE, correlation)
        report = reduce_fleet_scores(
            simulate_fleet_years(fleet, True, seeds), fleet, True
        )
        results[label] = {
            "correlation": correlation,
            "multi_site_outage_probability": report[
                "multi_site_outage_probability"
            ],
            "mean_simultaneous_outage_seconds": report[
                "mean_simultaneous_outage_seconds"
            ],
        }
    results["gap"] = (
        results["high"]["multi_site_outage_probability"]
        - results["low"]["multi_site_outage_probability"]
    )
    return results


def run_frontier(
    years: int = FRONTIER_YEARS, seed: int = 0, executor=None
) -> dict:
    """The us-triad ``fleet_frontier`` payload over the serve-protocol
    reference path (gates 1 and 4); serial unless given an executor."""
    from repro.runner.executor import SerialExecutor
    from repro.serve.analyses import evaluate_request
    from repro.serve.protocol import PROTOCOL_VERSION, parse_request

    request = parse_request(
        {
            "v": PROTOCOL_VERSION,
            "analysis": "fleet_frontier",
            "params": {
                "fleet": "us-triad",
                "configurations": list(FRONTIER_CONFIGS),
                "years": years,
                "seed": seed,
            },
        }
    )
    return evaluate_request(request, executor=executor or SerialExecutor())


def main() -> int:
    from repro.obs.bench import emit, metric

    started = time.perf_counter()

    determinism_years = check_determinism()
    if determinism_years < 0:
        return 1
    print(
        f"determinism: fleet_frontier payload ({determinism_years} fleet "
        "years) identical at jobs=1/2/3 (serial vs process pool)"
    )

    independence_pairs = check_independence()
    if independence_pairs < 0:
        return 1
    print(
        f"independence: {independence_pairs} (site, year) aggregates "
        "bit-identical to the single-site path"
    )

    correlation = check_correlation()
    print(
        "correlation: P(multi-site outage) "
        f"{correlation['low']['multi_site_outage_probability']:.3f} at "
        f"corr={CORRELATION_LOW} -> "
        f"{correlation['high']['multi_site_outage_probability']:.3f} at "
        f"corr={CORRELATION_HIGH}"
    )
    if correlation["gap"] <= 0:
        print("FAIL: correlation did not increase multi-site outages")
        return 1

    frontier_started = time.perf_counter()
    payload = run_frontier()
    frontier_seconds = time.perf_counter() - frontier_started
    elapsed = time.perf_counter() - started

    # Gate 4 wants a *strict* saving against the solo frontier, not a tie.
    dominations = [
        d
        for d in payload["dominations"]
        if d["single_site_on_frontier"] and d["cost_saving"] > 0
    ]
    verdict = payload["fleet_dominates_single_site"]
    print(
        f"fleet frontier: {len(dominations)} routed cells dominate the "
        f"single-site frontier (verdict: {verdict})"
    )
    for d in dominations[:3]:
        r, s = d["routed"], d["single_site"]
        print(
            f"  fleet {r['configuration']} (cost {r['normalized_cost']:.3f}, "
            f"perf {r['performability']:.6f})  dominates  "
            f"solo {s['configuration']} (cost {s['normalized_cost']:.3f}, "
            f"perf {s['performability']:.6f}), saving {d['cost_saving']:.2f}"
        )

    frontier_years_total = len(FRONTIER_CONFIGS) * 2 * FRONTIER_YEARS
    throughput = {
        "fleet_years": frontier_years_total,
        "wall_seconds": round(frontier_seconds, 3),
        "years_per_second": round(frontier_years_total / frontier_seconds, 1),
    }
    print(
        f"throughput: {throughput['fleet_years']} fleet years in "
        f"{throughput['wall_seconds']}s "
        f"({throughput['years_per_second']} years/s)"
    )

    emit(
        str(OUTPUT),
        "fleet",
        {
            "dominations": metric(len(dominations), "count", "higher"),
            "multi_site_gap": metric(
                correlation["gap"], "probability", "higher"
            ),
            "years_per_second": metric(
                throughput["years_per_second"], "1/s", "higher"
            ),
        },
        fleet="us-triad",
        configurations=list(FRONTIER_CONFIGS),
        determinism_years=determinism_years,
        independence_pairs_checked=independence_pairs,
        correlation=correlation,
        dominations=dominations,
        fleet_dominates_single_site=verdict,
        frontier=payload["frontier"],
        single_site_frontier=payload["single_site_frontier"],
        throughput=throughput,
        wall_seconds=round(elapsed, 3),
    )
    print(f"wrote {OUTPUT} ({elapsed:.1f}s)")

    if not verdict or not dominations:
        print("FAIL: no fleet provisioning dominates the single-site frontier")
        return 1
    print("fleet-smoke: certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
