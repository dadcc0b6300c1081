"""Runner-cache and engine-scaling smoke run (``make bench-smoke``).

Two gates:

1. **Cache round-trip.**  Runs one configuration sweep twice against the
   same on-disk cache: the first pass populates it, the second must be
   served entirely from disk with identical results — a fast end-to-end
   check of the fingerprint → cache → aggregate pipeline.
2. **Batch-engine scaling.**  Evaluates the same outage cells — each a
   (duration, state-of-charge, dg-start) triple — once through the
   scalar `simulate_outage` loop and once as a single vectorized
   `PlanKernel` batch, asserts every cell is bit-identical, and
   requires the batch engine to clear a 10x cells/sec speedup.  A
   secondary section re-times full Monte-Carlo years
   (`_simulate_year` vs `simulate_year_block`); that path is
   schedule-sampling-bound in both engines, so it is recorded without
   a floor.  The measurements land in ``BENCH_sim.json`` (the CI
   artifact), the ``sim`` stream of the bench ledger:

   .. code-block:: json

      {"bench": "sim",
       "metrics": {"speedup": {"value": ratio, "unit": "x",
                               "better": "higher"},
                   "yearly_speedup": {...}},
       "scalar": {"cells": N, "seconds": s, "cells_per_second": r},
       "batch":  {"cells": N, "seconds": s, "cells_per_second": r},
       "identical": true, ...}

Exits nonzero if the cache misses, results drift between engines, or
the speedup falls below the floor.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.availability import _simulate_year
from repro.analysis.sweep import sweep_configurations
from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.obs.bench import emit, metric
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner import ResultCache
from repro.techniques.registry import get_technique
from repro.techniques.base import TechniqueContext
from repro.sim.outage_sim import simulate_outage
from repro.units import minutes
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import simulate_year_block
from repro.workloads.specjbb import specjbb

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_sim.json"

#: Outage cells per engine in the scaling gate.  Wide enough to fill
#: the vector lanes, small enough for a CI smoke run.
BENCH_CELLS = 4000

#: Monte-Carlo years per engine in the secondary yearly measurement.
BENCH_YEARS = 200

#: The batch engine must clear this cells/sec multiple of the scalar
#: engine on the yearly path (the ISSUE's 10-100x target band).
SPEEDUP_FLOOR = 10.0


def _cache_gate() -> int:
    rows = ["MaxPerf", "LargeEUPS", "NoDG", "MinCost"]
    durations = [30.0, minutes(5), minutes(30), minutes(120)]
    n_cells = len(rows) * len(durations)

    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-") as root:
        started = time.perf_counter()
        cold_cache = ResultCache(root)
        cold = sweep_configurations(
            specjbb(), rows, durations, cache=cold_cache
        )
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm_cache = ResultCache(root)
        warm = sweep_configurations(
            specjbb(), rows, durations, cache=warm_cache
        )
        warm_seconds = time.perf_counter() - started

    print(
        f"bench-smoke[cache]: {n_cells} sweep cells | "
        f"uncached {cold_seconds:.3f}s ({cold_cache.stores} stored) | "
        f"cached {warm_seconds:.3f}s ({warm_cache.hits} hits, "
        f"{warm_cache.misses} misses)"
    )

    if warm_cache.hits != n_cells or warm_cache.misses != 0:
        print(
            f"FAIL: expected {n_cells} cache hits and 0 misses", file=sys.stderr
        )
        return 1
    if warm != cold:
        print("FAIL: cached sweep differs from uncached", file=sys.stderr)
        return 1
    print("OK: cached rerun served entirely from disk with identical results")
    return 0


def _engine_gate() -> int:
    workload = specjbb()
    datacenter = make_datacenter(workload, get_configuration("DG-SmallPUPS"))
    technique = get_technique("sleep-l")
    plan = technique.compile_plan(
        TechniqueContext(
            cluster=datacenter.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(datacenter),
        )
    )

    # -- primary gate: outage cells through one wide kernel batch --------
    # A cell is one (duration, state-of-charge, dg-start) outage — the
    # engine's unit of work.  This is the pure engine comparison: no
    # schedule sampling in the timed region on either side.
    rng = np.random.default_rng(7)
    durations = np.exp(
        rng.uniform(np.log(15.0), np.log(6 * 3600.0), BENCH_CELLS)
    )
    socs = rng.uniform(0.05, 1.0, BENCH_CELLS)
    dgs = rng.random(BENCH_CELLS) < 0.7

    kernel = PlanKernel(datacenter, plan)
    kernel.run([60.0])  # warm the compiled plan out of the timed region

    started = time.perf_counter()
    batch = kernel.run(
        list(durations),
        initial_state_of_charge=list(socs),
        dg_starts=list(dgs),
    )
    batch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    scalar_cells = [
        simulate_outage(
            datacenter,
            plan,
            float(durations[i]),
            initial_state_of_charge=float(socs[i]),
            dg_starts=bool(dgs[i]),
        )
        for i in range(BENCH_CELLS)
    ]
    scalar_seconds = time.perf_counter() - started

    cells_identical = all(
        scalar_cells[i].downtime_during_outage_seconds
        == float(batch.downtime_during_outage_seconds[i])
        and scalar_cells[i].downtime_after_restore_seconds
        == float(batch.downtime_after_restore_seconds[i])
        and scalar_cells[i].crashed == bool(batch.crashed[i])
        and scalar_cells[i].mean_performance
        == float(batch.mean_performance[i])
        and scalar_cells[i].ups_state_of_charge_end
        == float(batch.ups_state_of_charge_end[i])
        for i in range(BENCH_CELLS)
    )
    scalar_rate = BENCH_CELLS / scalar_seconds
    batch_rate = BENCH_CELLS / batch_seconds
    speedup = batch_rate / scalar_rate

    # -- secondary measurement: full Monte-Carlo years -------------------
    # The yearly path spends most of its time sampling outage schedules
    # (sequential in both engines), so its end-to-end speedup is far
    # below the kernel's; recorded for context, no floor applied.
    base_seed = 0
    year_spec = {
        "datacenter": datacenter,
        "plan": plan,
        "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
    }
    seeds = np.random.SeedSequence(base_seed).spawn(BENCH_YEARS)
    started = time.perf_counter()
    scalar_years = [_simulate_year(year_spec, seed) for seed in seeds]
    scalar_year_seconds = time.perf_counter() - started

    block_spec = {
        **year_spec,
        "base_seed": base_seed,
        "start": 0,
        "count": BENCH_YEARS,
        "total_years": BENCH_YEARS,
    }
    started = time.perf_counter()
    batch_years = simulate_year_block(block_spec)
    batch_year_seconds = time.perf_counter() - started
    years_identical = scalar_years == batch_years

    emit(
        str(OUTPUT),
        "sim",
        {
            "speedup": metric(round(speedup, 3), "x", "higher"),
            "yearly_speedup": metric(
                round(scalar_year_seconds / batch_year_seconds, 3),
                "x",
                "higher",
            ),
        },
        workload="specjbb",
        configuration="DG-SmallPUPS",
        technique="sleep-l",
        scalar={
            "cells": BENCH_CELLS,
            "seconds": round(scalar_seconds, 6),
            "cells_per_second": round(scalar_rate, 3),
        },
        batch={
            "cells": BENCH_CELLS,
            "seconds": round(batch_seconds, 6),
            "cells_per_second": round(batch_rate, 3),
        },
        speedup_floor=SPEEDUP_FLOOR,
        identical=cells_identical,
        yearly={
            "years": BENCH_YEARS,
            "scalar_seconds": round(scalar_year_seconds, 6),
            "batch_seconds": round(batch_year_seconds, 6),
            "identical": years_identical,
        },
    )

    print(
        f"bench-smoke[engine]: {BENCH_CELLS} outage cells | "
        f"scalar {scalar_seconds:.3f}s ({scalar_rate:.0f} cells/s) | "
        f"batch {batch_seconds:.3f}s ({batch_rate:.0f} cells/s) | "
        f"speedup {speedup:.1f}x -> {OUTPUT.name}"
    )
    print(
        f"bench-smoke[yearly]: {BENCH_YEARS} years | "
        f"scalar {scalar_year_seconds:.3f}s | batch {batch_year_seconds:.3f}s "
        f"| speedup {scalar_year_seconds / batch_year_seconds:.1f}x "
        "(sampling-bound, no floor)"
    )

    if not cells_identical:
        print("FAIL: batch outage cells differ from scalar", file=sys.stderr)
        return 1
    if not years_identical:
        print("FAIL: batch per-year aggregates differ from scalar",
              file=sys.stderr)
        return 1
    if speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: batch speedup {speedup:.1f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    print(f"OK: batch engine bit-identical at {speedup:.1f}x scalar throughput")
    return 0


def main() -> int:
    status = _cache_gate()
    if status:
        return status
    return _engine_gate()


if __name__ == "__main__":
    sys.exit(main())
