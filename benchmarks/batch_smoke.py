"""Batch-smoke: certify the vectorized engine against the scalar one.

Three gates, in order (``make batch-smoke``):

1. **Grid certification.**  Every registered technique over the full
   Table-3 configuration grid (× workloads × durations × initial
   charges × DG-start draws) through :func:`repro.vsim.certify_grid` —
   every cell must be *bit-identical* between engines, with the batch
   outcomes additionally guarded by :class:`repro.checks.InvariantGuard`.
2. **Yearly certification.**  Full Monte-Carlo years through
   ``simulate_year_block`` vs the scalar ``_simulate_year``, per-year
   aggregate dicts compared with ``==`` — exercises cross-outage
   state-of-charge threading, recharge clamping and the runner's RNG
   discipline at a block size that splits mid-year.  Then the production
   path: ``AvailabilityAnalyzer.analyze`` at 1000 years (one year block)
   must equal the report reduced from 1000 scalar ``_simulate_year``
   jobs, on the same slices.
3. **Differential fuzz.**  A seeded, bounded run of the scalar↔batch
   fuzzer (:func:`repro.vsim.fuzz.run_diff_fuzz`): random
   configurations, plans and adversarial boundary-snapped durations.

Run from the repo root::

    PYTHONPATH=src python benchmarks/batch_smoke.py

Exit code 0 = certified.  Used by ``make batch-smoke`` and CI.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analysis.availability import AvailabilityAnalyzer, _simulate_year
from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.jobs import spawn_seeds
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.vsim.equivalence import certify_grid
from repro.vsim.fuzz import run_diff_fuzz
from repro.vsim.yearly import simulate_year_block
from repro.workloads.registry import get_workload

#: Yearly-certification slices: cross-outage threading under a DG that
#: can fail to start, a UPS-only configuration, and a crash-heavy one.
YEARLY_SLICES = (
    ("specjbb", "DG-SmallPUPS", "sleep-l"),
    ("websearch", "SmallPUPS", "throttle+sleep-l"),
    ("specjbb", "NoUPS", "migration"),
)

YEARLY_YEARS = 30
#: Years of the analyzer-vs-scalar-oracle check: one production block.
ANALYZER_YEARS = 1000
FUZZ_CASES = 60
FUZZ_SEED = 20260807


def _grid_gate() -> int:
    started = time.perf_counter()
    report = certify_grid()
    elapsed = time.perf_counter() - started
    print(f"batch-smoke[grid]: {report.summary()} ({elapsed:.1f}s)")
    for mismatch in report.mismatches[:10]:
        print(f"  {mismatch}", file=sys.stderr)
    return 0 if report.ok else 1


def _yearly_gate() -> int:
    started = time.perf_counter()
    for workload_name, config_name, technique_name in YEARLY_SLICES:
        workload = get_workload(workload_name)
        datacenter = make_datacenter(workload, get_configuration(config_name))
        plan = get_technique(technique_name).compile_plan(
            TechniqueContext(
                cluster=datacenter.cluster,
                workload=workload,
                power_budget_watts=plan_power_budget_watts(datacenter),
            )
        )
        year_spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
        }
        seeds = np.random.SeedSequence(0).spawn(YEARLY_YEARS)
        scalar = [_simulate_year(year_spec, seed) for seed in seeds]
        # Two blocks that split the study mid-way: grouping must not
        # matter.
        split = YEARLY_YEARS // 2
        batch = []
        for start, count in ((0, split), (split, YEARLY_YEARS - split)):
            batch.extend(
                simulate_year_block(
                    {
                        **year_spec,
                        "base_seed": 0,
                        "start": start,
                        "count": count,
                        "total_years": YEARLY_YEARS,
                    }
                )
            )
        if scalar != batch:
            bad = [i for i in range(YEARLY_YEARS) if scalar[i] != batch[i]]
            print(
                f"FAIL: {workload_name}/{config_name}/{technique_name}: "
                f"years {bad[:5]} differ between engines",
                file=sys.stderr,
            )
            return 1
        if not _analyzer_matches_scalar_oracle(
            workload, get_configuration(config_name), get_technique(technique_name)
        ):
            print(
                f"FAIL: {workload_name}/{config_name}/{technique_name}: "
                f"analyze() at {ANALYZER_YEARS} years differs from the "
                "scalar-oracle report",
                file=sys.stderr,
            )
            return 1
    elapsed = time.perf_counter() - started
    print(
        f"batch-smoke[yearly]: {len(YEARLY_SLICES)} slices x "
        f"{YEARLY_YEARS} years bit-identical, analyze() x {ANALYZER_YEARS} "
        f"years equal to the scalar oracle ({elapsed:.1f}s)"
    )
    return 0


def _analyzer_matches_scalar_oracle(workload, configuration, technique) -> bool:
    """``analyze`` (year blocks) == the report of scalar per-year jobs."""
    analyzer = AvailabilityAnalyzer(workload, seed=0)
    jobs, reduce = analyzer.prepare(configuration, technique, years=ANALYZER_YEARS)
    spec = jobs[0].spec
    year_spec = {k: spec[k] for k in ("datacenter", "plan", "recharge_seconds")}
    scalar = [
        _simulate_year(year_spec, seed) for seed in spawn_seeds(0, ANALYZER_YEARS)
    ]
    report = analyzer.analyze(configuration, technique, years=ANALYZER_YEARS)
    return len(jobs) == 1 and report == reduce([scalar])


def _fuzz_gate() -> int:
    started = time.perf_counter()
    report = run_diff_fuzz(cases=FUZZ_CASES, base_seed=FUZZ_SEED)
    elapsed = time.perf_counter() - started
    print(f"batch-smoke[fuzz]: {report.summary()} ({elapsed:.1f}s)")
    for mismatch in report.mismatches[:10]:
        print(f"  {mismatch[:500]}", file=sys.stderr)
    return 0 if report.ok else 1


def main() -> int:
    for gate in (_grid_gate, _yearly_gate, _fuzz_gate):
        status = gate()
        if status:
            return status
    print("OK: batch engine certified bit-identical to scalar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
