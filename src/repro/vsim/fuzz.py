"""Scalar↔batch differential fuzzing.

The equivalence grid (:mod:`repro.vsim.equivalence`) certifies the
curated Table-3 surface; this module hunts the corners it cannot reach:
random configurations off the Table-3 grid (fractional capacities,
zero-runtime strings), adversarial outage durations snapped onto the
boundaries where engine disagreements live (the DG transfer instant,
phase-commit edges, ±epsilon perturbations of both), random initial
charges, failed DG starts, and whole random *years* compared through the
two yearly paths.

Every case is an independent :mod:`repro.runner` job seeded by case
index, so any divergence is reproducible in isolation and can be pinned
as a regression test (see ``tests/sim/test_vsim_regressions.py`` for the
divergences this fuzzer has already caught and killed — notably the
scalar dispatcher's infinite loop when a DG arrival coincides with a
phase boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.checks.fuzz import draw_case
from repro.runner import BaseExecutor, SerialExecutor, make_jobs
from repro.sim.outage_sim import simulate_outage
from repro.units import minutes
from repro.vsim.equivalence import _field_diffs
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import simulate_year_block

Record = Dict[str, Any]

#: Single-outage cells sampled per fuzz case.
CELLS_PER_CASE = 12

#: Random years compared through the two yearly paths per fuzz case.
YEARS_PER_CASE = 2


@dataclass(frozen=True)
class DiffReport:
    """Outcome of one differential fuzz run."""

    records: Sequence[Record]

    @property
    def mismatches(self) -> List[str]:
        found: List[str] = []
        for record in self.records:
            found.extend(record.get("mismatches", ()))
        return found

    @property
    def cases_run(self) -> int:
        return len(self.records)

    @property
    def cells_compared(self) -> int:
        return sum(int(r.get("cells", 0)) for r in self.records)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.cells_compared > 0

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"differential fuzz {status}: {self.cases_run} cases, "
            f"{self.cells_compared} cells compared, "
            f"{len(self.mismatches)} mismatch"
            f"{'es' if len(self.mismatches) != 1 else ''}"
        )


def _boundary_durations(
    rng: np.random.Generator, datacenter, plan
) -> List[float]:
    """Adversarial outage durations for this (datacenter, plan) pair.

    Random log-uniform draws cover the bulk; the rest snap onto the exact
    boundaries the engines must agree about — the DG transfer instant and
    cumulative phase-commit edges — plus ±1e-7 s perturbations to probe
    the ``_EPS`` tolerance band from both sides.
    """
    anchors: List[float] = []
    if datacenter.generator.is_provisioned:
        anchors.append(datacenter.generator.transfer_complete_seconds)
    cumulative = 0.0
    for phase in plan.phases:
        if phase.duration_seconds is None or not np.isfinite(
            phase.duration_seconds
        ):
            break
        cumulative += phase.duration_seconds
        if cumulative > 0:
            anchors.append(cumulative)
    durations: List[float] = [
        float(np.exp(rng.uniform(np.log(15.0), np.log(6 * 3600.0))))
        for _ in range(CELLS_PER_CASE // 2)
    ]
    while len(durations) < CELLS_PER_CASE and anchors:
        anchor = float(rng.choice(anchors))
        jitter = float(rng.choice([0.0, 1e-7, -1e-7, 0.05, -0.05]))
        if anchor + jitter > 0:
            durations.append(anchor + jitter)
        else:
            durations.append(anchor)
    while len(durations) < CELLS_PER_CASE:
        durations.append(float(rng.uniform(30.0, 3600.0)))
    return durations


def differential_case(spec: Mapping[str, Any], seed=None) -> Record:
    """Runner job: one random (config, plan) pair, fuzzed on both engines.

    The random stream is derived from the spec alone (``base_seed``,
    ``case``), never from the runner-supplied ``seed``, so a failing case
    replays identically via ``differential_case({"case": i})``.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((int(spec.get("base_seed", 0)), int(spec["case"])))
    )
    mismatches: List[str] = []

    case = draw_case(rng)
    datacenter, plan = case.datacenter, case.plan
    record: Record = {
        "case": int(spec["case"]),
        **case.record(),
        "cells": 0,
        "mismatches": mismatches,
    }
    if plan is None:
        return record

    kernel = PlanKernel(datacenter, plan)

    # -- single outages: adversarial durations x random charge/DG draws ---
    durations = _boundary_durations(rng, datacenter, plan)
    socs = [float(rng.choice([1.0, 0.0, rng.uniform(0.0, 1.0)])) for _ in durations]
    dgs = [bool(rng.random() < 0.7) for _ in durations]
    batch = kernel.run(
        durations,
        initial_state_of_charge=socs,
        dg_starts=dgs,
        collect_traces=True,
    )
    for i, (duration, soc, dg) in enumerate(zip(durations, socs, dgs)):
        scalar = simulate_outage(
            datacenter,
            plan,
            duration,
            initial_state_of_charge=soc,
            dg_starts=dg,
        )
        diffs = _field_diffs(scalar, batch.outcome(i))
        record["cells"] += 1
        if diffs:
            mismatches.append(
                f"case {spec['case']} cell {i} "
                f"({record['workload']}/{record['technique']} "
                f"T={duration!r} soc={soc!r} dg={dg}): " + "; ".join(diffs)
            )

    # -- whole years through both yearly paths ----------------------------
    from repro.analysis.availability import _simulate_year

    base_seed = int(spec["case"]) * 1_000_003 + 17
    recharge = float(rng.choice([minutes(30), 8 * 3600.0, 24 * 3600.0]))
    year_spec = {
        "datacenter": datacenter,
        "plan": plan,
        "recharge_seconds": recharge,
    }
    year_seeds = np.random.SeedSequence(base_seed).spawn(YEARS_PER_CASE)
    scalar_years = [
        _simulate_year(year_spec, year_seed) for year_seed in year_seeds
    ]
    batch_years = simulate_year_block(
        {
            **year_spec,
            "base_seed": base_seed,
            "start": 0,
            "count": YEARS_PER_CASE,
            "total_years": YEARS_PER_CASE,
        }
    )
    for y, (a, b) in enumerate(zip(scalar_years, batch_years)):
        record["cells"] += 1
        if a != b:
            mismatches.append(
                f"case {spec['case']} year {y} "
                f"({record['workload']}/{record['technique']} "
                f"recharge={recharge:g}): scalar={a!r} batch={b!r}"
            )
    return record


def run_diff_fuzz(
    cases: int = 100,
    base_seed: int = 0,
    executor: Optional[BaseExecutor] = None,
) -> DiffReport:
    """Run ``cases`` independent differential fuzz cases.

    Each case's stream is a function of ``(base_seed, case)`` only, so
    runs are reproducible at any worker count and any failing case
    replays alone via ``differential_case({"base_seed": s, "case": i})``.
    """
    if cases <= 0:
        raise ValueError("cases must be positive")
    if executor is None:
        executor = SerialExecutor()
    jobs = make_jobs(
        differential_case,
        [{"case": i, "base_seed": base_seed} for i in range(cases)],
        labels=[f"case={i}" for i in range(cases)],
    )
    return DiffReport(records=list(executor.run(jobs).values))
