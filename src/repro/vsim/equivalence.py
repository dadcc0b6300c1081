"""Scalar↔batch equivalence certification.

The batch kernel's contract is *bit-identical* fault-free outcomes, so
the comparison here is exact: every float field with ``==`` (NaN-free by
construction), every trace segment tuple-for-tuple.  There is no
tolerance envelope on the plan path — any nonzero difference is a bug in
one of the engines (see docs/BATCH.md for why exactness is attainable).

:func:`certify_grid` sweeps every registered technique over the Table-3
configurations (× workloads × durations × initial charges × DG-start
draws), runs both engines on each cell, guards the batch outcome with
:class:`repro.checks.InvariantGuard`, and reports every mismatch.
``make batch-smoke`` fails on a non-empty report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.checks.guard import InvariantGuard
from repro.core.configurations import PAPER_CONFIGURATIONS, BackupConfiguration
from repro.core.performability import make_datacenter, plan_context
from repro.errors import TechniqueError
from repro.sim.metrics import OutageOutcome
from repro.sim.outage_sim import simulate_outage
from repro.techniques.registry import get_technique, technique_names
from repro.vsim.kernel import PlanKernel
from repro.workloads.registry import get_workload

#: Outage durations certified by default: the Table-3 sweep's span (10 min
#: to 4 h) plus a short outage that ends inside the DG transfer gap.
DEFAULT_DURATIONS = (90.0, 600.0, 3600.0, 4 * 3600.0)

#: Initial charges certified by default: full, a partially recharged
#: string (back-to-back outage), and nearly flat.
DEFAULT_SOCS = (1.0, 0.35, 0.01)

DEFAULT_WORKLOADS = ("specjbb", "websearch")


@dataclass
class Mismatch:
    """One cell where the engines disagreed."""

    workload: str
    configuration: str
    technique: str
    outage_seconds: float
    initial_soc: float
    dg_starts: bool
    diffs: List[str]

    def __str__(self) -> str:
        head = (
            f"{self.workload}/{self.configuration}/{self.technique}"
            f" T={self.outage_seconds:g}s soc={self.initial_soc:g}"
            f" dg_starts={self.dg_starts}"
        )
        return head + "".join(f"\n    {d}" for d in self.diffs)


@dataclass
class CertificationReport:
    cells_compared: int = 0
    plans_skipped: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.cells_compared > 0

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"equivalence {status}: {self.cells_compared} cells compared, "
            f"{self.plans_skipped} infeasible plans skipped, "
            f"{len(self.mismatches)} mismatches"
        )


def _field_diffs(scalar: OutageOutcome, batch: OutageOutcome) -> List[str]:
    """Exact field-wise comparison; returns human-readable differences."""
    diffs: List[str] = []

    def cmp(name: str, a, b) -> None:
        equal = a == b
        if isinstance(a, float) and isinstance(b, float):
            equal = (a == b) or (math.isnan(a) and math.isnan(b))
        if not equal:
            diffs.append(f"{name}: scalar={a!r} batch={b!r}")

    for name in (
        "technique_name",
        "outage_seconds",
        "crashed",
        "crash_time_seconds",
        "state_preserved",
        "downtime_during_outage_seconds",
        "downtime_after_restore_seconds",
        "mean_performance",
        "ups_charge_consumed",
        "ups_state_of_charge_end",
        "ups_energy_joules",
        "dg_energy_joules",
        "peak_backup_power_watts",
        "restored_by_dg",
    ):
        a, b = getattr(scalar, name), getattr(batch, name)
        if name == "crash_time_seconds" and (a is None) != (b is None):
            diffs.append(f"{name}: scalar={a!r} batch={b!r}")
            continue
        if a is None and b is None:
            continue
        cmp(name, a, b)

    sa = scalar.trace.segments
    sb = batch.trace.segments
    if len(sa) != len(sb):
        diffs.append(f"trace: {len(sa)} scalar segments vs {len(sb)} batch")
    else:
        for i, (x, y) in enumerate(zip(sa, sb)):
            tx = (
                x.start_seconds, x.end_seconds, x.power_watts,
                x.performance, x.source, x.label,
            )
            ty = (
                y.start_seconds, y.end_seconds, y.power_watts,
                y.performance, y.source, y.label,
            )
            if tx != ty:
                diffs.append(f"trace[{i}]: scalar={tx!r} batch={ty!r}")
    return diffs


def compare_cell(
    datacenter,
    plan,
    outage_seconds: float,
    initial_soc: float = 1.0,
    dg_starts: bool = True,
    guard: Optional[InvariantGuard] = None,
    kernel: Optional[PlanKernel] = None,
) -> List[str]:
    """Run one cell through both engines; returns the diff list (empty ==
    equivalent).  The batch outcome is also pushed through ``guard``."""
    scalar = simulate_outage(
        datacenter,
        plan,
        outage_seconds,
        initial_state_of_charge=initial_soc,
        dg_starts=dg_starts,
    )
    if kernel is None:
        kernel = PlanKernel(datacenter, plan)
    batch = kernel.run(
        [outage_seconds],
        initial_state_of_charge=[initial_soc],
        dg_starts=[dg_starts],
        collect_traces=True,
    ).outcome(0)
    if guard is not None:
        guard.check_outcome(batch)
    return _field_diffs(scalar, batch)


def certify_grid(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    configurations: Sequence[BackupConfiguration] = PAPER_CONFIGURATIONS,
    techniques: Optional[Sequence[str]] = None,
    durations: Sequence[float] = DEFAULT_DURATIONS,
    socs: Sequence[float] = DEFAULT_SOCS,
    dg_start_cases: Sequence[bool] = (True, False),
    guard: Optional[InvariantGuard] = None,
    max_mismatches: int = 25,
) -> CertificationReport:
    """Certify batch==scalar over the registered-technique × Table-3 grid.

    One :class:`PlanKernel` is compiled per (workload, configuration,
    technique) and certifies the full duration × soc × dg cross product
    as one batch call, compared cell-by-cell against the scalar engine.
    """
    if techniques is None:
        techniques = technique_names()
    if guard is None:
        guard = InvariantGuard()
    report = CertificationReport()
    cells: List[Tuple[float, float, bool]] = [
        (T, s, d) for T in durations for s in socs for d in dg_start_cases
    ]
    for workload_name in workloads:
        workload = get_workload(workload_name)
        for configuration in configurations:
            datacenter = make_datacenter(workload, configuration)
            context = plan_context(datacenter)
            for technique_name in techniques:
                try:
                    plan = get_technique(technique_name).compile_plan(context)
                except TechniqueError:
                    report.plans_skipped += 1
                    continue
                kernel = PlanKernel(datacenter, plan)
                batch = kernel.run(
                    [c[0] for c in cells],
                    initial_state_of_charge=[c[1] for c in cells],
                    dg_starts=[c[2] for c in cells],
                    collect_traces=True,
                )
                for i, (T, soc, dg) in enumerate(cells):
                    scalar = simulate_outage(
                        datacenter,
                        plan,
                        T,
                        initial_state_of_charge=soc,
                        dg_starts=dg,
                    )
                    batch_outcome = batch.outcome(i)
                    guard.check_outcome(batch_outcome)
                    diffs = _field_diffs(scalar, batch_outcome)
                    report.cells_compared += 1
                    if diffs:
                        report.mismatches.append(
                            Mismatch(
                                workload=workload_name,
                                configuration=configuration.name,
                                technique=technique_name,
                                outage_seconds=T,
                                initial_soc=soc,
                                dg_starts=dg,
                                diffs=diffs,
                            )
                        )
                        if len(report.mismatches) >= max_mismatches:
                            return report
    return report
