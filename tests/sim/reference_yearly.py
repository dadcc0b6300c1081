"""The events-based year threading, kept as the oracle of the array one.

This is :func:`repro.vsim.yearly.run_years` as it stood before it took
flat ``starts``/``durations``/``dg`` arrays: per-lane Python
bookkeeping over lists of outage events, one float at a time.  The
array version must produce ``==`` per-year dicts and per-outage
performance, which ``tests/props/test_property_run_years.py`` checks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import _record_batch


def reference_run_years(
    kernel: PlanKernel,
    events_per_year: Sequence[Sequence[Any]],
    dg_per_year: Sequence[Sequence[bool]],
    recharge_seconds: float,
    tracer=None,
    metrics=None,
) -> Tuple[List[Dict[str, float]], List[List[float]]]:
    """Thread independent years of outages through one kernel.

    Each year is a sequence of ordered outage events (anything with
    ``start_seconds``/``duration_seconds``/``end_seconds``) plus one DG
    start roll per event.  Outages run in event-position-major batches
    (all years' first outages, then all second outages, ...), with the
    cross-outage state of charge threaded exactly as
    :meth:`repro.sim.yearly.YearlyRunner._run_schedule` does.

    Returns the per-year aggregate dicts (the fields of
    :func:`repro.analysis.availability._simulate_year`, accumulated in
    event order with Python float adds) and each year's per-event mean
    performance.
    """
    if recharge_seconds <= 0:
        raise SimulationError("recharge_seconds must be positive")
    count = len(events_per_year)
    provisioned = kernel.dc.generator.is_provisioned
    soc = [1.0] * count
    previous_end = [float("-inf")] * count
    downtime = [0.0] * count
    crashes = [0] * count
    perf_sum = [0.0] * count
    perf_weight = [0.0] * count
    dg_failures = [0] * count
    performance: List[List[float]] = [[] for _ in range(count)]

    max_events = max((len(e) for e in events_per_year), default=0)
    for j in range(max_events):
        years = [y for y in range(count) if len(events_per_year[y]) > j]
        durations = []
        socs = []
        dgs = []
        for y in years:
            event = events_per_year[y][j]
            gap = event.start_seconds - previous_end[y]
            if gap < 0:
                raise SimulationError(
                    "schedule events must be ordered and non-overlapping"
                )
            soc[y] = min(1.0, max(0.0, soc[y] + gap / recharge_seconds))
            dg_starts = dg_per_year[y][j]
            if provisioned and not dg_starts:
                dg_failures[y] += 1
            durations.append(event.duration_seconds)
            socs.append(soc[y])
            dgs.append(dg_starts)
        if tracer is None:
            batch = kernel.run(
                durations, initial_state_of_charge=socs, dg_starts=dgs
            )
        else:
            with tracer.span("kernel", "vsim", position=j, lanes=len(years)):
                batch = kernel.run(
                    durations, initial_state_of_charge=socs, dg_starts=dgs
                )
        if metrics is not None:
            _record_batch(metrics, kernel, batch)
        during = batch.downtime_during_outage_seconds.tolist()
        after = batch.downtime_after_restore_seconds.tolist()
        crashed = batch.crashed.tolist()
        mean_performance = batch.mean_performance.tolist()
        soc_end = batch.ups_state_of_charge_end.tolist()
        for pos, y in enumerate(years):
            event = events_per_year[y][j]
            downtime[y] += during[pos] + after[pos]
            if crashed[pos]:
                crashes[y] += 1
            perf_sum[y] += mean_performance[pos] * event.duration_seconds
            perf_weight[y] += event.duration_seconds
            performance[y].append(mean_performance[pos])
            soc[y] = soc_end[pos]
            previous_end[y] = event.end_seconds

    if metrics is not None and sum(dg_failures):
        metrics.counter("sim.dg_start_failures").inc(sum(dg_failures))
    years_out = [
        {
            "downtime_seconds": downtime[y],
            "crashes": float(crashes[y]),
            "outages": float(len(events_per_year[y])),
            "perf_sum": perf_sum[y],
            "perf_weight": perf_weight[y],
            "dg_start_failures": float(dg_failures[y]),
        }
        for y in range(count)
    ]
    return years_out, performance

