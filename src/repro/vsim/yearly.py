"""Batched Monte-Carlo years: blocks of simulated years on one kernel.

One availability study simulates hundreds of independent years of the
same (datacenter, plan) pair — the worst possible shape for the scalar
engine (every outage replays the plan in Python) and the best possible
shape for :class:`~repro.vsim.kernel.PlanKernel` (every cell shares one
compiled plan).

:func:`simulate_year_block` is the batch twin of
:func:`repro.analysis.availability._simulate_year`, evaluating a
contiguous block of years per job:

* **Same RNG discipline.**  Year ``i``'s seed is
  ``SeedSequence(base_seed, spawn_key=(i,))`` — the exact child
  :func:`repro.runner.jobs.make_jobs` hands the scalar per-year job,
  built directly rather than by spawning all ``total_years`` children —
  and each year spawns ``(schedule, dg)`` streams positionally, so the
  sampled schedules and DG start rolls are bit-identical to the scalar
  path at any block size.
* **Same state threading.**  Cross-outage state of charge and recharge
  clamping follow :meth:`repro.sim.yearly.YearlyRunner._run_schedule`
  verbatim; only the outage simulations themselves are vectorized, in
  event-position-major order (all years' first outages as one batch,
  then all second outages, ...), which preserves each year's sequential
  threading while batching across years.  That loop, :func:`run_years`,
  also runs fleet site-years (:mod:`repro.fleet.sim`).
* **Same aggregates.**  The returned per-year dicts accumulate
  downtime/performance in event order with plain Python float adds, so
  each dict equals the scalar job's bit-for-bit — certified by
  ``make batch-smoke`` and ``tests/sim/test_vsim_yearly.py``.

Fault injection is out of kernel scope: fault-free availability studies
always run here, fault studies on the scalar path.

Observability follows the scalar path's contract: the ambient tracer and
metrics are captured once per block, and with both off every hook is a
single ``is None`` check.  A traced block records a ``year_block`` span
with one ``kernel`` child per event-position batch; metrics get the
scalar path's ``sim.outages``/``sim.crashes``/``sim.dg_start_failures``
counters, plus each outage's end-of-outage charge as a ``battery.soc``
observation when the datacenter has a UPS.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs import current_metrics, current_tracer
from repro.outages.generator import OutageGenerator
from repro.vsim.kernel import PlanKernel

#: Years per batch job.  A study of up to 1000 years is one kernel job
#: (one cache entry); longer studies split into 1000-year blocks.
DEFAULT_BLOCK_YEARS = 1000


def simulate_year_block(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence] = None
) -> List[Dict[str, float]]:
    """Runner job: simulate years ``start .. start+count-1`` as one batch.

    The spec carries ``datacenter``, ``plan``, ``recharge_seconds``,
    ``base_seed`` (the analyzer's root seed), ``start``, ``count`` and
    ``total_years``; the job ignores the runner-supplied ``seed`` and
    re-derives the per-year streams from ``base_seed`` so results are
    independent of how years are grouped into blocks.

    Returns one aggregate dict per year, each bit-identical to what
    ``_simulate_year`` returns for the same year index.
    """
    tracer = current_tracer()
    metrics = current_metrics()
    if tracer is None:
        return _simulate_block(spec, None, metrics)
    with tracer.span(
        "year_block", "vsim", start=int(spec["start"]), count=int(spec["count"])
    ) as span:
        years = _simulate_block(spec, tracer, metrics)
        span.set("outages", int(sum(y["outages"] for y in years)))
        span.set("crashes", int(sum(y["crashes"] for y in years)))
        return years


def _simulate_block(
    spec: Mapping[str, Any], tracer, metrics
) -> List[Dict[str, float]]:
    datacenter = spec["datacenter"]
    recharge_seconds = float(spec["recharge_seconds"])
    start = int(spec["start"])
    count = int(spec["count"])
    total_years = int(spec["total_years"])
    if not (0 <= start and count > 0 and start + count <= total_years):
        raise SimulationError("year block out of range")
    base_seed = spec["base_seed"]

    # Draw every year's schedule and DG rolls up front (cheap, sequential
    # per year exactly as the scalar runner draws them).
    events_per_year: List[Sequence[Any]] = []
    dg_per_year: List[List[bool]] = []
    for i in range(start, start + count):
        year_seed = np.random.SeedSequence(base_seed, spawn_key=(i,))
        schedule_seed, dg_seed = year_seed.spawn(2)
        events = OutageGenerator(seed=schedule_seed).sample_year().events
        events_per_year.append(events)
        dg_per_year.append(draw_dg_starts(dg_seed, datacenter, len(events)))

    years, _ = run_years(
        PlanKernel(datacenter, spec["plan"]),
        events_per_year,
        dg_per_year,
        recharge_seconds,
        tracer,
        metrics,
    )
    return years


def draw_dg_starts(
    dg_seed: np.random.SeedSequence, datacenter, count: int
) -> List[bool]:
    """A year's DG start rolls, one per outage, from the year's DG stream.

    The draws :meth:`repro.sim.yearly.YearlyRunner._dg_starts` makes, in
    the same order: one uniform per outage when the engine is
    provisioned and unreliable, none otherwise (the engine starts).
    """
    generator = datacenter.generator
    if not (generator.is_provisioned and generator.start_reliability < 1.0):
        return [True] * count
    rng = np.random.default_rng(dg_seed)
    return (rng.random(count) < generator.start_reliability).tolist()


def run_years(
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


def _record_batch(metrics, kernel: PlanKernel, batch) -> None:
    """The scalar path's per-outage metrics, for one kernel batch."""
    metrics.counter("sim.outages").inc(len(batch))
    crashes = int(batch.crashed.sum())
    if crashes:
        metrics.counter("sim.crashes").inc(crashes)
    if kernel.has_ups:
        soc = metrics.histogram("battery.soc")
        for value in batch.ups_state_of_charge_end:
            soc.observe(float(value))


def year_block_specs(
    datacenter,
    plan,
    recharge_seconds: float,
    base_seed: int,
    years: int,
    block_years: int = DEFAULT_BLOCK_YEARS,
) -> List[Dict[str, Any]]:
    """Split ``years`` into contiguous block specs for the runner."""
    if years <= 0:
        raise SimulationError("years must be positive")
    if block_years <= 0:
        raise SimulationError("block_years must be positive")
    specs = []
    for start in range(0, years, block_years):
        specs.append(
            {
                "datacenter": datacenter,
                "plan": plan,
                "recharge_seconds": recharge_seconds,
                "base_seed": base_seed,
                "start": start,
                "count": min(block_years, years - start),
                "total_years": years,
            }
        )
    return specs
