"""Batched Monte-Carlo years: blocks of simulated years on one kernel.

One availability study simulates hundreds of independent years of the
same (datacenter, plan) pair — the worst possible shape for the scalar
engine (every outage replays the plan in Python) and the best possible
shape for :class:`~repro.vsim.kernel.PlanKernel` (every cell shares one
compiled plan).

:func:`simulate_year_block` is the batch twin of
:func:`repro.analysis.availability._simulate_year`, evaluating a
contiguous block of years per job:

* **Same RNG discipline.**  Year ``i`` draws its schedule from
  ``child_seed(SeedSequence(base_seed), i, 0)`` and its DG rolls from
  ``(i, 1)`` — the streams the scalar per-year job draws from under the
  runner's year seed ``(i,)``, named by spawn-key arithmetic
  (:func:`repro.runner.jobs.child_seed`) rather than by spawning — so
  the sampled outages and DG start rolls are bit-identical to the
  scalar path at any block size.  No SeedSequence, ``PCG64`` or
  per-year generator is built: one
  :func:`~repro.runner.jobs.child_streams` pass seeds the block's
  streams (the DG streams only when rolls are drawn), and
  :func:`~repro.outages.generator.sample_year_lanes` and
  :func:`draw_dg_starts` draw every year at once from them
  (:class:`~repro.runner.jobs.PCG64Lanes`), redoing only the uncommon
  years with :func:`~repro.outages.generator.sample_year_arrays`, the
  definition.  The stream and lane oracles
  (``tests/runner/test_jobs.py``, ``tests/golden/test_stream_oracle.py``,
  ``tests/golden/test_lane_oracle.py``) hold every draw ``==`` to
  ``PCG64(child_seed(...))``'s.
* **Same state threading.**  Cross-outage state of charge and recharge
  clamping follow :meth:`repro.sim.yearly.YearlyRunner._run_schedule`
  float for float; only the outage simulations themselves are
  vectorized, in recharge-dependency waves.  An outage after a gap of
  at least ``recharge_seconds`` (or a year's first) starts from a full
  battery whatever came before, so all of them, across every year, are
  one kernel call; each deeper link of a short-gap chain is one more
  call, fed by the end charges of the call before.  That loop,
  :func:`run_years`, takes flat per-outage arrays, states why the full
  start is exact, and also runs fleet site-years (:mod:`repro.fleet.sim`).
* **Same aggregates.**  The returned per-year dicts accumulate
  downtime/performance in event order with the scalar path's float
  adds, so each dict equals the scalar job's bit-for-bit — certified by
  ``make batch-smoke`` and ``tests/sim/test_vsim_yearly.py``.

Fault injection is out of kernel scope: fault-free availability studies
always run here, fault studies on the scalar path.

Observability follows the scalar path's contract: the ambient tracer and
metrics are captured once per block, and with both off every hook is a
single ``is None`` check.  A traced block records a ``year_block`` span
holding a ``sample`` span (drawing every year's outages; its
``scalar_years`` counts the years redone on the scalar sampler) and
then one ``kernel`` span per dependency wave (``depth``, ``lanes``);
metrics get the scalar path's
``sim.outages``/``sim.crashes``/``sim.dg_start_failures`` counters, plus
each outage's end-of-outage charge as a ``battery.soc`` observation when
the datacenter has a UPS, recorded in event-position-major order (every
year's first outage, then every second outage, ...).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs import current_metrics, current_tracer
from repro.outages.generator import sample_year_lanes
from repro.runner.jobs import PCG64Lanes, child_streams, word_doubles
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
    root = np.random.SeedSequence(spec["base_seed"])
    years = range(start, start + count)
    if tracer is None:
        arrays, _ = _sample_block(root, years, datacenter)
    else:
        with tracer.span("sample", "vsim", years=count) as span:
            arrays, scalar_years = _sample_block(root, years, datacenter)
            span.set("outages", len(arrays[0]))
            span.set("scalar_years", scalar_years)
    out, _ = run_years(
        PlanKernel(datacenter, spec["plan"]),
        *arrays,
        recharge_seconds,
        tracer,
        metrics,
    )
    return out


def _sample_block(root: np.random.SeedSequence, years: range, datacenter):
    """Every year's outages and DG rolls, drawn up front as flat arrays.

    Year ``i`` draws its schedule from ``child_seed(root, i, 0)`` and its
    DG rolls from ``child_seed(root, i, 1)`` — the streams the scalar
    job draws from under the runner's year seed ``(i,)`` — so the draws
    are bit-identical to the scalar path at any block size.  The
    streams are seeded in one :func:`~repro.runner.jobs.child_streams`
    pass, the DG streams only when rolls are drawn, and every year is
    drawn lane-parallel (:func:`~repro.outages.generator.sample_year_lanes`,
    :func:`draw_dg_starts`).  Returns ``(starts, durations, dg,
    counts)`` and the number of years redrawn on the scalar path.
    """
    reliability = dg_reliability(datacenter)
    kinds = (0,) if reliability is None else (0, 1)
    streams = child_streams(root, [(i, k) for i in years for k in kinds])
    streams = streams.reshape(len(years), len(kinds), 4)
    starts, durations, counts, scalar_years = sample_year_lanes(
        PCG64Lanes(streams[:, 0])
    )
    if reliability is None:
        dg = np.ones(len(starts), dtype=bool)
    else:
        dg = draw_dg_starts(streams[:, 1], reliability, counts)
    return (starts, durations, dg, counts), scalar_years


def dg_reliability(datacenter) -> Optional[float]:
    """The engine's start reliability when its start rolls are drawn.

    :meth:`repro.sim.yearly.YearlyRunner._dg_starts` rolls one uniform
    per outage when the engine is provisioned and unreliable; otherwise
    (None here) it draws nothing and the engine starts.
    """
    generator = datacenter.generator
    if generator.is_provisioned and generator.start_reliability < 1.0:
        return generator.start_reliability
    return None


def draw_dg_starts(
    streams: np.ndarray, reliability: float, counts: np.ndarray
) -> np.ndarray:
    """Every year's DG start rolls, flat: ``counts[y]`` for year ``y``.

    Year ``y`` rolls ``rng.random(counts[y]) < reliability`` from its
    stream ``streams[y]`` (a :func:`~repro.runner.jobs.child_streams`
    row), for all years at once (:class:`~repro.runner.jobs.PCG64Lanes`).
    Call it only with a :func:`dg_reliability`; without one nothing is
    drawn and every engine starts.
    """
    return word_doubles(PCG64Lanes(streams).words(counts)) < reliability


def run_years(
    kernel: PlanKernel,
    starts: Sequence[float],
    durations: Sequence[float],
    dg: Sequence[bool],
    counts: Sequence[int],
    recharge_seconds: float,
    tracer=None,
    metrics=None,
) -> Tuple[List[Dict[str, float]], np.ndarray]:
    """Thread independent years of outages through one kernel.

    The years arrive flat: ``starts``, ``durations`` and ``dg`` (one DG
    start roll per outage) hold every year's ordered outages back to
    back, and ``counts[y]`` is year ``y``'s number of outages.  Each
    outage starts at the level
    :meth:`repro.sim.yearly.YearlyRunner._run_schedule` gives it,
    ``min(1, max(0, soc + gap / recharge_seconds))``, where ``soc`` is
    the previous outage's end-of-outage charge (1.0 before a year's
    first outage) and ``gap`` the time since it ended; the clamps keep
    Python's ``min``/``max`` tie rules.

    Outages run in recharge-dependency waves, one kernel call each.  An
    outage is at depth 0 when it is its year's first or its gap is at
    least ``recharge_seconds``; otherwise it is one deeper than the
    outage before it.  Depth 0 starts from ``soc = 1.0`` and depth
    ``k`` from its predecessor's ``ups_state_of_charge_end`` in wave
    ``k - 1``.  Depth 0 is exact: for ``gap >= recharge_seconds`` the
    rounded ``gap / recharge_seconds`` is at least 1 (rounding is
    monotone and 1 is a double), so any ``soc`` in ``[0, 1]`` gives
    ``soc + gap / recharge_seconds >= 1`` and the level clamps to 1.0,
    as it does from 1.0.  The kernel keeps the charge in ``[0, 1]``:
    :meth:`~repro.vsim.kernel.PlanKernel.run` rejects a start outside
    it, ``_BatchRun._ups_carry`` only lowers the charge, through
    ``max(0, soc - sustained / full)``, and a plant with no UPS reports
    zeros (``_BatchRun._outcomes``).  That floor does not stop a NaN
    (``np.maximum`` passes one through, say from ``0 / 0`` at a zero
    ``full``), so every wave's end charges are checked, and one outside
    ``[0, 1]`` raises :class:`SimulationError` rather than being
    silently refilled.

    The per-outage results are then folded into the years in
    event-position-major order (every year's first outage, then every
    second outage, ...) and recorded to ``metrics`` in that same order,
    so the per-year float sums and the ``battery.soc`` histogram's sum
    are bit-identical to threading the outages position by position
    (the oracle ``tests/sim/reference_yearly.py``).
    A traced call records one ``kernel`` span per wave (``depth``,
    ``lanes``); no outages, no kernel call.

    Returns the per-year aggregate dicts (the fields of
    :func:`repro.analysis.availability._simulate_year`, accumulated in
    event order) and the flat per-outage mean performance, aligned with
    ``starts``.
    """
    if recharge_seconds <= 0:
        raise SimulationError("recharge_seconds must be positive")
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    durations = np.asarray(durations, dtype=float)
    dg = np.asarray(dg, dtype=bool)
    total = int(counts.sum())
    if not (len(starts) == len(durations) == len(dg) == total):
        raise SimulationError("outage arrays must match the per-year counts")
    offsets = np.cumsum(counts) - counts
    first = offsets[counts > 0]
    previous_end = np.empty(total)
    previous_end[1:] = (starts + durations)[:-1]
    previous_end[first] = float("-inf")
    gap = starts - previous_end
    if (gap < 0).any():
        raise SimulationError(
            "schedule events must be ordered and non-overlapping"
        )
    rise = gap / recharge_seconds
    chained = ~(gap >= recharge_seconds)
    chained[first] = False
    index = np.arange(total)
    depth = index - np.maximum.accumulate(np.where(chained, 0, index))

    downtime_of = np.empty(total)
    crashed_of = np.empty(total, dtype=bool)
    performance = np.empty(total)
    soc_end = np.empty(total)
    waves = np.argsort(depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth)).tolist()
    for k, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
        events = waves[lo:hi]
        # min(1.0, max(0.0, x)) with Python's tie rules.
        level = (1.0 if k == 0 else soc_end[events - 1]) + rise[events]
        level = np.where(level > 0.0, level, 0.0)
        level = np.where(level < 1.0, level, 1.0)
        lengths = durations[events]
        if tracer is None:
            batch = kernel.run(
                lengths, initial_state_of_charge=level, dg_starts=dg[events]
            )
        else:
            with tracer.span("kernel", "vsim", depth=k, lanes=len(events)):
                batch = kernel.run(
                    lengths, initial_state_of_charge=level, dg_starts=dg[events]
                )
        end = batch.ups_state_of_charge_end
        if not ((end >= 0.0) & (end <= 1.0)).all():
            raise SimulationError(
                "kernel left a state of charge outside [0, 1]"
            )
        downtime_of[events] = (
            batch.downtime_during_outage_seconds
            + batch.downtime_after_restore_seconds
        )
        crashed_of[events] = batch.crashed
        performance[events] = batch.mean_performance
        soc_end[events] = end

    count = len(counts)
    provisioned = kernel.dc.generator.is_provisioned
    downtime = np.zeros(count)
    crashes = np.zeros(count, dtype=np.int64)
    perf_sum = np.zeros(count)
    perf_weight = np.zeros(count)
    dg_failures = np.zeros(count, dtype=np.int64)
    for j in range(int(counts.max(initial=0))):
        lanes = np.flatnonzero(counts > j)
        events = offsets[lanes] + j
        if provisioned:
            dg_failures[lanes] += ~dg[events]
        if metrics is not None:
            _record_outages(
                metrics, kernel, crashed_of[events], soc_end[events]
            )
        lengths = durations[events]
        downtime[lanes] += downtime_of[events]
        crashes[lanes] += crashed_of[events]
        perf_sum[lanes] += performance[events] * lengths
        perf_weight[lanes] += lengths

    failures = int(dg_failures.sum())
    if metrics is not None and failures:
        metrics.counter("sim.dg_start_failures").inc(failures)
    years_out = [
        {
            "downtime_seconds": d,
            "crashes": float(c),
            "outages": float(n),
            "perf_sum": p,
            "perf_weight": w,
            "dg_start_failures": float(f),
        }
        for d, c, n, p, w, f in zip(
            downtime.tolist(),
            crashes.tolist(),
            counts.tolist(),
            perf_sum.tolist(),
            perf_weight.tolist(),
            dg_failures.tolist(),
        )
    ]
    return years_out, performance


def _record_batch(metrics, kernel: PlanKernel, batch) -> None:
    """The scalar path's per-outage metrics, for one kernel batch."""
    _record_outages(
        metrics, kernel, batch.crashed, batch.ups_state_of_charge_end
    )


def _record_outages(metrics, kernel: PlanKernel, crashed, soc_end) -> None:
    """The scalar path's per-outage metrics, for outages in this order."""
    metrics.counter("sim.outages").inc(len(crashed))
    crashes = int(crashed.sum())
    if crashes:
        metrics.counter("sim.crashes").inc(crashes)
    if kernel.has_ups:
        soc = metrics.histogram("battery.soc")
        for value in soc_end:
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
