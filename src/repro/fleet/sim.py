"""Monte-Carlo fleet years: every site simulated, every shock shared.

:func:`simulate_fleet_years` runs the whole fleet through a batch of
years: each site draws its own Figure 1 outage schedule and DG start
rolls *exactly* as the certified single-site path does, the regional
shock layer merges correlated events in, the :mod:`repro.vsim` kernel
runs each (possibly extended) schedule, and the routing layer
integrates where displaced load went.  :func:`simulate_fleet_routings`
routes one such sample once for every routing flag (the fleet
frontier's routed and unrouted cells share their years and their
elementary intervals); :func:`simulate_fleet_year` is the one-year
runner job.

**Seed discipline** (the property the independence regression pins):
every stream is a :func:`~repro.runner.jobs.child_seed` path under the
year seed.  Site ``i`` (fleet order) draws its schedule from ``(i, 0)``
and its DG rolls from ``(i, 1)`` — the streams
:func:`repro.analysis.availability._simulate_year` draws from under a
site-year seed ``(i,)`` — and the shock stream is ``(n_sites,)``,
strictly *after* the sites.  SeedSequence children are positional, so a
site's randomness depends only on (year seed, site position), never on
the shock layer, the routing flag, or any other site; the seeds are not
mutated, so the same seed objects always replay the same years.
``child_seed`` names each stream, but none is built: one
:func:`~repro.runner.jobs.year_streams` pass computes every year's site
states (a site's DG states only when its engine rolls; the shock states
only when shocks can strike), held ``==`` to ``PCG64(child_seed(...))``
by the stream oracles.  Every site-year is drawn at once from those
states (:func:`~repro.outages.generator.sample_year_lanes`,
:func:`~repro.vsim.yearly.draw_dg_starts`); a shock year re-states one
reused generator (:func:`~repro.runner.jobs.restate`).  A stream is
drawn from only when needed, and only a struck site-year is merged
with its shocks — so a fleet of uncorrelated sites reproduces the
single-site yearly aggregates bit-identically, and the fleet layer can
never perturb the certified single-site path.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from numpy.random import PCG64, Generator

from repro.core.performability import make_plant
from repro.errors import RunnerError
from repro.fleet.correlation import RegionalShockSampler, merge_outage_events
from repro.fleet.routing import SiteWindows, route_fleet_routings
from repro.fleet.spec import FleetSpec
from repro.obs import current_metrics, current_tracer
from repro.outages.events import OutageEvent, OutageSchedule
from repro.outages.generator import sample_year_lanes
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import (
    Job,
    PCG64Lanes,
    make_jobs,
    restate,
    year_streams,
)
from repro.runner.progress import ProgressListener
from repro.units import SECONDS_PER_YEAR, ordered_sum, to_minutes
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import dg_reliability, draw_dg_starts, run_years


def simulate_fleet_year(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> Dict[str, Any]:
    """Runner job: one fleet year, reduced to per-site and fleet aggregates.

    The spec carries ``fleet`` (a :class:`~repro.fleet.spec.FleetSpec`)
    and ``routing`` (whether displaced load fails over).  The one-year
    call of :func:`simulate_fleet_years`.
    """
    if seed is None:
        raise RunnerError("simulate_fleet_year requires a seeded job")
    return simulate_fleet_years(spec["fleet"], bool(spec["routing"]), [seed])[0]


def simulate_fleet_years(
    fleet: FleetSpec,
    routing: bool,
    seeds: Sequence[np.random.SeedSequence],
) -> List[Dict[str, Any]]:
    """Simulate one fleet year per seed, all years at once.

    The one-routing call of :func:`simulate_fleet_routings`.

    Each year is ``{"sites": {name: aggregates}, "fleet": totals}``.  The
    per-site blocks use the exact field names of the single-site year
    job, so the independence regression can compare dicts with ``==``.
    """
    return simulate_fleet_routings(fleet, (routing,), seeds)[0]


def simulate_fleet_routings(
    fleet: FleetSpec,
    routings: Sequence[bool],
    seeds: Sequence[np.random.SeedSequence],
) -> List[List[Dict[str, Any]]]:
    """Simulate one fleet year per seed once; route it once for all flags.

    Every site-year is sampled first (the seed tree in the module
    docstring), then each distinct site plant is built once and all of
    its site-years run through one :class:`~repro.vsim.kernel.PlanKernel`
    (:func:`repro.vsim.yearly.run_years`).  The outage windows are then
    routed in one array pass for every entry of ``routings``
    (:func:`~repro.fleet.routing.route_fleet_routings`: intervals and
    site states once, the failover placement per routed flag), so every
    routing sees identical outage years — common random numbers.
    Returns one list of years (as :func:`simulate_fleet_years`) per
    routing.

    A traced run records a ``cell`` span holding one ``sample`` span,
    the ``kernel`` spans and one ``route`` span (attribute
    ``routings``); with tracing off the stages cost one ``is None``
    check in all.
    """
    tracer = current_tracer()
    metrics = current_metrics()
    if tracer is None:
        sample = _sample_fleet_years(fleet, seeds, _no_span, metrics)
        results = _route_fleet_sample(fleet, sample, routings, _no_span)
    else:
        with tracer.span(
            "cell", "fleet", fleet=fleet.name, routings=list(routings),
            years=len(seeds),
        ):
            sample = _sample_fleet_years(fleet, seeds, tracer.span, metrics)
            results = _route_fleet_sample(fleet, sample, routings, tracer.span)
            for routing, years in zip(routings, results):
                for year in years:
                    tracer.event(
                        "fleet-year",
                        fleet=fleet.name,
                        routing=routing,
                        shock_site_hits=int(year["fleet"]["shock_site_hits"]),
                        max_simultaneous=year["fleet"]["max_simultaneous_outages"],
                    )
    if metrics is not None:
        for years in results:
            for year in years:
                metrics.counter("fleet.years").inc()
                hits = int(year["fleet"]["shock_site_hits"])
                if hits:
                    metrics.counter("fleet.shock_site_hits").inc(hits)
                if year["fleet"]["max_simultaneous_outages"] >= 2:
                    metrics.counter("fleet.multi_site_years").inc()
    return results


@contextmanager
def _no_span(*args: Any, **attrs: Any) -> Iterator[None]:
    yield


@dataclass(frozen=True)
class _FleetSample:
    """Sampled, kernel-run fleet years, ready to route any number of times.

    ``windows`` holds each site's outage windows (fleet order);
    ``aggregates`` is indexed by site-year lane ``y * n_sites + i``.
    """

    years: int
    windows: List[SiteWindows]
    aggregates: List[Dict[str, float]]
    shock_hits: List[int]


def _sample_fleet_years(
    fleet: FleetSpec,
    seeds: Sequence[np.random.SeedSequence],
    span: Callable[..., Any],
    metrics,
) -> _FleetSample:
    """Sample every site-year and run each site plant's kernel once."""
    from repro.core.configurations import get_configuration
    from repro.techniques.registry import get_technique
    from repro.workloads.registry import get_workload

    sites = fleet.sites
    # A site's plant is fixed by these four names.
    site_keys = [
        (site.workload, site.configuration, site.technique, site.servers)
        for site in sites
    ]
    plants = {}
    for site, key in zip(sites, site_keys):
        if key not in plants:
            plants[key] = make_plant(
                get_workload(site.workload),
                get_configuration(site.configuration),
                get_technique(site.technique),
                site.servers,
            )

    # Flat outage arrays over every site-year lane y * n_sites + i,
    # year-major then site order — the seed tree of the module docstring.
    years = len(seeds)
    n_sites = len(sites)
    reliabilities = [dg_reliability(plants[key][0]) for key in site_keys]
    rolled = [i for i, r in enumerate(reliabilities) if r is not None]
    sampler = RegionalShockSampler(fleet)
    with span("sample", "fleet", years=years, sites=n_sites) as sample_span:
        # Year y's row: every site's schedule stream (i, 0), then the
        # DG stream (i, 1) of each site that rolls.
        streams = year_streams(
            seeds,
            [(i, 0) for i in range(n_sites)] + [(i, 1) for i in rolled],
        )
        starts_arr, durations_arr, counts_arr, scalar_years = sample_year_lanes(
            PCG64Lanes(streams[:, :n_sites])
        )
        shock_hits = [0] * years
        if sampler.active:
            struck: Dict[int, Sequence[OutageEvent]] = {}
            rng = Generator(PCG64(0))
            for y, row in enumerate(year_streams(seeds, [(n_sites,)]).tolist()):
                shocks = sampler.sample_year(restate(rng, row[0]))
                shock_hits[y] = sum(len(hits) for hits in shocks.values())
                for i, site in enumerate(sites):
                    if shocks[site.name]:
                        struck[y * n_sites + i] = shocks[site.name]
            if struck:
                starts_arr, durations_arr, counts_arr = _merge_shocks(
                    starts_arr, durations_arr, counts_arr, struck
                )
        # Each outage's site-year lane and site; a rolling site's DG
        # rolls cover its lanes' final (shock-merged) outages.
        lane_of = np.repeat(np.arange(years * n_sites), counts_arr)
        site_of = lane_of % n_sites
        dg_arr = np.ones(len(starts_arr), dtype=bool)
        for column, i in enumerate(rolled, start=n_sites):
            dg_arr[site_of == i] = draw_dg_starts(
                streams[:, column], reliabilities[i], counts_arr[i::n_sites]
            )
        if sample_span is not None:
            sample_span.set("scalar_years", scalar_years)
    site_plant = np.array([list(plants).index(key) for key in site_keys])

    # Every site-year sharing a plant runs through one kernel, in
    # (year, site) order.
    aggregates: List[Optional[Dict[str, float]]] = [None] * (years * n_sites)
    performance = np.empty(len(starts_arr))
    for p, (datacenter, plan) in enumerate(plants.values()):
        lanes = np.flatnonzero(np.tile(site_plant == p, years))
        events = np.flatnonzero(site_plant[site_of] == p)
        with span("kernel", "fleet", lanes=len(lanes)):
            lane_years, lane_performance = run_years(
                PlanKernel(datacenter, plan),
                starts_arr[events],
                durations_arr[events],
                dg_arr[events],
                counts_arr[lanes],
                DEFAULT_RECHARGE_SECONDS,
                None,
                metrics,
            )
        for lane, aggregate in zip(lanes.tolist(), lane_years):
            aggregates[lane] = aggregate
        performance[events] = lane_performance

    # min(1.0, max(0.0, x)) with Python's tie rules.
    level = np.where(performance > 0.0, performance, 0.0)
    level = np.where(level < 1.0, level, 1.0)
    ends = starts_arr + durations_arr
    year_of = lane_of // n_sites
    windows = []
    for i in range(n_sites):
        mine = site_of == i
        windows.append(
            SiteWindows(
                year=year_of[mine],
                start=starts_arr[mine],
                end=ends[mine],
                performance=level[mine],
            )
        )
    return _FleetSample(years, windows, aggregates, shock_hits)


def _route_fleet_sample(
    fleet: FleetSpec,
    sample: _FleetSample,
    routings: Sequence[bool],
    span: Callable[..., Any],
) -> List[List[Dict[str, Any]]]:
    """Route one sample's windows once: its fleet years per flag."""
    sites = fleet.sites
    n_sites = len(sites)
    with span("route", "fleet", routings=list(routings)):
        per_routing = route_fleet_routings(
            sites,
            sample.windows,
            sample.years,
            SECONDS_PER_YEAR,
            fleet.redirect_seconds,
            routings,
        )

    results = []
    for totals in per_routing:
        out = []
        for y in range(sample.years):
            totals[y]["shock_site_hits"] = float(sample.shock_hits[y])
            out.append(
                {
                    "sites": {
                        site.name: sample.aggregates[y * n_sites + i]
                        for i, site in enumerate(sites)
                    },
                    "fleet": totals[y],
                }
            )
        results.append(out)
    return results


def _merge_shocks(
    starts: np.ndarray,
    durations: np.ndarray,
    counts: np.ndarray,
    struck: Mapping[int, Sequence[OutageEvent]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat site-year outages with each struck lane's shock events
    merged in (:func:`~repro.fleet.correlation.merge_outage_events`)."""
    offsets = (np.cumsum(counts) - counts).tolist()
    counts = counts.copy()
    starts_out: List[Any] = []
    durations_out: List[Any] = []
    done = 0
    for lane in sorted(struck):
        begin, end = offsets[lane], offsets[lane] + int(counts[lane])
        merged = merge_outage_events(
            OutageSchedule(
                events=tuple(
                    OutageEvent(start_seconds=s, duration_seconds=d)
                    for s, d in zip(
                        starts[begin:end].tolist(), durations[begin:end].tolist()
                    )
                ),
                horizon_seconds=SECONDS_PER_YEAR,
            ),
            struck[lane],
        ).events
        starts_out += [starts[done:begin], [e.start_seconds for e in merged]]
        durations_out += [
            durations[done:begin], [e.duration_seconds for e in merged]
        ]
        counts[lane] = len(merged)
        done = end
    starts_out.append(starts[done:])
    durations_out.append(durations[done:])
    return (
        np.concatenate(starts_out),
        np.concatenate(durations_out),
        counts,
    )


def reduce_fleet_years(
    values: Sequence[Mapping[str, Any]],
    fleet: FleetSpec,
    routing: bool,
) -> Dict[str, Any]:
    """Fold fleet-year job values into the fleet report payload.

    Plain JSON-able dict, deterministic in input order — serve and CLI
    fold identical lists identically.
    """
    if not values:
        raise RunnerError("cannot reduce zero fleet years")
    years = len(values)
    demand = ordered_sum(v["fleet"]["demand"] for v in values)
    served = ordered_sum(v["fleet"]["served"] for v in values)
    remote = ordered_sum(v["fleet"]["remote_served"] for v in values)
    total_load = fleet.total_load
    unserved_eq = np.array(
        [
            (v["fleet"]["demand"] - v["fleet"]["served"]) / total_load
            if total_load > 0
            else 0.0
            for v in values
        ]
    )
    fully_served = np.array(
        [v["fleet"]["fully_served_seconds"] for v in values]
    )
    simultaneous = np.array(
        [v["fleet"]["simultaneous_outage_seconds"] for v in values]
    )
    multi_years = sum(
        1 for v in values if v["fleet"]["max_simultaneous_outages"] >= 2
    )

    per_site: Dict[str, Dict[str, float]] = {}
    for site in fleet.sites:
        downtime = np.array(
            [v["sites"][site.name]["downtime_seconds"] for v in values]
        )
        outages = sum(v["sites"][site.name]["outages"] for v in values)
        crashes = sum(v["sites"][site.name]["crashes"] for v in values)
        per_site[site.name] = {
            "mean_downtime_minutes_per_year": to_minutes(float(downtime.mean())),
            "availability": 1.0 - float(downtime.mean()) / SECONDS_PER_YEAR,
            "outages": float(outages),
            "crash_fraction": crashes / outages if outages else 0.0,
            "dg_start_failures": float(
                sum(v["sites"][site.name]["dg_start_failures"] for v in values)
            ),
        }

    return {
        "fleet": fleet.name,
        "routing": routing,
        "years_simulated": years,
        "sites": [site.name for site in fleet.sites],
        "performability": served / demand if demand > 0 else 1.0,
        "availability": float(fully_served.mean()) / SECONDS_PER_YEAR,
        # unserved_eq is already seconds: (load x seconds) / load.
        "mean_unserved_seconds_per_year": float(unserved_eq.mean()),
        "p95_unserved_seconds_per_year": float(np.percentile(unserved_eq, 95)),
        "remote_served_fraction": remote / demand if demand > 0 else 0.0,
        "multi_site_outage_probability": multi_years / years,
        "mean_simultaneous_outage_seconds": float(simultaneous.mean()),
        "mean_shock_site_hits": float(
            np.mean([v["fleet"]["shock_site_hits"] for v in values])
        ),
        "per_site": per_site,
    }


class FleetAnalyzer:
    """Monte-Carlo fleet study over one :class:`FleetSpec`.

    Per-year jobs follow the runner contract — fingerprinted specs,
    positional seeds — so results are bit-identical at any worker count
    and cacheable across runs, exactly like the single-site
    :class:`~repro.analysis.availability.AvailabilityAnalyzer`.
    """

    def __init__(self, fleet: FleetSpec, seed: int = 0, routing: bool = True):
        self.fleet = fleet
        self.seed = seed
        self.routing = routing

    def prepare(
        self, years: int = 100
    ) -> Tuple[List[Job], Callable[[Sequence[Any]], Dict[str, Any]]]:
        """The study as ``(jobs, reduce)`` — batcher-composable."""
        if years <= 0:
            raise RunnerError("years must be positive")
        year_spec = {"fleet": self.fleet, "routing": self.routing}
        jobs = make_jobs(
            simulate_fleet_year,
            [year_spec] * years,
            base_seed=self.seed,
            labels=[f"fleet-year={i}" for i in range(years)],
        )

        def reduce(values: Sequence[Any]) -> Dict[str, Any]:
            return reduce_fleet_years(values, self.fleet, self.routing)

        return jobs, reduce

    def analyze(
        self,
        years: int = 100,
        jobs: int = 1,
        executor: Optional[BaseExecutor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressListener] = None,
    ) -> Dict[str, Any]:
        """Simulate ``years`` fleet years; identical for every ``jobs``."""
        job_list, reduce = self.prepare(years=years)
        if executor is None:
            executor = make_executor(jobs=jobs, cache=cache, progress=progress)
        report = executor.run(job_list)
        return reduce(report.values)
