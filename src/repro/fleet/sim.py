"""Monte-Carlo fleet years: every site simulated, every shock shared.

:func:`simulate_fleet_years` runs the whole fleet through a batch of
years: each site draws its own Figure 1 outage schedule and DG start
rolls *exactly* as the certified single-site path does, the regional
shock layer merges correlated events in, the :mod:`repro.vsim` kernel
runs each (possibly extended) schedule, and the routing layer
integrates where displaced load went.  :func:`simulate_fleet_year` is
its one-year runner job.

**Seed discipline** (the property the independence regression pins):
the per-year seed spawns one child per site, in fleet order, and the
shock stream's child strictly *after* them — SeedSequence children are
positional, so a site's randomness depends only on (year seed, site
position), never on the shock layer, the routing flag, or any other
site.  Each site child then spawns ``(schedule_seed, dg_seed)`` exactly
as :func:`repro.analysis.availability._simulate_year` does, and with
shocks disabled the merged schedule *is* the base schedule object — so
a fleet of uncorrelated sites reproduces the single-site yearly
aggregates bit-identically, and the fleet layer can never perturb the
certified single-site path.
"""

from __future__ import annotations

from contextlib import contextmanager
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

from repro.core.performability import make_plant
from repro.errors import RunnerError
from repro.fleet.correlation import RegionalShockSampler, merge_outage_events
from repro.fleet.routing import SiteWindows, route_fleet_years
from repro.fleet.spec import FleetSpec
from repro.obs import current_metrics, current_tracer
from repro.outages.events import OutageEvent
from repro.outages.generator import OutageGenerator
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, make_jobs
from repro.runner.progress import ProgressListener
from repro.units import SECONDS_PER_YEAR, ordered_sum, to_minutes
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import draw_dg_starts, run_years


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

    Every site-year is sampled first (the seed tree in the module
    docstring), then each distinct site plant is built once and all of
    its site-years run through one :class:`~repro.vsim.kernel.PlanKernel`
    (:func:`repro.vsim.yearly.run_years`), and finally every year's
    intervals are routed in one array pass
    (:func:`~repro.fleet.routing.route_fleet_years`).

    Each year is ``{"sites": {name: aggregates}, "fleet": totals}``.  The
    per-site blocks use the exact field names of the single-site year
    job, so the independence regression can compare dicts with ``==``.

    A traced run records a ``cell`` span holding ``sample``, ``kernel``
    and ``route`` spans; with tracing off the stages cost one ``is
    None`` check in all.
    """
    tracer = current_tracer()
    metrics = current_metrics()
    if tracer is None:
        years = _fleet_years(fleet, routing, seeds, _no_span, metrics)
    else:
        with tracer.span(
            "cell", "fleet", fleet=fleet.name, routing=routing, years=len(seeds)
        ):
            years = _fleet_years(fleet, routing, seeds, tracer.span, metrics)
            for year in years:
                tracer.event(
                    "fleet-year",
                    fleet=fleet.name,
                    routing=routing,
                    shock_site_hits=int(year["fleet"]["shock_site_hits"]),
                    max_simultaneous=year["fleet"]["max_simultaneous_outages"],
                )
    if metrics is not None:
        for year in years:
            metrics.counter("fleet.years").inc()
            hits = int(year["fleet"]["shock_site_hits"])
            if hits:
                metrics.counter("fleet.shock_site_hits").inc(hits)
            if year["fleet"]["max_simultaneous_outages"] >= 2:
                metrics.counter("fleet.multi_site_years").inc()
    return years


@contextmanager
def _no_span(*args: Any, **attrs: Any) -> Iterator[None]:
    yield


def _fleet_years(
    fleet: FleetSpec,
    routing: bool,
    seeds: Sequence[np.random.SeedSequence],
    span: Callable[..., Any],
    metrics,
) -> List[Dict[str, Any]]:
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

    # Per year: one child per site, then the shock stream's child, then
    # (schedule, dg) per site — the seed tree of the module docstring.
    events: List[List[Sequence[OutageEvent]]] = []
    dg: List[List[List[bool]]] = []
    shock_hits: List[int] = []
    sampler = RegionalShockSampler(fleet)
    with span("sample", "fleet", years=len(seeds), sites=len(sites)):
        for year_seed in seeds:
            site_seeds = year_seed.spawn(len(sites))
            (shock_seed,) = year_seed.spawn(1)
            shocks = sampler.sample_year(np.random.default_rng(shock_seed))
            shock_hits.append(sum(len(hits) for hits in shocks.values()))
            year_events = []
            year_dg = []
            for site, key, site_seed in zip(sites, site_keys, site_seeds):
                schedule_seed, dg_seed = site_seed.spawn(2)
                schedule = merge_outage_events(
                    OutageGenerator(seed=schedule_seed).sample_year(),
                    shocks[site.name],
                )
                datacenter, _ = plants[key]
                year_events.append(schedule.events)
                year_dg.append(
                    draw_dg_starts(dg_seed, datacenter, len(schedule.events))
                )
            events.append(year_events)
            dg.append(year_dg)

    # Every site-year sharing a plant runs through one kernel, in
    # (year, site) order.
    years = len(seeds)
    aggregates: Dict[Tuple[int, int], Dict[str, float]] = {}
    performance: Dict[Tuple[int, int], List[float]] = {}
    for key, (datacenter, plan) in plants.items():
        lanes = [
            (y, i)
            for y in range(years)
            for i, site_key in enumerate(site_keys)
            if site_key == key
        ]
        with span("kernel", "fleet", lanes=len(lanes)):
            lane_years, lane_performance = run_years(
                PlanKernel(datacenter, plan),
                [events[y][i] for y, i in lanes],
                [dg[y][i] for y, i in lanes],
                DEFAULT_RECHARGE_SECONDS,
                None,
                metrics,
            )
        aggregates.update(zip(lanes, lane_years))
        performance.update(zip(lanes, lane_performance))

    with span("route", "fleet", routing=routing):
        windows = []
        for i in range(len(sites)):
            year_of, start, end, level = [], [], [], []
            for y in range(years):
                year_events = events[y][i]
                year_of += [y] * len(year_events)
                start += [event.start_seconds for event in year_events]
                end += [event.end_seconds for event in year_events]
                level += performance[(y, i)]
            # min(1.0, max(0.0, x)) with Python's tie rules.
            level = np.array(level, dtype=float)
            level = np.where(level > 0.0, level, 0.0)
            windows.append(
                SiteWindows(
                    year=np.array(year_of, dtype=np.int64),
                    start=np.array(start, dtype=float),
                    end=np.array(end, dtype=float),
                    performance=np.where(level < 1.0, level, 1.0),
                )
            )
        totals = route_fleet_years(
            sites,
            windows,
            years,
            SECONDS_PER_YEAR,
            fleet.redirect_seconds,
            routing=routing,
        )

    out = []
    for y in range(years):
        totals[y]["shock_site_hits"] = float(shock_hits[y])
        out.append(
            {
                "sites": {
                    site.name: aggregates[(y, i)] for i, site in enumerate(sites)
                },
                "fleet": totals[y],
            }
        )
    return out


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
