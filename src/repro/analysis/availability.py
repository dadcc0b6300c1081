"""Monte-Carlo yearly availability of a (configuration, technique) pairing.

The paper evaluates single outages of fixed duration; an operator deciding
whether to drop the DGs wants the *yearly* picture: draw outage schedules
from the Figure 1 statistics, run every outage through the simulator, and
aggregate down time, availability and the dollar cost of unavailability
(via the Figure 10 TCO frame).

Every year draws from its own stream, ``SeedSequence(seed)``'s child at
the year's position, so the study produces **bit-identical statistics at
any worker count**: ``analyze(..., jobs=8)`` equals ``analyze(...,
jobs=1)`` exactly, and an on-disk cache can answer repeated studies
across runs.  Fault-free studies run as :mod:`repro.vsim` year blocks
(one runner job per block of up to 1000 years); fault studies run one
scalar :func:`_simulate_year` job per year, and the block engine is
certified bit-identical to those scalar years (docs/BATCH.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.random import PCG64, Generator

from repro.core.configurations import BackupConfiguration
from repro.core.performability import DEFAULT_NUM_SERVERS, make_plant
from repro.core.tco import TCOModel
from repro.faults import FaultInjector, FaultPlan
from repro.outages.generator import OutageGenerator
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, child_seed, make_jobs
from repro.runner.progress import ProgressListener, RunStats
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.sim.yearly import YearlyRunner
from repro.techniques.base import OutageTechnique
from repro.units import SECONDS_PER_YEAR, ordered_sum, to_minutes
from repro.vsim.yearly import dg_reliability, simulate_year_block, year_block_specs
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class AvailabilityReport:
    """Aggregated Monte-Carlo results over simulated years.

    Attributes:
        configuration_name: Backup sizing evaluated.
        technique_name: Outage-handling technique evaluated.
        years_simulated: Sample size.
        outages_simulated: Total outages run.
        mean_downtime_minutes_per_year: Average yearly down time.
        p95_downtime_minutes_per_year: 95th percentile yearly down time.
        availability: Mean fraction of the year the service was up.
        crash_fraction: Fraction of outages that lost volatile state.
        mean_outage_performance: Mean normalised throughput during outages.
        expected_loss_dollars_per_kw_year: TCO loss at the mean down time.
    """

    configuration_name: str
    technique_name: str
    years_simulated: int
    outages_simulated: int
    mean_downtime_minutes_per_year: float
    p95_downtime_minutes_per_year: float
    availability: float
    crash_fraction: float
    mean_outage_performance: float
    expected_loss_dollars_per_kw_year: float

    @property
    def nines(self) -> float:
        """Availability expressed as a count of nines."""
        unavailability = 1.0 - self.availability
        if unavailability <= 0:
            return float("inf")
        return -float(np.log10(unavailability))


def _simulate_year(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> Dict[str, float]:
    """Runner job: one simulated year, reduced to its aggregates.

    The year's random consumers — the outage schedule, the DG start
    rolls and (when faults are injected) the fault draws — get
    independent child streams of the per-year seed
    (``child_seed(seed, 0)``, ``(seed, 1)`` and ``(seed, 2)``), so none
    perturbs the others and every year is independent of every other
    regardless of execution order.  The fault stream comes *after* the
    original two (SeedSequence children are positional), so a fault-free
    run draws exactly the same schedule and DG rolls it always did.  A
    stream is built only when drawn from: the DG stream only for a
    provisioned, unreliable engine.

    This is the fault-injection path, and the oracle the fault-free year
    blocks of :func:`repro.vsim.yearly.simulate_year_block` are certified
    against.
    """
    injector = None
    if spec.get("fault_plan") is not None:
        injector = FaultInjector(spec["fault_plan"], seed=child_seed(seed, 2))
    generator = OutageGenerator(seed=child_seed(seed, 0))
    datacenter = spec["datacenter"]
    runner = YearlyRunner(
        datacenter,
        spec["plan"],
        recharge_seconds=spec["recharge_seconds"],
        rng=(
            None
            if dg_reliability(datacenter) is None
            else Generator(PCG64(child_seed(seed, 1)))
        ),
        injector=injector,
    )
    result = runner.run_schedule(generator.sample_year())
    perf_sum = 0.0
    perf_weight = 0.0
    for event, outcome in zip(result.events, result.outcomes):
        perf_sum += outcome.mean_performance * event.duration_seconds
        perf_weight += event.duration_seconds
    return {
        "downtime_seconds": result.total_downtime_seconds,
        "crashes": float(result.crashes),
        "outages": float(len(result.outcomes)),
        "perf_sum": perf_sum,
        "perf_weight": perf_weight,
        "dg_start_failures": float(result.dg_start_failures),
    }


class AvailabilityAnalyzer:
    """Runs the Monte-Carlo study for one workload."""

    def __init__(
        self,
        workload: WorkloadSpec,
        num_servers: int = DEFAULT_NUM_SERVERS,
        server: ServerSpec = PAPER_SERVER,
        tco: Optional[TCOModel] = None,
        seed: int = 0,
        recharge_seconds: float = DEFAULT_RECHARGE_SECONDS,
    ):
        """Args:
        workload: Application under study.
        num_servers: Cluster size (metrics are scale-free).
        server: Server model.
        tco: Dollar-loss model for the expected-loss column.
        seed: Root of the per-year RNG tree (outage schedules, DG rolls).
        recharge_seconds: Full battery recharge time — back-to-back
            outages inside this window start with a partially charged
            string, a second-order effect single-outage studies miss.
        """
        if recharge_seconds <= 0:
            raise ValueError("recharge_seconds must be positive")
        self.workload = workload
        self.num_servers = num_servers
        self.server = server
        self.tco = tco if tco is not None else TCOModel()
        self.seed = seed
        self.recharge_seconds = recharge_seconds
        #: Telemetry of the most recent :meth:`analyze` run.
        self.last_run_stats: Optional[RunStats] = None

    def prepare(
        self,
        configuration: BackupConfiguration,
        technique: OutageTechnique,
        years: int = 200,
        faults: Optional[FaultPlan] = None,
    ) -> Tuple[List[Job], Callable[[Sequence[Any]], AvailabilityReport]]:
        """The study as ``(jobs, reduce)`` — its runner job list plus the
        aggregator that folds the job values into a report.

        Splitting job construction from aggregation lets callers that
        own the executor loop (the batched evaluation service merges
        many studies into one runner submission) run the jobs themselves
        and still aggregate exactly as :meth:`analyze` would.  Seeds are
        derived here, positionally per year, so the same arguments
        always yield the same job fingerprints no matter who runs them.

        Fault-free studies are year-block jobs on the vectorized
        :mod:`repro.vsim` kernel; a non-null fault plan gets one scalar
        job per year.
        """
        if years <= 0:
            raise ValueError("years must be positive")
        datacenter, plan = make_plant(
            self.workload, configuration, technique, self.num_servers, self.server
        )

        blocks = faults is None or faults.is_null
        if blocks:
            # Each block job returns a *list* of per-year dicts, flattened
            # in reduce so the aggregation sees the scalar years' stream.
            block_specs = year_block_specs(
                datacenter, plan, self.recharge_seconds, self.seed, years
            )
            job_list = make_jobs(
                simulate_year_block,
                block_specs,
                labels=[
                    f"years={s['start']}..{s['start'] + s['count'] - 1}"
                    for s in block_specs
                ],
            )
        else:
            year_spec = {
                "datacenter": datacenter,
                "plan": plan,
                "recharge_seconds": self.recharge_seconds,
                "fault_plan": faults,
            }
            job_list = make_jobs(
                _simulate_year,
                [year_spec] * years,
                base_seed=self.seed,
                labels=[f"year={i}" for i in range(years)],
            )

        def reduce(values: Sequence[Any]) -> AvailabilityReport:
            if blocks:
                values = [year for block in values for year in block]
            downtime_arr = np.array([y["downtime_seconds"] for y in values])
            crashes = sum(y["crashes"] for y in values)
            outages = int(sum(y["outages"] for y in values))
            perf_sum = ordered_sum(y["perf_sum"] for y in values)
            perf_weight = ordered_sum(y["perf_weight"] for y in values)
            mean_seconds = float(downtime_arr.mean())
            p95_seconds = float(np.percentile(downtime_arr, 95))
            availability = 1.0 - mean_seconds / SECONDS_PER_YEAR
            return AvailabilityReport(
                configuration_name=configuration.name,
                technique_name=plan.technique_name,
                years_simulated=years,
                outages_simulated=outages,
                mean_downtime_minutes_per_year=to_minutes(mean_seconds),
                p95_downtime_minutes_per_year=to_minutes(p95_seconds),
                availability=availability,
                crash_fraction=crashes / outages if outages else 0.0,
                mean_outage_performance=(
                    perf_sum / perf_weight if perf_weight else 1.0
                ),
                expected_loss_dollars_per_kw_year=self.tco.outage_cost_per_kw_year(
                    to_minutes(mean_seconds)
                ),
            )

        return job_list, reduce

    def analyze(
        self,
        configuration: BackupConfiguration,
        technique: OutageTechnique,
        years: int = 200,
        jobs: int = 1,
        executor: Optional[BaseExecutor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressListener] = None,
        faults: Optional[FaultPlan] = None,
    ) -> AvailabilityReport:
        """Simulate ``years`` of Figure 1 outages under the pairing.

        Args:
            configuration: Backup sizing under study.
            technique: Outage-handling technique under study.
            years: Monte-Carlo sample size.
            jobs: Worker processes (1 = in-process serial); ignored when
                ``executor`` is given.  Results are identical for every
                value.
            executor: Pre-built executor (overrides ``jobs``/``cache``/
                ``progress``).
            cache: Optional on-disk result cache for the study's jobs.
            progress: Optional per-job event listener.
            faults: Optional :class:`~repro.faults.FaultPlan` of injected
                backup failures sampled per outage.  Part of each job's
                fingerprint, so cached fault-free years stay valid and a
                fault study never reads them by accident.
        """
        job_list, reduce = self.prepare(
            configuration, technique, years=years, faults=faults
        )
        if executor is None:
            executor = make_executor(jobs=jobs, cache=cache, progress=progress)
        report = executor.run(job_list)
        self.last_run_stats = report.stats
        return reduce(report.values)
