"""Expected performability over the outage-duration distribution.

The figures evaluate fixed durations and the availability analyzer rolls
Monte-Carlo years; between them sits the per-outage expectation an operator
quotes in a design review: *"when an outage hits, what do we expect?"*

:class:`ExpectedOutageAnalyzer` integrates the simulator's outcome metrics
over Figure 1(b) deterministically — log-spaced quadrature nodes within
each duration bucket, weighted by the bucket masses — so the answer is
reproducible to the last digit and needs no sampling-error judgement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.core.configurations import BackupConfiguration
from repro.core.performability import (
    DEFAULT_NUM_SERVERS,
    make_datacenter,
    plan_context,
)
from repro.errors import ConfigurationError, TechniqueError
from repro.outages.distributions import (
    OUTAGE_DURATION_DISTRIBUTION,
    EmpiricalDistribution,
)
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import OutageTechnique
from repro.units import ordered_sum
from repro.workloads.base import WorkloadSpec

#: Where the unbounded tail bucket is truncated for quadrature (the paper
#: recommends geo-redirection past ~4 h anyway).
TAIL_TRUNCATION_SECONDS = 8 * 3600.0


@dataclass(frozen=True)
class ExpectedOutageReport:
    """Per-outage expectations for one (configuration, technique) pairing.

    Attributes:
        configuration_name / technique_name: The pairing.
        expected_downtime_seconds: E[down time | an outage occurs].
        expected_performance: E[mean performance during the outage].
        crash_probability: P[volatile state is lost].
        expected_ups_charge: E[battery charge consumed].
        nodes: Quadrature nodes used, for audit.
    """

    configuration_name: str
    technique_name: str
    expected_downtime_seconds: float
    expected_performance: float
    crash_probability: float
    expected_ups_charge: float
    nodes: Tuple[Tuple[float, float], ...]  # (duration, weight)

    @property
    def expected_downtime_minutes(self) -> float:
        return self.expected_downtime_seconds / 60.0


class ExpectedOutageAnalyzer:
    """Deterministic quadrature over the outage-duration distribution.

    Args:
        workload: The application.
        distribution: Duration distribution (defaults to Figure 1(b)).
        nodes_per_bucket: Log-spaced evaluation points per bucket.
        num_servers / server: Cluster shape (metrics are scale-free).
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        distribution: EmpiricalDistribution = OUTAGE_DURATION_DISTRIBUTION,
        nodes_per_bucket: int = 3,
        num_servers: int = DEFAULT_NUM_SERVERS,
        server: ServerSpec = PAPER_SERVER,
    ):
        if nodes_per_bucket <= 0:
            raise ConfigurationError("nodes_per_bucket must be positive")
        self.workload = workload
        self.distribution = distribution
        self.nodes_per_bucket = nodes_per_bucket
        self.num_servers = num_servers
        self.server = server

    def quadrature_nodes(self) -> List[Tuple[float, float]]:
        """(duration, weight) nodes; weights sum to 1."""
        nodes: List[Tuple[float, float]] = []
        for bucket in self.distribution.buckets:
            low = max(bucket.low_seconds, 1.0)
            high = bucket.high_seconds
            if math.isinf(high):
                high = TAIL_TRUNCATION_SECONDS
            if high <= low:
                continue
            weight = bucket.probability / self.nodes_per_bucket
            for i in range(self.nodes_per_bucket):
                # Log-spaced interior points (matches the log-uniform
                # within-bucket sampling of the Monte-Carlo path).
                fraction = (i + 0.5) / self.nodes_per_bucket
                duration = math.exp(
                    math.log(low) + fraction * (math.log(high) - math.log(low))
                )
                nodes.append((duration, weight))
        return nodes

    def analyze(
        self,
        configuration: BackupConfiguration,
        technique: OutageTechnique,
        lost_work_seconds: Optional[float] = None,
    ) -> ExpectedOutageReport:
        """Integrate the simulator's metrics over the duration distribution."""
        datacenter = make_datacenter(
            self.workload, configuration, self.num_servers, self.server
        )
        try:
            plan = technique.compile_plan(plan_context(datacenter))
        except TechniqueError as exc:
            raise ConfigurationError(
                f"{technique.name} cannot compile on {configuration.name}: {exc}"
            ) from exc

        nodes = self.quadrature_nodes()
        total_weight = ordered_sum(weight for _, weight in nodes)
        downtime = 0.0
        performance = 0.0
        crash = 0.0
        charge = 0.0
        for duration, weight in nodes:
            outcome = simulate_outage(
                datacenter, plan, duration, lost_work_seconds=lost_work_seconds
            )
            downtime += weight * outcome.downtime_seconds
            performance += weight * outcome.mean_performance
            crash += weight * (1.0 if outcome.crashed else 0.0)
            charge += weight * outcome.ups_charge_consumed
        return ExpectedOutageReport(
            configuration_name=configuration.name,
            technique_name=plan.technique_name,
            expected_downtime_seconds=downtime / total_weight,
            expected_performance=performance / total_weight,
            crash_probability=crash / total_weight,
            expected_ups_charge=charge / total_weight,
            nodes=tuple(nodes),
        )


def whatif_cell(spec: Mapping[str, Any], seed: Any) -> ExpectedOutageReport:
    """Runner job: one deterministic what-if expectation.

    The spec carries only registry names and scalars, so the job's
    fingerprint is stable across processes and the result caches cleanly
    (``seed`` is ignored — the quadrature is deterministic).  This is
    the unit the evaluation service dispatches for ``whatif`` queries.
    """
    from repro.core.configurations import get_configuration
    from repro.techniques.registry import get_technique
    from repro.workloads.registry import get_workload

    analyzer = ExpectedOutageAnalyzer(
        get_workload(spec["workload"]),
        nodes_per_bucket=spec["nodes_per_bucket"],
        num_servers=spec["servers"],
    )
    return analyzer.analyze(
        get_configuration(spec["configuration"]),
        get_technique(spec["technique"]),
    )
