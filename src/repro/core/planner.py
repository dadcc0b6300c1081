"""Provisioning planner: the minimum-cost backup for an outage target.

Answers the paper's headline question — "What is the minimum cost, and the
resulting backup capacity, to handle different outage durations?" — by
searching jointly over techniques and DG-less UPS sizings (and, optionally,
DG-backed configurations) subject to performability targets:

* a floor on mean performance during the outage, and
* a ceiling on total down time.

This is what produces insights like "for outages up to 40 mins, DGs are not
needed" and "40 % performance degradation tolerance -> 40 % cost savings".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.configurations import BackupConfiguration, PAPER_CONFIGURATIONS
from repro.core.costs import BackupCostModel
from repro.core.performability import (
    DEFAULT_NUM_SERVERS,
    PerformabilityPoint,
    evaluate_point,
)
from repro.core.selection import DEFAULT_CANDIDATES, lowest_cost_backup
from repro.errors import ConfigurationError, InfeasibleError
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.registry import get_technique
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class ProvisioningResult:
    """The planner's answer.

    Attributes:
        configuration: The chosen backup sizing.
        technique_name: The outage-handling technique to pair with it.
        normalized_cost: Cost relative to MaxPerf.
        point: Performability at the target outage duration.
    """

    configuration: BackupConfiguration
    technique_name: str
    normalized_cost: float
    point: PerformabilityPoint


class ProvisioningPlanner:
    """Searches (technique x sizing) for the cheapest plan meeting targets.

    Args:
        workload: The application to protect.
        num_servers: Cluster size (performability is scale-free).
        server: Server model.
        cost_model: Pricing (defaults to Table 1).
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        num_servers: int = DEFAULT_NUM_SERVERS,
        server: ServerSpec = PAPER_SERVER,
        cost_model: Optional[BackupCostModel] = None,
    ):
        self.workload = workload
        self.num_servers = num_servers
        self.server = server
        self.cost_model = cost_model if cost_model is not None else BackupCostModel()

    def _meets(
        self,
        point: PerformabilityPoint,
        min_performance: float,
        max_downtime_seconds: float,
    ) -> bool:
        return (
            point.feasible
            and point.performance >= min_performance - 1e-9
            and point.downtime_seconds <= max_downtime_seconds + 1e-9
        )

    def plan(
        self,
        outage_seconds: float,
        min_performance: float = 0.0,
        max_downtime_seconds: float = math.inf,
        technique_names: Iterable[str] = DEFAULT_CANDIDATES,
    ) -> ProvisioningResult:
        """Cheapest DG-less (technique, UPS) meeting the targets.

        Raises:
            ConfigurationError: A target is negative or NaN.
            InfeasibleError: No candidate meets the targets (e.g. demanding
                zero down time without any backup money).
        """
        if not min_performance >= 0:
            raise ConfigurationError("min_performance must be >= 0")
        if not max_downtime_seconds >= 0:
            raise ConfigurationError("max_downtime_seconds must be >= 0")
        best: Optional[ProvisioningResult] = None
        for name in technique_names:
            technique = get_technique(name)
            try:
                sized = lowest_cost_backup(
                    technique,
                    self.workload,
                    outage_seconds,
                    num_servers=self.num_servers,
                    server=self.server,
                    cost_model=self.cost_model,
                )
            except InfeasibleError:
                continue
            if not self._meets(sized.point, min_performance, max_downtime_seconds):
                continue
            if best is None or sized.normalized_cost < best.normalized_cost:
                best = ProvisioningResult(
                    configuration=sized.configuration,
                    technique_name=name,
                    normalized_cost=sized.normalized_cost,
                    point=sized.point,
                )
        if best is None:
            raise InfeasibleError(
                f"no (technique, UPS) meets perf>={min_performance:.2f}, "
                f"downtime<={max_downtime_seconds / 60:.1f} min for a "
                f"{outage_seconds / 60:.0f} min outage"
            )
        return best

    def compare_named_configurations(
        self,
        outage_seconds: float,
        configurations: Iterable[BackupConfiguration] = PAPER_CONFIGURATIONS,
        technique_names: Iterable[str] = DEFAULT_CANDIDATES,
    ) -> List[Tuple[BackupConfiguration, PerformabilityPoint]]:
        """Best-technique point for each named configuration — the Figure 5
        data generator, reusable for custom configuration lists."""
        from repro.core.selection import best_technique  # local: avoids cycle at import

        rows = []
        for config in configurations:
            point = best_technique(
                config,
                self.workload,
                outage_seconds,
                candidates=technique_names,
                num_servers=self.num_servers,
                server=self.server,
            )
            rows.append((config, point))
        return rows
