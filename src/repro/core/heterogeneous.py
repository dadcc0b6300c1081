"""Heterogeneous provisioning: different backup tiers for different apps.

Section 7: "Multiple datacenters or sections in a datacenter could have
different backup configurations, in the spectrum of cost-performability
choices we outlined.  Capacity planning could depend on historic data about
multiple application requirements and cost preferences."

This module implements that planner.  A fleet is described as *sections* —
(workload, fraction of servers, performability target) — and the planner
answers two questions:

* **tiered plan** — the cheapest (technique, UPS sizing) *per section*,
  blended by fleet fraction; and
* **uniform baseline** — the cheapest *single* configuration that meets
  every section's target simultaneously (what a one-size-fits-all build
  would cost).

The gap between the two is the value of heterogeneity, and the planner's
output doubles as the workload-to-tier assignment Section 7 calls for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel
from repro.core.performability import DEFAULT_NUM_SERVERS, evaluate_point
from repro.core.planner import ProvisioningPlanner, ProvisioningResult
from repro.core.selection import DEFAULT_CANDIDATES
from repro.errors import ConfigurationError
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.techniques.registry import get_technique
from repro.units import minutes
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class SectionRequirement:
    """One section of the fleet and its performability target.

    Attributes:
        workload: The application hosted on this section.
        fleet_fraction: Share of the facility's servers (sections sum to 1).
        min_performance: Required mean performance during the outage.
        max_downtime_seconds: Down-time ceiling (during + after).
    """

    workload: WorkloadSpec
    fleet_fraction: float
    min_performance: float = 0.0
    max_downtime_seconds: float = math.inf

    def __post_init__(self) -> None:
        if not 0 < self.fleet_fraction <= 1:
            raise ConfigurationError("fleet_fraction must be in (0, 1]")
        if not 0 <= self.min_performance <= 1:
            raise ConfigurationError("min_performance must be in [0, 1]")
        if not self.max_downtime_seconds >= 0:  # NaN fails this too
            raise ConfigurationError("max_downtime_seconds must be >= 0")


@dataclass(frozen=True)
class SectionAssignment:
    """A section's chosen tier."""

    requirement: SectionRequirement
    result: ProvisioningResult

    @property
    def weighted_cost(self) -> float:
        return self.requirement.fleet_fraction * self.result.normalized_cost


@dataclass(frozen=True)
class HeterogeneousPlan:
    """The planner's full answer.

    Attributes:
        assignments: Per-section tiers.
        blended_cost: Fleet-fraction-weighted normalised cost.
        uniform_baseline_cost: Cheapest single configuration meeting every
            target (None if the uniform search found nothing feasible).
    """

    assignments: Sequence[SectionAssignment]
    blended_cost: float
    uniform_baseline_cost: Optional[float]

    @property
    def heterogeneity_savings(self) -> Optional[float]:
        """Fractional savings of tiering vs the uniform build."""
        if self.uniform_baseline_cost is None or self.uniform_baseline_cost == 0:
            return None
        return 1.0 - self.blended_cost / self.uniform_baseline_cost


#: Uniform-search grid (coarse on purpose — it prices a *baseline*).
_UNIFORM_POWER_FRACTIONS = tuple(i / 10.0 for i in range(1, 11))
_UNIFORM_RUNTIMES_SECONDS = tuple(
    minutes(m) for m in (2, 5, 10, 20, 40, 80, 160)
)


class HeterogeneousPlanner:
    """Plans tiered backup for a multi-application fleet.

    Args:
        outage_seconds: Design outage duration.
        num_servers: Per-section cluster size used for evaluation
            (performability is scale-free; fractions weight the costs).
        server: Server model.
        cost_model: Pricing.
    """

    def __init__(
        self,
        outage_seconds: float,
        num_servers: int = DEFAULT_NUM_SERVERS,
        server: ServerSpec = PAPER_SERVER,
        cost_model: Optional[BackupCostModel] = None,
    ):
        if outage_seconds <= 0:
            raise ConfigurationError("outage duration must be positive")
        self.outage_seconds = outage_seconds
        self.num_servers = num_servers
        self.server = server
        self.cost_model = cost_model if cost_model is not None else BackupCostModel()

    # -- tiered plan ----------------------------------------------------------

    def plan(
        self, requirements: Iterable[SectionRequirement]
    ) -> HeterogeneousPlan:
        """Cheapest per-section tiers plus the uniform baseline."""
        reqs = list(requirements)
        if not reqs:
            raise ConfigurationError("at least one section is required")
        total_fraction = sum(r.fleet_fraction for r in reqs)
        if abs(total_fraction - 1.0) > 1e-6:
            raise ConfigurationError(
                f"fleet fractions sum to {total_fraction}, expected 1.0"
            )
        assignments: List[SectionAssignment] = []
        for requirement in reqs:
            planner = ProvisioningPlanner(
                requirement.workload,
                num_servers=self.num_servers,
                server=self.server,
                cost_model=self.cost_model,
            )
            result = planner.plan(
                outage_seconds=self.outage_seconds,
                min_performance=requirement.min_performance,
                max_downtime_seconds=requirement.max_downtime_seconds,
            )
            assignments.append(
                SectionAssignment(requirement=requirement, result=result)
            )
        blended = sum(a.weighted_cost for a in assignments)
        uniform = self._cheapest_uniform(reqs)
        return HeterogeneousPlan(
            assignments=tuple(assignments),
            blended_cost=blended,
            uniform_baseline_cost=uniform,
        )

    # -- uniform baseline -----------------------------------------------------------

    def _section_satisfied(
        self,
        configuration: BackupConfiguration,
        requirement: SectionRequirement,
    ) -> bool:
        """Whether ANY candidate technique meets the section's target on
        this configuration."""
        for name in DEFAULT_CANDIDATES:
            point = evaluate_point(
                configuration,
                get_technique(name),
                requirement.workload,
                self.outage_seconds,
                num_servers=self.num_servers,
                server=self.server,
                cost_model=self.cost_model,
            )
            if (
                point.feasible
                and point.performance >= requirement.min_performance - 1e-9
                and point.downtime_seconds
                <= requirement.max_downtime_seconds + 1e-9
            ):
                return True
        return False

    def _cheapest_uniform(
        self, requirements: Sequence[SectionRequirement]
    ) -> Optional[float]:
        best: Optional[float] = None
        for fraction in _UNIFORM_POWER_FRACTIONS:
            for runtime in _UNIFORM_RUNTIMES_SECONDS:
                configuration = BackupConfiguration(
                    name=f"uniform-{fraction:.1f}p-{runtime / 60:.0f}min",
                    dg_power_fraction=0.0,
                    ups_power_fraction=fraction,
                    ups_runtime_seconds=runtime,
                )
                cost = configuration.normalized_cost(self.cost_model)
                if best is not None and cost >= best:
                    continue  # cannot improve; skip the expensive check
                if all(
                    self._section_satisfied(configuration, requirement)
                    for requirement in requirements
                ):
                    best = cost
        return best
