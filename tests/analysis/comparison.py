"""Head-to-head configuration verdict tables, kept only for their tests.

Evaluates two configurations, each with its best technique (the Figure 5
rule), over a workload x duration grid and scores each cell.  No paper
result is such a table, and no analysis, CLI command or benchmark builds
one; :func:`repro.core.selection.best_technique`, which this wraps, is the
production path.  It lives under ``tests/`` so
``tests/analysis/test_comparison.py`` keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.core.configurations import BackupConfiguration
from repro.core.performability import DEFAULT_NUM_SERVERS, PerformabilityPoint
from repro.core.selection import best_technique
from repro.errors import ConfigurationError
from repro.servers.server import PAPER_SERVER, ServerSpec
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class ComparisonCell:
    """One (workload, duration) head-to-head.

    Attributes:
        workload_name: The application.
        outage_seconds: The duration.
        a / b: Each side's best-technique point.
        winner: "a", "b", or "tie" under (down time, then performance).
    """

    workload_name: str
    outage_seconds: float
    a: PerformabilityPoint
    b: PerformabilityPoint
    winner: str


@dataclass(frozen=True)
class ComparisonReport:
    """The full verdict.

    Attributes:
        config_a / config_b: The contenders.
        cells: Per-(workload, duration) results.
        cost_a / cost_b: Normalised costs.
    """

    config_a: BackupConfiguration
    config_b: BackupConfiguration
    cells: Sequence[ComparisonCell]
    cost_a: float
    cost_b: float

    @property
    def wins_a(self) -> int:
        return sum(1 for cell in self.cells if cell.winner == "a")

    @property
    def wins_b(self) -> int:
        return sum(1 for cell in self.cells if cell.winner == "b")

    @property
    def ties(self) -> int:
        return sum(1 for cell in self.cells if cell.winner == "tie")

    def verdict(self) -> str:
        """One-line summary of the trade."""
        cheaper = self.config_a.name if self.cost_a <= self.cost_b else self.config_b.name
        return (
            f"{self.config_a.name} wins {self.wins_a}, "
            f"{self.config_b.name} wins {self.wins_b}, {self.ties} ties; "
            f"costs {self.cost_a:.2f} vs {self.cost_b:.2f} "
            f"({cheaper} is cheaper)"
        )

    def rendered(self) -> str:
        """ASCII verdict table."""
        rows: List[Tuple] = []
        for cell in self.cells:
            rows.append(
                (
                    cell.workload_name,
                    round(cell.outage_seconds / 60, 1),
                    round(cell.a.performance, 2),
                    round(cell.a.downtime_minutes, 1),
                    round(cell.b.performance, 2),
                    round(cell.b.downtime_minutes, 1),
                    {"a": self.config_a.name, "b": self.config_b.name, "tie": "-"}[
                        cell.winner
                    ],
                )
            )
        header = (
            "workload",
            "outage (min)",
            f"{self.config_a.name} perf",
            "down",
            f"{self.config_b.name} perf",
            "down",
            "winner",
        )
        table = format_table(
            header,
            rows,
            title=f"{self.config_a.name} (cost {self.cost_a:.2f}) vs "
            f"{self.config_b.name} (cost {self.cost_b:.2f})",
        )
        return table + "\n" + self.verdict()


def _judge(a: PerformabilityPoint, b: PerformabilityPoint) -> str:
    """Figure 5 ordering: lower down time, then higher performance."""
    key_a = (round(a.downtime_seconds, 3), -round(a.performance, 6))
    key_b = (round(b.downtime_seconds, 3), -round(b.performance, 6))
    if key_a < key_b:
        return "a"
    if key_b < key_a:
        return "b"
    return "tie"


def compare_configurations(
    config_a: BackupConfiguration,
    config_b: BackupConfiguration,
    workloads: Sequence[WorkloadSpec],
    outage_durations_seconds: Sequence[float],
    num_servers: int = DEFAULT_NUM_SERVERS,
    server: ServerSpec = PAPER_SERVER,
    candidates: Optional[Sequence[str]] = None,
) -> ComparisonReport:
    """Run the head-to-head grid (see module docstring)."""
    if not workloads or not outage_durations_seconds:
        raise ConfigurationError("need at least one workload and one duration")
    cells: List[ComparisonCell] = []
    for workload in workloads:
        for duration in outage_durations_seconds:
            point_a = best_technique(
                config_a, workload, duration,
                candidates=candidates, num_servers=num_servers, server=server,
            )
            point_b = best_technique(
                config_b, workload, duration,
                candidates=candidates, num_servers=num_servers, server=server,
            )
            cells.append(
                ComparisonCell(
                    workload_name=workload.name,
                    outage_seconds=duration,
                    a=point_a,
                    b=point_b,
                    winner=_judge(point_a, point_b),
                )
            )
    return ComparisonReport(
        config_a=config_a,
        config_b=config_b,
        cells=tuple(cells),
        cost_a=config_a.normalized_cost(),
        cost_b=config_b.normalized_cost(),
    )
