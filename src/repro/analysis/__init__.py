"""Analysis layer: Monte-Carlo availability, Pareto frontiers, sweeps,
and ASCII report rendering used by the benchmarks and examples."""

from repro.analysis.availability import AvailabilityAnalyzer, AvailabilityReport
from repro.analysis.export import (
    availability_record,
    point_record,
    sweep_records,
    to_csv,
    to_json,
    trace_records,
)
from repro.analysis.figures import FigureCell, build_figure, render_figure
from repro.analysis.frontier import pareto_frontier
from repro.analysis.report import (
    format_figure_bars,
    format_table,
    format_trace_sparkline,
)
from repro.analysis.sensitivity import SensitivityRow, SensitivityStudy
from repro.analysis.sweep import SweepResult, sweep_configurations, sweep_techniques

__all__ = [
    "AvailabilityAnalyzer",
    "AvailabilityReport",
    "SensitivityRow",
    "SensitivityStudy",
    "SweepResult",
    "FigureCell",
    "availability_record",
    "build_figure",
    "format_figure_bars",
    "format_table",
    "format_trace_sparkline",
    "point_record",
    "sweep_records",
    "to_csv",
    "to_json",
    "trace_records",
    "pareto_frontier",
    "render_figure",
    "sweep_configurations",
    "sweep_techniques",
]
