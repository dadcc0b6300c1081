"""One-at-a-time sensitivity analysis (tornado studies).

The paper's conclusions rest on a handful of calibrated constants — battery
nonlinearity, FreeRunTime, cost rates, sleep power — and its tech report
studies how sensitive the results are to several of them.  This module
provides a small, generic harness: perturb one parameter at a time across a
range, recompute a metric, and rank parameters by the swing they induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

from repro.errors import ConfigurationError

#: A metric computed from a full set of parameter values.
MetricFn = Callable[[Mapping[str, float]], float]


@dataclass(frozen=True)
class SensitivityRow:
    """One parameter's tornado bar.

    Attributes:
        parameter: Parameter name.
        low_value / high_value: Probed extremes.
        low_metric / high_metric: Metric at those extremes.
        baseline_metric: Metric with every parameter at baseline.
        swing: ``abs(high_metric - low_metric)`` — the bar length.
    """

    parameter: str
    low_value: float
    high_value: float
    low_metric: float
    high_metric: float
    baseline_metric: float

    @property
    def swing(self) -> float:
        return abs(self.high_metric - self.low_metric)

    def elasticity(self) -> float:
        """d(metric)/metric over d(param)/param, secant-estimated."""
        d_param = self.high_value - self.low_value
        mid_param = (self.high_value + self.low_value) / 2
        if d_param == 0 or mid_param == 0 or self.baseline_metric == 0:
            return 0.0
        d_metric = self.high_metric - self.low_metric
        return (d_metric / self.baseline_metric) / (d_param / mid_param)


class SensitivityStudy:
    """Runs one-at-a-time perturbations of a metric.

    Args:
        metric: Function from a full parameter mapping to the metric value.
        baseline: Baseline value for every parameter.
        ranges: Per-parameter (low, high) probe values; parameters absent
            from ``baseline`` are rejected to catch typos.
    """

    def __init__(
        self,
        metric: MetricFn,
        baseline: Mapping[str, float],
        ranges: Mapping[str, Sequence[float]],
    ):
        for name, bounds in ranges.items():
            if name not in baseline:
                raise ConfigurationError(f"unknown parameter {name!r}")
            if len(bounds) != 2:
                raise ConfigurationError(
                    f"{name}: expected (low, high), got {bounds!r}"
                )
        self.metric = metric
        self.baseline = dict(baseline)
        self.ranges = {name: (float(lo), float(hi)) for name, (lo, hi) in ranges.items()}

    def run(self) -> List[SensitivityRow]:
        """Tornado rows, sorted by swing (largest first)."""
        baseline_metric = self.metric(self.baseline)
        rows: List[SensitivityRow] = []
        for name, (low, high) in self.ranges.items():
            low_params = dict(self.baseline, **{name: low})
            high_params = dict(self.baseline, **{name: high})
            rows.append(
                SensitivityRow(
                    parameter=name,
                    low_value=low,
                    high_value=high,
                    low_metric=self.metric(low_params),
                    high_metric=self.metric(high_params),
                    baseline_metric=baseline_metric,
                )
            )
        rows.sort(key=lambda row: row.swing, reverse=True)
        return rows


def sweep(
    metric: Callable[[float], float], values: Sequence[float]
) -> Dict[float, float]:
    """Simple 1-D sweep helper: value -> metric."""
    return {float(v): metric(float(v)) for v in values}
