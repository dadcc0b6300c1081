"""Power/performance traces: the simulator's Yokogawa power meter.

The paper's methodology records each experiment's power draw at fine
temporal resolution with an external meter and integrates it to derive the
required DG and UPS power and energy capacities.  Our simulator produces
piecewise-constant traces, so the trace is stored exactly (no sampling
error) as ordered segments and integrated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import SimulationError


@dataclass(frozen=True)
class TraceSegment:
    """One piecewise-constant stretch of the experiment.

    Attributes:
        start_seconds: Segment start (relative to outage start).
        end_seconds: Segment end.
        power_watts: Aggregate draw from the *backup* infrastructure.
        performance: Normalised delivered throughput.
        source: Which source carried the load ("utility", "ups", "dg",
            "none").
        label: Phase name for reports.
    """

    start_seconds: float
    end_seconds: float
    power_watts: float
    performance: float
    source: str
    label: str

    def __post_init__(self) -> None:
        if self.end_seconds < self.start_seconds:
            raise SimulationError(
                f"segment ends before it starts: {self.start_seconds}..{self.end_seconds}"
            )

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds

    @property
    def energy_joules(self) -> float:
        return self.power_watts * self.duration_seconds


class PowerTrace:
    """An append-only, time-ordered sequence of trace segments."""

    def __init__(self) -> None:
        self._segments: List[TraceSegment] = []

    def record(
        self,
        start_seconds: float,
        end_seconds: float,
        power_watts: float,
        performance: float,
        source: str,
        label: str,
    ) -> None:
        """Append a segment; zero-length segments are dropped silently."""
        if end_seconds <= start_seconds:
            return
        if self._segments and start_seconds < self._segments[-1].end_seconds - 1e-9:
            raise SimulationError(
                f"segment at {start_seconds} overlaps previous "
                f"(ends {self._segments[-1].end_seconds})"
            )
        self._segments.append(
            TraceSegment(
                start_seconds=start_seconds,
                end_seconds=end_seconds,
                power_watts=power_watts,
                performance=performance,
                source=source,
                label=label,
            )
        )

    def __iter__(self) -> Iterator[TraceSegment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __eq__(self, other: object) -> bool:
        # Value equality (two traces with the same segments are the same
        # measurement) so outcomes compare equal across process
        # boundaries — the runner's serial == parallel guarantee.
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return self._segments == other._segments

    def __repr__(self) -> str:
        return (
            f"PowerTrace({len(self._segments)} segments, "
            f"0..{self.end_seconds:g}s)"
        )

    @property
    def segments(self) -> List[TraceSegment]:
        return list(self._segments)

    @property
    def end_seconds(self) -> float:
        return self._segments[-1].end_seconds if self._segments else 0.0

    # -- integrals ------------------------------------------------------------

    def energy_joules(self, source: Optional[str] = None) -> float:
        """Total energy, optionally restricted to one source."""
        return sum(
            s.energy_joules
            for s in self._segments
            if source is None or s.source == source
        )

    def peak_power_watts(self, source: Optional[str] = None) -> float:
        """Largest draw, optionally restricted to one source."""
        powers = [
            s.power_watts
            for s in self._segments
            if source is None or s.source == source
        ]
        return max(powers, default=0.0)

    def mean_performance(self, start_seconds: float, end_seconds: float) -> float:
        """Time-weighted mean performance over a window; time not covered by
        any segment counts as zero performance (not serving)."""
        if end_seconds <= start_seconds:
            raise SimulationError("window must have positive length")
        total = 0.0
        for seg in self._segments:
            lo = max(seg.start_seconds, start_seconds)
            hi = min(seg.end_seconds, end_seconds)
            if hi > lo:
                total += seg.performance * (hi - lo)
        return total / (end_seconds - start_seconds)

    def zero_performance_seconds(self, start_seconds: float, end_seconds: float) -> float:
        """Time within a window with zero delivered performance (down time);
        uncovered time counts as down.

        Clamped at 0.0: segments that tile the window exactly can still
        sum a few ulps past it, and ``window - covered`` must not turn
        that into negative down time.  The vsim kernel clamps the same
        way (``max(0.0, x)``, NaN and -0.0 included)."""
        if end_seconds <= start_seconds:
            return 0.0
        covered_up = 0.0
        covered_total = 0.0
        for seg in self._segments:
            lo = max(seg.start_seconds, start_seconds)
            hi = min(seg.end_seconds, end_seconds)
            if hi > lo:
                covered_total += hi - lo
                if seg.performance > 0:
                    covered_up += hi - lo
        window = end_seconds - start_seconds
        return max(0.0, (window - covered_total) + (covered_total - covered_up))

    def power_at(self, time_seconds: float) -> float:
        """Draw at an instant (0 outside any segment)."""
        for seg in self._segments:
            if seg.start_seconds <= time_seconds < seg.end_seconds:
                return seg.power_watts
        return 0.0
