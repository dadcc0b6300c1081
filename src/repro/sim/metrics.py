"""Outcome metrics of one simulated outage.

These mirror Section 6's evaluation metrics exactly:

* **down time** — "the total time for which an application is unavailable
  (not performing computation or responding to users) during a power outage
  and immediately after power is restored", including performance-induced
  down time (warm-up shortfall) after a state loss;
* **performance during the outage** — time-weighted normalised throughput
  over the outage window, normalised to MaxPerf (which is 1.0 by
  construction);
* the backup *demand* the run imposed (peak power, battery charge consumed,
  DG energy) that the cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.sim.trace import PowerTrace


class SourceKind(str, Enum):
    """Who carried the load during a trace segment."""

    UTILITY = "utility"
    UPS = "ups"
    DG = "dg"
    NONE = "none"


@dataclass(frozen=True)
class OutageOutcome:
    """Everything one simulated outage produced.

    Attributes:
        technique_name: The executed plan's technique.
        outage_seconds: Simulated outage duration.
        crashed: Volatile state was lost (backup could not carry the plan).
        crash_time_seconds: When the crash happened (None if none).
        state_preserved: State survived to restoration (saved or sustained).
        downtime_during_outage_seconds: Zero-service time within the outage.
        downtime_after_restore_seconds: Zero-service plus performance-induced
            down time after power returned (resume, reboot, reload, warm-up
            shortfall, recompute).
        mean_performance: Time-weighted normalised throughput over the
            outage window.
        ups_charge_consumed: Fraction of the UPS battery's state of charge
            consumed (0 when no UPS / unused; 1 means fully drained).
        ups_state_of_charge_end: Charge remaining when the run ended (0 when
            no UPS); the seed for back-to-back outage studies.
        ups_energy_joules: Energy sourced from the UPS battery.
        dg_energy_joules: Energy sourced from the diesel generator.
        peak_backup_power_watts: Largest draw imposed on any backup source.
        restored_by_dg: Full service returned on DG power before utility.
        trace: The full piecewise power/performance trace.
    """

    technique_name: str
    outage_seconds: float
    crashed: bool
    crash_time_seconds: Optional[float]
    state_preserved: bool
    downtime_during_outage_seconds: float
    downtime_after_restore_seconds: float
    mean_performance: float
    ups_charge_consumed: float
    ups_state_of_charge_end: float
    ups_energy_joules: float
    dg_energy_joules: float
    peak_backup_power_watts: float
    restored_by_dg: bool
    trace: PowerTrace = field(repr=False)

    @property
    def downtime_seconds(self) -> float:
        """The paper's reported down-time metric (during + after)."""
        return (
            self.downtime_during_outage_seconds
            + self.downtime_after_restore_seconds
        )

    def summary(self) -> str:
        """One-line human-readable summary for reports."""
        return (
            f"{self.technique_name}: outage={self.outage_seconds / 60:.1f}min "
            f"perf={self.mean_performance:.2f} "
            f"down={self.downtime_seconds / 60:.2f}min "
            f"{'CRASH' if self.crashed else 'ok'}"
        )
