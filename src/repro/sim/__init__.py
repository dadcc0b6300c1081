"""Simulation: the datacenter assembly, the outage simulator, and the yearly runner.

:mod:`repro.sim.outage_sim` is the load-bearing piece — it executes a
technique's :class:`~repro.techniques.base.OutagePlan` against a concrete
backup infrastructure (Peukert battery, DG start-up, PSU hold-up) and
produces the :class:`~repro.sim.metrics.OutageOutcome` the evaluation
figures are built from.
"""

from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome, SourceKind
from repro.sim.outage_sim import OutageSimulator, simulate_outage
from repro.sim.trace import PowerTrace, TraceSegment
from repro.sim.yearly import YearlyResult, YearlyRunner

__all__ = [
    "Datacenter",
    "OutageOutcome",
    "OutageSimulator",
    "PowerTrace",
    "SourceKind",
    "TraceSegment",
    "YearlyResult",
    "YearlyRunner",
    "simulate_outage",
]
