"""Workload models: the four applications of Table 7.

Each workload is described by the parameters the paper's evaluation actually
exercises — memory footprint, CPU-boundedness (throttling sensitivity),
dirty-state behaviour (proactive techniques), and the crash-recovery pipeline
(restart, reload, warm-up, recompute) — calibrated to the measurements the
paper reports.
"""

from repro.workloads.latency import LatencySLOModel, slo_amplification
from repro.workloads.base import (
    CrashRecovery,
    PerformanceMetric,
    WorkloadSpec,
)
from repro.workloads.memcached import memcached
from repro.workloads.registry import PAPER_WORKLOADS, get_workload, workload_names
from repro.workloads.speccpu import speccpu_mcf
from repro.workloads.specjbb import specjbb
from repro.workloads.websearch import websearch

__all__ = [
    "CrashRecovery",
    "LatencySLOModel",
    "PAPER_WORKLOADS",
    "PerformanceMetric",
    "WorkloadSpec",
    "get_workload",
    "memcached",
    "speccpu_mcf",
    "specjbb",
    "slo_amplification",
    "websearch",
    "workload_names",
]
