"""Runner scaling: the availability study at 1 vs N workers.

Times a fixed Monte-Carlo availability study through the
:mod:`repro.runner` executor at one worker and at several, asserts the
parallel path returns **identical** aggregates (the SeedSequence-per-year
contract), and records the achieved speedup.  Fault-free studies run as
year blocks of ``DEFAULT_BLOCK_YEARS``, one runner job each, so the study
spans several blocks: with one job there would be nothing to spread
over the workers.  The speedup is printed, not
asserted — CI machines range from many-core to a single shared core, and
a wall-clock assertion would make the suite flaky for no informational
gain.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time

from conftest import run_once
from repro.analysis.availability import AvailabilityAnalyzer
from repro.analysis.report import format_table
from repro.core.configurations import get_configuration
from repro.techniques.registry import get_technique
from repro.vsim.yearly import DEFAULT_BLOCK_YEARS
from repro.workloads.specjbb import specjbb

YEARS = 2 * DEFAULT_BLOCK_YEARS + DEFAULT_BLOCK_YEARS // 2
JOBS = math.ceil(YEARS / DEFAULT_BLOCK_YEARS)
SEED = 2014
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def run_study(jobs: int):
    analyzer = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=SEED)
    started = time.perf_counter()
    report = analyzer.analyze(
        get_configuration("LargeEUPS"),
        get_technique("throttle+sleep-l"),
        years=YEARS,
        jobs=jobs,
    )
    elapsed = time.perf_counter() - started
    return report, analyzer.last_run_stats, elapsed


def test_runner_scaling(benchmark, emit):
    serial_report, serial_stats, serial_seconds = run_study(jobs=1)
    parallel_report, parallel_stats, parallel_seconds = run_once(
        benchmark, run_study, jobs=PARALLEL_JOBS
    )

    # The contract under test: worker count never changes the statistics.
    assert dataclasses.asdict(parallel_report) == dataclasses.asdict(
        serial_report
    )
    assert serial_stats.jobs_total == JOBS
    assert parallel_stats.jobs_total == JOBS
    assert serial_stats.failures == 0
    assert parallel_stats.failures == 0

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 1.0
    emit(
        format_table(
            ("quantity", "value"),
            [
                ("years", YEARS),
                ("runner jobs (year blocks)", JOBS),
                ("serial seconds", round(serial_seconds, 3)),
                (f"parallel seconds ({PARALLEL_JOBS} workers)",
                 round(parallel_seconds, 3)),
                ("speedup (recorded, not asserted)", round(speedup, 2)),
                ("parallel fell back to serial",
                 parallel_stats.fell_back_to_serial),
                ("mean down (min/yr)",
                 round(serial_report.mean_downtime_minutes_per_year, 3)),
            ],
            title="runner scaling: availability study, 1 vs N workers",
        )
    )
