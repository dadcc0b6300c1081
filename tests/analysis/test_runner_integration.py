"""Analysis layers on the runner: serial == parallel, caching, telemetry.

The regression at the heart of this file: the availability study's
Monte-Carlo statistics must be **bit-identical** at every worker count,
because each simulated year draws from its own SeedSequence-spawned
stream rather than from a shared generator threaded through the loop.
"""

import dataclasses

import pytest

from repro.analysis.availability import AvailabilityAnalyzer
from repro.analysis.sweep import sweep_configurations, sweep_techniques
from repro.core.configurations import get_configuration
from repro.runner import CollectingProgress, ResultCache, make_executor
from repro.techniques.registry import get_technique
from repro.units import minutes
from repro.workloads.specjbb import specjbb


def _report_numbers(report):
    return dataclasses.asdict(report)


class TestSerialParallelIdentity:
    def test_availability_identical_across_worker_counts(self):
        """The acceptance regression: jobs=1 == jobs=4 for a fixed seed."""
        config = get_configuration("LargeEUPS")
        tech = get_technique("throttle+sleep-l")
        serial = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=7).analyze(
            config, tech, years=15, jobs=1
        )
        parallel = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=7).analyze(
            config, tech, years=15, jobs=4
        )
        assert _report_numbers(serial) == _report_numbers(parallel)

    def test_different_seeds_differ(self):
        config = get_configuration("NoDG")
        tech = get_technique("sleep-l")
        a = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1).analyze(
            config, tech, years=15
        )
        b = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=2).analyze(
            config, tech, years=15
        )
        assert (
            a.mean_downtime_minutes_per_year != b.mean_downtime_minutes_per_year
        )

    def test_sweep_identical_across_worker_counts(self):
        serial = sweep_techniques(
            specjbb(), ["sleep-l", "hibernate"], [30.0, minutes(5)], jobs=1
        )
        parallel = sweep_techniques(
            specjbb(), ["sleep-l", "hibernate"], [30.0, minutes(5)], jobs=2
        )
        assert serial == parallel


class TestAvailabilityCaching:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        config = get_configuration("LargeEUPS")
        tech = get_technique("throttle+sleep-l")
        first = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=3)
        r1 = first.analyze(config, tech, years=10, cache=ResultCache(tmp_path))
        assert first.last_run_stats.jobs_run == 1  # one year block
        second = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=3)
        r2 = second.analyze(config, tech, years=10, cache=ResultCache(tmp_path))
        assert second.last_run_stats.cache_hits == 1
        assert second.last_run_stats.jobs_run == 0
        assert _report_numbers(r1) == _report_numbers(r2)

    def test_seed_partitions_the_cache(self, tmp_path):
        config = get_configuration("NoDG")
        tech = get_technique("sleep-l")
        AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1).analyze(
            config, tech, years=5, cache=ResultCache(tmp_path)
        )
        other = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=2)
        other.analyze(config, tech, years=5, cache=ResultCache(tmp_path))
        assert other.last_run_stats.cache_hits == 0

    def test_configuration_partitions_the_cache(self, tmp_path):
        tech = get_technique("sleep-l")
        analyzer = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1)
        analyzer.analyze(
            get_configuration("NoDG"), tech, years=5, cache=ResultCache(tmp_path)
        )
        analyzer.analyze(
            get_configuration("LargeEUPS"),
            tech,
            years=5,
            cache=ResultCache(tmp_path),
        )
        assert analyzer.last_run_stats.cache_hits == 0


class TestTelemetry:
    def test_progress_events_flow_through_analyze(self):
        progress = CollectingProgress()
        AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1).analyze(
            get_configuration("NoDG"),
            get_technique("sleep-l"),
            years=1500,  # two year blocks: 1000 + 500
            progress=progress,
        )
        assert progress.count("started") == 2
        assert progress.count("finished") == 2

    def test_last_run_stats_populated(self):
        analyzer = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1)
        assert analyzer.last_run_stats is None
        analyzer.analyze(
            get_configuration("NoDG"), get_technique("sleep-l"), years=4
        )
        assert analyzer.last_run_stats.jobs_total == 1
        assert analyzer.last_run_stats.elapsed_seconds > 0

    def test_explicit_executor_wins(self):
        executor = make_executor(1)
        analyzer = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=1)
        analyzer.analyze(
            get_configuration("NoDG"),
            get_technique("sleep-l"),
            years=3,
            executor=executor,
            jobs=99,  # ignored: executor takes precedence
        )
        assert executor.last_report.stats.jobs_total == 1


class TestSweepCaching:
    def test_sweep_cells_memoised(self, tmp_path):
        progress = CollectingProgress()
        args = (specjbb(), ["MaxPerf", "MinCost"], [30.0, minutes(5)])
        first = sweep_configurations(*args, cache=ResultCache(tmp_path))
        second = sweep_configurations(
            *args, cache=ResultCache(tmp_path), progress=progress
        )
        assert second == first
        assert progress.count("cache-hit") == 4
