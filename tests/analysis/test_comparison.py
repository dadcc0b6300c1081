"""The test-held head-to-head comparison (``tests/analysis/comparison.py``),
and checkpointed SpecCPU recompute."""

import pytest

from repro.core.configurations import get_configuration
from repro.errors import ConfigurationError
from repro.units import hours, minutes
from repro.workloads.specjbb import specjbb
from repro.workloads.websearch import websearch
from tests.analysis.comparison import compare_configurations


class TestComparison:
    def test_maxperf_never_loses(self):
        report = compare_configurations(
            get_configuration("MaxPerf"),
            get_configuration("MinCost"),
            [specjbb()],
            [30, minutes(30)],
            num_servers=8,
        )
        assert report.wins_a == len(report.cells)
        assert report.wins_b == 0
        assert report.cost_a == pytest.approx(1.0)
        assert report.cost_b == 0.0

    def test_identical_configs_tie_everywhere(self):
        report = compare_configurations(
            get_configuration("LargeEUPS"),
            get_configuration("LargeEUPS"),
            [specjbb()],
            [minutes(5)],
            num_servers=8,
        )
        assert report.ties == len(report.cells)

    def test_runtime_vs_power_trade(self):
        """The paper's SmallP-LargeEUPS vs NoDG comparison: same cost, the
        runtime-heavy design wins the medium outages."""
        report = compare_configurations(
            get_configuration("SmallP-LargeEUPS"),
            get_configuration("NoDG"),
            [specjbb()],
            [30, minutes(30), hours(1)],
            num_servers=8,
        )
        assert report.cost_a == pytest.approx(report.cost_b, abs=0.005)
        by_duration = {cell.outage_seconds: cell for cell in report.cells}
        # Short outage: NoDG's full-power ride-through ("b") wins outright.
        assert by_duration[30].winner == "b"
        # Medium/long: the 62-minute runtime ("a") wins.
        assert by_duration[minutes(30)].winner == "a"
        assert by_duration[hours(1)].winner == "a"

    def test_rendered_and_verdict(self):
        report = compare_configurations(
            get_configuration("LargeEUPS"),
            get_configuration("NoDG"),
            [specjbb(), websearch()],
            [minutes(30)],
            num_servers=8,
        )
        text = report.rendered()
        assert "LargeEUPS" in text and "NoDG" in text
        assert "winner" in text
        assert "cheaper" in report.verdict()
        assert report.wins_a + report.wins_b + report.ties == len(report.cells)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_configurations(
                get_configuration("MaxPerf"),
                get_configuration("MinCost"),
                [],
                [30],
            )


class TestCheckpointedSpecCPU:
    def test_checkpointing_caps_recompute(self):
        from repro.workloads.speccpu import speccpu_mcf

        raw = speccpu_mcf(job_length_seconds=hours(2))
        checkpointed = speccpu_mcf(
            job_length_seconds=hours(2), checkpoint_interval_seconds=minutes(10)
        )
        assert raw.recovery.recompute_horizon_seconds == hours(2)
        assert checkpointed.recovery.recompute_horizon_seconds == minutes(10)

    def test_checkpointing_collapses_mincost_range(self):
        from repro.core.configurations import get_configuration
        from repro.core.performability import evaluate_point
        from repro.techniques.registry import get_technique
        from repro.workloads.speccpu import speccpu_mcf

        raw = speccpu_mcf()
        checkpointed = speccpu_mcf(checkpoint_interval_seconds=minutes(10))
        config = get_configuration("MinCost")
        tech = get_technique("full-service")
        worst_raw = evaluate_point(
            config, tech, raw, 30,
            lost_work_seconds=raw.recovery.recompute_horizon_seconds,
        )
        worst_ckpt = evaluate_point(
            config, tech, checkpointed, 30,
            lost_work_seconds=checkpointed.recovery.recompute_horizon_seconds,
        )
        assert worst_ckpt.downtime_seconds < 0.2 * worst_raw.downtime_seconds

    def test_invalid_interval_rejected(self):
        from repro.workloads.speccpu import speccpu_mcf

        with pytest.raises(ValueError):
            speccpu_mcf(checkpoint_interval_seconds=0)
