"""Section 7 extensions: NVDIMM, RDMA-over-sleep, heterogeneous planning,
battery recharge between outages, and DG start reliability."""

import math

import pytest

from repro.analysis.availability import AvailabilityAnalyzer
from repro.core.configurations import BackupConfiguration, get_configuration
from repro.core.heterogeneous import (
    HeterogeneousPlanner,
    SectionRequirement,
)
from repro.core.performability import evaluate_point, make_datacenter
from repro.core.performability import plan_power_budget_watts
from repro.errors import ConfigurationError, TechniqueError
from repro.power.generator import DieselGeneratorSpec
from repro.sim.outage_sim import simulate_outage
from repro.techniques.base import TechniqueContext
from repro.techniques.nvdimm import NVDIMMPersistence
from repro.techniques.rdma_sleep import RDMASleep
from repro.techniques.registry import get_technique
from repro.units import gigabytes, hours, minutes
from repro.workloads.memcached import memcached
from repro.workloads.specjbb import specjbb
from repro.workloads.websearch import websearch


class TestNVDIMM:
    def test_zero_power_plan(self):
        dc = make_datacenter(specjbb(), get_configuration("MinCost"))
        context = TechniqueContext(cluster=dc.cluster, workload=specjbb())
        plan = NVDIMMPersistence().plan(context)
        assert all(phase.power_watts == 0.0 for phase in plan.phases)
        assert all(phase.state_safe for phase in plan.phases)

    def test_survives_with_no_backup(self):
        point = evaluate_point(
            get_configuration("MinCost"),
            get_technique("nvdimm"),
            specjbb(),
            minutes(30),
        )
        assert not point.crashed
        assert point.normalized_cost == 0.0

    def test_resume_is_seconds_not_minutes(self):
        dc = make_datacenter(specjbb(), get_configuration("MinCost"))
        context = TechniqueContext(cluster=dc.cluster, workload=specjbb())
        tech = NVDIMMPersistence()
        assert tech.restore_seconds(context) < 60
        assert tech.save_seconds(context) < 60

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(TechniqueError):
            NVDIMMPersistence(save_bandwidth_bytes_per_second=0)


class TestRDMASleep:
    def test_read_mostly_workload_gets_remote_service(self):
        point = evaluate_point(
            get_configuration("LargeEUPS"),
            get_technique("rdma-sleep"),
            websearch(),
            minutes(30),
        )
        assert not point.crashed
        assert 0.2 < point.performance < 0.4  # the remote fraction

    def test_barely_alive_draw_limits_small_packs(self):
        # ~15 W/server (vs sleep's 5 W) means the free 2-minute pack dies
        # just short of a 30-minute outage — the extra watts are not free.
        point = evaluate_point(
            get_configuration("SmallPUPS"),
            get_technique("rdma-sleep"),
            websearch(),
            minutes(30),
        )
        assert point.crashed
        assert point.outcome.crash_time_seconds > minutes(25)

    def test_write_heavy_workload_degrades_to_sleep(self):
        point = evaluate_point(
            get_configuration("SmallPUPS"),
            get_technique("rdma-sleep"),
            specjbb(),
            minutes(30),
        )
        assert point.performance == 0.0

    def test_draws_more_than_plain_sleep_less_than_throttle(self):
        dc = make_datacenter(websearch(), get_configuration("SmallPUPS"))
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=websearch(),
            power_budget_watts=plan_power_budget_watts(dc),
        )
        rdma = RDMASleep().plan(context).terminal_phase.power_watts
        sleep = get_technique("sleep-l").plan(context).terminal_phase.power_watts
        throttle = get_technique("throttling").plan(context).peak_power_watts
        assert sleep < rdma < throttle

    def test_invalid_fraction_rejected(self):
        with pytest.raises(TechniqueError):
            RDMASleep(remote_service_fraction=1.5)


class TestHeterogeneousPlanner:
    def _requirements(self):
        return [
            SectionRequirement(
                websearch(), 0.4, min_performance=0.9, max_downtime_seconds=0.0
            ),
            SectionRequirement(
                memcached(), 0.3, min_performance=0.5, max_downtime_seconds=0.0
            ),
            SectionRequirement(
                specjbb(), 0.3, max_downtime_seconds=minutes(45)
            ),
        ]

    def test_tiering_beats_uniform(self):
        planner = HeterogeneousPlanner(minutes(30), num_servers=8)
        plan = planner.plan(self._requirements())
        assert plan.uniform_baseline_cost is not None
        assert plan.blended_cost < plan.uniform_baseline_cost
        assert plan.heterogeneity_savings > 0.1

    def test_assignments_meet_targets(self):
        planner = HeterogeneousPlanner(minutes(30), num_servers=8)
        plan = planner.plan(self._requirements())
        for assignment in plan.assignments:
            point = assignment.result.point
            req = assignment.requirement
            assert point.performance >= req.min_performance - 1e-9
            assert point.downtime_seconds <= req.max_downtime_seconds + 1e-9

    def test_fractions_must_sum_to_one(self):
        planner = HeterogeneousPlanner(minutes(30), num_servers=8)
        with pytest.raises(ConfigurationError):
            planner.plan(
                [SectionRequirement(specjbb(), 0.5, min_performance=0.0)]
            )

    def test_empty_requirements_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousPlanner(minutes(30)).plan([])

    def test_requirement_validation(self):
        with pytest.raises(ConfigurationError):
            SectionRequirement(specjbb(), 0.0)
        with pytest.raises(ConfigurationError):
            SectionRequirement(specjbb(), 0.5, min_performance=1.5)

    def test_nan_downtime_ceiling_rejected(self):
        with pytest.raises(ConfigurationError, match="max_downtime_seconds"):
            SectionRequirement(specjbb(), 1.0, max_downtime_seconds=math.nan)


class TestBatteryRechargeBetweenOutages:
    def test_partial_initial_charge_shortens_ride_through(self):
        dc = make_datacenter(specjbb(), get_configuration("NoDG"))
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=specjbb(),
            power_budget_watts=plan_power_budget_watts(dc),
        )
        plan = get_technique("full-service").plan(context)
        full = simulate_outage(dc, plan, minutes(10), initial_state_of_charge=1.0)
        half = simulate_outage(dc, plan, minutes(10), initial_state_of_charge=0.5)
        assert half.crash_time_seconds < full.crash_time_seconds

    def test_final_soc_reported(self):
        dc = make_datacenter(specjbb(), get_configuration("NoDG"))
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=specjbb(),
            power_budget_watts=plan_power_budget_watts(dc),
        )
        plan = get_technique("full-service").plan(context)
        outcome = simulate_outage(dc, plan, 60)
        assert 0.0 < outcome.ups_state_of_charge_end < 1.0
        assert outcome.ups_charge_consumed == pytest.approx(
            1.0 - outcome.ups_state_of_charge_end
        )

    def test_short_recharge_window_hurts_availability(self):
        # A pathologically slow recharge makes back-to-back outages bite.
        fast = AvailabilityAnalyzer(
            specjbb(), num_servers=8, seed=3, recharge_seconds=3600.0
        )
        slow = AvailabilityAnalyzer(
            specjbb(), num_servers=8, seed=3, recharge_seconds=30 * 24 * 3600.0
        )
        config = get_configuration("LargeEUPS")
        tech = get_technique("throttle+sleep-l")
        fast_report = fast.analyze(config, tech, years=40)
        slow_report = slow.analyze(config, tech, years=40)
        assert (
            slow_report.mean_downtime_minutes_per_year
            >= fast_report.mean_downtime_minutes_per_year
        )

    def test_invalid_recharge_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityAnalyzer(specjbb(), recharge_seconds=0)


class TestDGStartReliability:
    def test_failed_start_behaves_like_no_dg(self):
        dc = make_datacenter(specjbb(), get_configuration("MaxPerf"))
        context = TechniqueContext(
            cluster=dc.cluster,
            workload=specjbb(),
            power_budget_watts=plan_power_budget_watts(dc),
        )
        plan = get_technique("full-service").plan(context)
        started = simulate_outage(dc, plan, minutes(30), dg_starts=True)
        failed = simulate_outage(dc, plan, minutes(30), dg_starts=False)
        assert not started.crashed
        assert failed.crashed  # battery alone cannot ride 30 min at full load
        assert failed.dg_energy_joules == 0.0

    def test_reliability_field_validated(self):
        with pytest.raises(ConfigurationError):
            DieselGeneratorSpec(power_capacity_watts=100, start_reliability=1.5)

    def test_unreliable_dg_hurts_maxperf_availability(self):
        flaky_config = BackupConfiguration(
            "flaky-maxperf", 1.0, 1.0, minutes(2)
        )
        # Patch reliability through a custom datacenter: rebuild via spec.
        reliable = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=5)
        report_reliable = reliable.analyze(
            flaky_config, get_technique("full-service"), years=60
        )

        # Same study with an 80 %-reliable plant (exaggerated to make the
        # effect visible in 60 years).
        import repro.core.performability as perf_mod

        original = perf_mod.make_datacenter

        def flaky_make(workload, configuration, num_servers=8, server=None):
            from repro.servers.server import PAPER_SERVER

            dc = original(
                workload,
                configuration,
                num_servers,
                server if server is not None else PAPER_SERVER,
            )
            from dataclasses import replace

            return replace(
                dc, generator=replace(dc.generator, start_reliability=0.8)
            )

        # The analyzer builds its datacenter through make_plant, which
        # looks make_datacenter up in its own module.
        perf_mod.make_datacenter = flaky_make
        try:
            flaky = AvailabilityAnalyzer(specjbb(), num_servers=8, seed=5)
            report_flaky = flaky.analyze(
                flaky_config, get_technique("full-service"), years=60
            )
        finally:
            perf_mod.make_datacenter = original
        assert (
            report_flaky.mean_downtime_minutes_per_year
            > report_reliable.mean_downtime_minutes_per_year
        )
        assert report_flaky.crash_fraction > 0


class TestWorkloadResizing:
    def test_with_memory_state_scales_proportional_fields(self):
        small = specjbb().with_memory_state(gigabytes(9))
        assert small.memory_state_bytes == gigabytes(9)
        assert small.hot_dirty_bytes == gigabytes(5)
        assert small.dirty_bytes_per_second == specjbb().dirty_bytes_per_second

    def test_hibernate_time_scales_with_size(self):
        base = specjbb()
        small = base.with_memory_state(gigabytes(9))
        assert small.hibernate_save_seconds() < base.hibernate_save_seconds()

    def test_image_override_scales(self):
        small = websearch().with_memory_state(gigabytes(20))
        assert small.effective_hibernate_image_bytes == gigabytes(2)
        assert small.dropped_cache_bytes == gigabytes(18)

    def test_reload_bytes_scale(self):
        small = memcached().with_memory_state(gigabytes(10))
        assert small.recovery.reload_bytes == gigabytes(10)

    def test_invalid_size_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            specjbb().with_memory_state(0)
