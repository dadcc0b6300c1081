"""Year-block batching: bit-identical to scalar years at any block size."""

import numpy as np
import pytest

from repro.analysis.availability import AvailabilityAnalyzer, _simulate_year
from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.errors import SimulationError
from repro.runner.jobs import spawn_seeds
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import hours
from repro.vsim.yearly import simulate_year_block, year_block_specs
from repro.workloads.registry import get_workload


def study(config_name="DG-SmallPUPS", technique_name="sleep-l"):
    workload = get_workload("specjbb")
    datacenter = make_datacenter(workload, get_configuration(config_name))
    plan = get_technique(technique_name).compile_plan(
        TechniqueContext(
            cluster=datacenter.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(datacenter),
        )
    )
    return datacenter, plan


class TestYearBlock:
    @pytest.mark.parametrize(
        "config,technique",
        [
            ("DG-SmallPUPS", "sleep-l"),
            ("SmallPUPS", "throttle+sleep-l"),
            ("NoUPS", "migration"),
        ],
    )
    def test_matches_scalar_years(self, config, technique):
        datacenter, plan = study(config, technique)
        years, base_seed = 8, 11
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
        }
        seeds = np.random.SeedSequence(base_seed).spawn(years)
        scalar = [_simulate_year(spec, s) for s in seeds]
        batch = simulate_year_block(
            {
                **spec,
                "base_seed": base_seed,
                "start": 0,
                "count": years,
                "total_years": years,
            }
        )
        assert scalar == batch  # dict equality is exact float equality

    @pytest.mark.parametrize("faults", [None, "dg_start=0.2,batt_fade=0.1"])
    def test_scalar_year_is_stateless_in_its_seed(self, faults):
        from repro.faults import FaultPlan

        datacenter, plan = study("DG-SmallPUPS", "sleep-l")
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
            "fault_plan": None if faults is None else FaultPlan.parse(faults),
        }
        seed = np.random.SeedSequence(21)
        assert _simulate_year(spec, seed) == _simulate_year(spec, seed)

    def test_late_block_of_a_long_study_matches_scalar_years(self):
        """Years 9990..9999 of a 10000-year study: the per-year seeds
        built from ``spawn_key`` are the runner's spawned children."""
        datacenter, plan = study("SmallPUPS", "throttle+sleep-l")
        spec = {"datacenter": datacenter, "plan": plan, "recharge_seconds": hours(8)}
        seeds = spawn_seeds(13, 10_000)[9990:]
        scalar = [_simulate_year(spec, s) for s in seeds]
        block = simulate_year_block(
            {**spec, "base_seed": 13, "start": 9990, "count": 10, "total_years": 10_000}
        )
        assert block == scalar

    def test_block_size_invariance(self):
        datacenter, plan = study()
        years, base_seed = 10, 3
        by_block = {}
        for block_years in (3, 10):
            out = []
            for spec in year_block_specs(
                datacenter, plan, hours(8), base_seed, years, block_years
            ):
                out.extend(simulate_year_block(spec))
            by_block[block_years] = out
        assert by_block[3] == by_block[10]

    def test_traced_block_samples_before_its_kernels(self):
        from repro import obs

        datacenter, plan = study()
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
            "base_seed": 3,
            "start": 0,
            "count": 6,
            "total_years": 6,
        }
        with obs.session() as session:
            traced = simulate_year_block(spec)
        assert traced == simulate_year_block(spec)
        records = session.tracer.records
        (block,) = [r for r in records if r["name"] == "year_block"]
        (sample,) = [r for r in records if r["name"] == "sample"]
        kernels = [r for r in records if r["name"] == "kernel"]
        assert kernels
        assert sample["parent_id"] == block["span_id"]
        assert all(k["parent_id"] == block["span_id"] for k in kernels)
        # Records land as spans finish: sampling is done before any kernel.
        assert all(records.index(sample) < records.index(k) for k in kernels)
        attrs = dict(sample["attrs"])
        assert 0 <= attrs.pop("scalar_years") <= 6
        assert attrs == {
            "years": 6,
            "outages": int(sum(y["outages"] for y in traced)),
        }

    def test_traced_block_counts_scalar_years(self):
        from repro import obs

        datacenter, plan = study()
        # Year 1820 of SeedSequence(0) draws a tail bucket whose
        # exponential leaves numpy's ziggurat fast path, which only the
        # scalar sampler draws (tests/outages/test_lane_sampler.py).
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
            "base_seed": 0,
            "start": 1820,
            "count": 1,
            "total_years": 1821,
        }
        with obs.session() as session:
            simulate_year_block(spec)
        (sample,) = [r for r in session.tracer.records if r["name"] == "sample"]
        assert sample["attrs"]["scalar_years"] >= 1

    def test_rejects_bad_block_range(self):
        datacenter, plan = study()
        with pytest.raises(SimulationError):
            simulate_year_block(
                {
                    "datacenter": datacenter,
                    "plan": plan,
                    "recharge_seconds": hours(8),
                    "base_seed": 0,
                    "start": 5,
                    "count": 3,
                    "total_years": 6,
                }
            )


def scalar_oracle_report(analyzer, config, technique, years, faults=None):
    """The report ``analyze`` must equal, reduced from scalar
    ``_simulate_year`` jobs over the runner's per-year seeds."""
    jobs, reduce = analyzer.prepare(config, technique, years=years, faults=faults)
    spec = {
        key: jobs[0].spec[key]
        for key in ("datacenter", "plan", "recharge_seconds", "fault_plan")
        if key in jobs[0].spec
    }
    scalar = [_simulate_year(spec, seed) for seed in spawn_seeds(analyzer.seed, years)]
    if faults is None:
        return reduce([scalar])  # one "block" holding every year
    return reduce(scalar)


class TestAnalyzerEngine:
    def test_batch_report_equals_scalar(self):
        """The production path across a block boundary (1000 + 1)."""
        analyzer = AvailabilityAnalyzer(get_workload("websearch"), seed=5)
        config = get_configuration("DG-SmallPUPS")
        technique = get_technique("sleep-l")
        jobs, _ = analyzer.prepare(config, technique, years=1001)
        assert [job.fn for job in jobs] == [simulate_year_block] * 2
        report = analyzer.analyze(config, technique, years=1001)
        assert report == scalar_oracle_report(analyzer, config, technique, 1001)

    def test_fault_studies_stay_scalar(self):
        from repro.faults import FaultPlan

        analyzer = AvailabilityAnalyzer(get_workload("websearch"), seed=5)
        config = get_configuration("DG-SmallPUPS")
        technique = get_technique("sleep-l")
        faults = FaultPlan.parse("dg_start=0.2")
        jobs, _ = analyzer.prepare(config, technique, years=5, faults=faults)
        assert [job.fn for job in jobs] == [_simulate_year] * 5
        report = analyzer.analyze(config, technique, years=5, faults=faults)
        assert report == scalar_oracle_report(
            analyzer, config, technique, 5, faults=faults
        )
