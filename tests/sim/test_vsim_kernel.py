"""Batch kernel: single-outage equivalence, outcome API, input validation."""

import numpy as np
import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.errors import SimulationError
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.vsim.equivalence import certify_grid, compare_cell
from repro.vsim.kernel import PlanKernel
from repro.workloads.registry import get_workload


def compiled(workload_name, config_name, technique_name):
    workload = get_workload(workload_name)
    datacenter = make_datacenter(workload, get_configuration(config_name))
    plan = get_technique(technique_name).compile_plan(
        TechniqueContext(
            cluster=datacenter.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(datacenter),
        )
    )
    return datacenter, plan


class TestEquivalence:
    @pytest.mark.parametrize(
        "config,technique",
        [
            ("MaxPerf", "full-service"),
            ("DG-SmallPUPS", "sleep-l"),
            ("SmallPUPS", "nvdimm"),
            ("LargeEUPS", "hibernate"),
            ("NoUPS", "migration"),
        ],
    )
    def test_cell_matches_scalar(self, config, technique):
        datacenter, plan = compiled("specjbb", config, technique)
        for duration, soc, dg in (
            (600.0, 1.0, True),
            (90.0, 0.35, True),
            (4 * 3600.0, 1.0, False),
        ):
            diffs = compare_cell(
                datacenter, plan, duration, initial_soc=soc, dg_starts=dg
            )
            assert not diffs, diffs

    def test_certify_small_grid(self):
        report = certify_grid(
            workloads=("websearch",),
            configurations=(
                get_configuration("DG-SmallPUPS"),
                get_configuration("SmallPUPS"),
            ),
            techniques=("full-service", "sleep-l", "throttle+hibernate"),
            durations=(90.0, 1800.0),
            socs=(1.0, 0.2),
        )
        assert report.ok, report.summary() + "".join(
            f"\n{m}" for m in report.mismatches[:5]
        )


class TestBatchOutcomes:
    def test_outcome_fields_and_downtime(self):
        datacenter, plan = compiled("specjbb", "DG-SmallPUPS", "sleep-l")
        kernel = PlanKernel(datacenter, plan)
        batch = kernel.run([600.0, 3600.0], collect_traces=True)
        assert len(batch) == 2
        total = batch.downtime_seconds
        for i in range(2):
            outcome = batch.outcome(i)
            assert outcome.outage_seconds in (600.0, 3600.0)
            assert total[i] == pytest.approx(outcome.downtime_seconds)
            assert outcome.trace.segments  # traces materialised

    def test_traces_require_collection(self):
        datacenter, plan = compiled("specjbb", "DG-SmallPUPS", "sleep-l")
        batch = PlanKernel(datacenter, plan).run([600.0])
        with pytest.raises(SimulationError):
            batch.trace_of(0)

    def test_scalar_broadcast(self):
        datacenter, plan = compiled("specjbb", "SmallPUPS", "sleep-l")
        kernel = PlanKernel(datacenter, plan)
        a = kernel.run([600.0, 600.0], initial_state_of_charge=0.5)
        b = kernel.run([600.0, 600.0], initial_state_of_charge=[0.5, 0.5])
        assert np.array_equal(a.downtime_seconds, b.downtime_seconds)
        assert np.array_equal(
            a.ups_state_of_charge_end, b.ups_state_of_charge_end
        )


class TestValidation:
    def setup_method(self):
        datacenter, plan = compiled("specjbb", "SmallPUPS", "sleep-l")
        self.kernel = PlanKernel(datacenter, plan)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(SimulationError):
            self.kernel.run([600.0, 0.0])

    def test_rejects_soc_out_of_range(self):
        with pytest.raises(SimulationError):
            self.kernel.run([600.0], initial_state_of_charge=[1.5])

    def test_rejects_nan_soc(self):
        # As the scalar battery's `0 <= soc <= 1` check does.
        with pytest.raises(SimulationError, match=r"must be in \[0, 1\]"):
            self.kernel.run([600.0], initial_state_of_charge=[float("nan")])

    def test_rejects_length_mismatch(self):
        with pytest.raises(SimulationError):
            self.kernel.run([600.0, 60.0, 30.0], dg_starts=[True, False])

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError):
            self.kernel.run([])
