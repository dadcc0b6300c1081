"""Divergences found by the scalar↔batch differential campaign, pinned.

Each test is the minimal reproduction of a bug the vectorized-engine
certification surfaced; the fix lives in whichever engine was wrong and
both engines must agree here forever.
"""

import math
import signal

import pytest

from repro.core.configurations import BackupConfiguration
from repro.core.performability import make_datacenter
from repro.power.generator import DieselGeneratorSpec
from repro.power.placement import UPSPlacement
from repro.power.ups import UPSSpec
from repro.servers.cluster import Cluster
from repro.servers.server import PAPER_SERVER
from repro.sim.datacenter import Datacenter
from repro.sim.outage_sim import simulate_outage, solve_hold_time
from repro.techniques.base import OutagePlan, PlanPhase
from repro.units import minutes
from repro.vsim.equivalence import _field_diffs
from repro.vsim.kernel import PlanKernel
from repro.workloads.registry import get_workload


class _Deadline:
    """SIGALRM guard: a reintroduced infinite loop fails, not hangs."""

    def __init__(self, seconds: int):
        self.seconds = seconds

    def __enter__(self):
        def _expired(signum, frame):
            raise TimeoutError("simulation did not terminate")

        self._old = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(self.seconds)
        return self

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def both_engines(datacenter, plan, outage_seconds, **kwargs):
    scalar = simulate_outage(datacenter, plan, outage_seconds, **kwargs)
    batch = (
        PlanKernel(datacenter, plan)
        .run(
            [outage_seconds],
            initial_state_of_charge=[
                kwargs.get("initial_state_of_charge", 1.0)
            ],
            dg_starts=[kwargs.get("dg_starts", True)],
            collect_traces=True,
        )
        .outcome(0)
    )
    return scalar, batch


class TestDGArrivalPhaseBoundaryCoincidence:
    """The scalar dispatcher looped forever when an undersized DG's
    arrival instant coincided (within _EPS) with a phase boundary: the
    DG-arrival branch returned without consuming the boundary, every
    following segment was zero-length, and the loop never advanced.
    Fixed by falling through to the phase transition when the phase is
    spent; the batch kernel mirrors the same dispatch order."""

    def _scenario(self):
        workload = get_workload("specjbb")
        # DG at 20% of peak: started and arriving, but unable to carry
        # either full service or the plan's phases (dg_full stays False).
        config = BackupConfiguration(
            "reg-coincident",
            dg_power_fraction=0.2,
            ups_power_fraction=1.0,
            ups_runtime_seconds=minutes(30),
        )
        datacenter = make_datacenter(workload, config)
        transfer = datacenter.generator.transfer_complete_seconds
        power = datacenter.cluster.power_watts(
            utilization=workload.utilization
        )
        plan = OutagePlan(
            technique_name="reg-coincident",
            phases=(
                # Ends exactly at the DG arrival instant.
                PlanPhase(
                    name="bridge",
                    power_watts=power,
                    performance=1.0,
                    duration_seconds=transfer,
                ),
                PlanPhase(
                    name="parked",
                    power_watts=0.25 * power,
                    performance=0.3,
                    duration_seconds=math.inf,
                    state_safe=True,
                ),
            ),
        )
        assert datacenter.generator.power_capacity_watts < power
        return datacenter, plan, transfer

    def test_terminates_and_engines_agree(self):
        datacenter, plan, transfer = self._scenario()
        with _Deadline(30):
            scalar, batch = both_engines(datacenter, plan, 5 * transfer)
        diffs = _field_diffs(scalar, batch)
        assert not diffs, diffs
        # The boundary was actually consumed: the run reached the
        # terminal phase rather than dying at the coincidence instant.
        assert any(s.label == "parked" for s in scalar.trace.segments)

    def test_epsilon_perturbed_boundary(self):
        datacenter, plan, transfer = self._scenario()
        for duration in (5 * transfer - 1e-10, 5 * transfer + 1e-10):
            with _Deadline(30):
                scalar, batch = both_engines(datacenter, plan, duration)
            diffs = _field_diffs(scalar, batch)
            assert not diffs, diffs


class TestMonotoneActiveSetOverload:
    """Server-placed banks strand the charge of parked servers: the
    active set only shrinks.  A later phase that re-raises the per-unit
    load above a stranded bank's unit rating must read as an *empty*
    source (query returns 0 runtime), not raise CapacityError out of the
    simulator — and the batch kernel must agree on the resulting crash
    shape."""

    def _scenario(self):
        workload = get_workload("specjbb")
        cluster = Cluster(
            PAPER_SERVER, 16, utilization=workload.utilization
        )
        power = cluster.power_watts(utilization=workload.utilization)
        ups = UPSSpec(
            power_capacity_watts=power,
            rated_runtime_seconds=minutes(20),
            placement=UPSPlacement.SERVER,
        )
        datacenter = Datacenter.assemble(
            cluster=cluster,
            workload=workload,
            ups=ups,
            generator=DieselGeneratorSpec.none(),
        )
        plan = OutagePlan(
            technique_name="reg-monotone",
            phases=(
                # Park 12 of 16 servers: their battery charge strands.
                PlanPhase(
                    name="consolidated",
                    power_watts=0.2 * power,
                    performance=0.25,
                    duration_seconds=60.0,
                    active_servers=4,
                ),
                # Re-expand the draw: per-unit load on the 4 live banks
                # exceeds the unit rating (0.5 * power / 4 > power / 16).
                PlanPhase(
                    name="overreach",
                    power_watts=0.5 * power,
                    performance=0.6,
                    duration_seconds=math.inf,
                    active_servers=16,
                ),
            ),
        )
        return datacenter, plan

    def test_overload_query_is_empty_source_not_error(self):
        datacenter, plan = self._scenario()
        scalar, batch = both_engines(datacenter, plan, 600.0)
        diffs = _field_diffs(scalar, batch)
        assert not diffs, diffs
        assert scalar.crashed  # nothing can carry the overreach phase


class TestNaNBudgetAdaptiveHold:
    """A committed phase pairing an infinite drain rate (power over the
    string's rating) with a zero duration makes the committed-charge sum
    ``inf * 0 = nan``.  Python's ``max``/``min`` collapse the nan budget
    to a zero hold; numpy's propagate it.  The kernel replicates the
    scalar (Python) semantics — pinned here via the closed form and a
    full end-to-end plan."""

    def test_closed_form_collapses_nan_budget(self):
        hold = solve_hold_time(
            soc=1.0,
            rate_hold=1e-3,
            rate_save=1e-5,
            committed_soc=float("nan"),
            committed_time=0.0,
            remaining_window=7200.0,
        )
        assert hold == 0.0

    def test_engines_agree_on_nan_budget_plan(self):
        workload = get_workload("specjbb")
        config = BackupConfiguration(
            "reg-nan-budget",
            dg_power_fraction=0.0,
            ups_power_fraction=0.5,
            ups_runtime_seconds=minutes(10),
        )
        datacenter = make_datacenter(workload, config)
        capacity = datacenter.ups.power_capacity_watts
        plan = OutagePlan(
            technique_name="reg-nan-budget",
            phases=(
                PlanPhase(
                    name="sustain",
                    power_watts=0.8 * capacity,
                    performance=0.9,
                    duration_seconds=None,
                ),
                # Zero-length save phase drawing over the rating: its
                # drain rate is infinite, its charge share inf * 0 = nan.
                PlanPhase(
                    name="flush",
                    power_watts=2.0 * capacity,
                    performance=0.0,
                    duration_seconds=0.0,
                    committed=True,
                ),
                PlanPhase(
                    name="parked",
                    power_watts=0.0,
                    performance=0.0,
                    duration_seconds=math.inf,
                    state_safe=True,
                ),
            ),
        )
        with _Deadline(30):
            scalar, batch = both_engines(datacenter, plan, 3600.0)
        diffs = _field_diffs(scalar, batch)
        assert not diffs, diffs


class TestDowntimeRoundingResidue:
    """Segments tiling an outage exactly can sum a few ulps past it
    (8.333... + 18.888... > 27.222...), and ``window - covered`` turned
    that into -3.55e-15 s of down time.  A long enough MaxPerf /
    proactive-migration study then averaged to a negative down time and
    the TCO step refused it.  Both engines now clamp at 0.0."""

    OUTAGE_SECONDS = 27.22206033533946

    def test_trace_down_time_is_never_negative(self):
        from repro.sim.trace import PowerTrace

        end = self.OUTAGE_SECONDS
        split = 8.333333333333334
        assert split + (end - split) > end  # the residue this guards against
        trace = PowerTrace()
        trace.record(0.0, split, 1.0, 0.85, "ups", "a")
        trace.record(split, end, 1.0, 0.5555555555555556, "ups", "b")
        assert trace.zero_performance_seconds(0.0, end) == 0.0

    def test_engines_agree_on_zero_down_time(self):
        from repro.core.configurations import get_configuration
        from repro.core.performability import plan_power_budget_watts
        from repro.techniques.base import TechniqueContext
        from repro.techniques.registry import get_technique

        workload = get_workload("memcached")
        datacenter = make_datacenter(workload, get_configuration("MaxPerf"))
        plan = get_technique("proactive-migration").compile_plan(
            TechniqueContext(
                cluster=datacenter.cluster,
                workload=workload,
                power_budget_watts=plan_power_budget_watts(datacenter),
            )
        )
        scalar, batch = both_engines(datacenter, plan, self.OUTAGE_SECONDS)
        assert scalar.downtime_during_outage_seconds == 0.0
        assert not _field_diffs(scalar, batch)
