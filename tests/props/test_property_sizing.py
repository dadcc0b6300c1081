"""The three premises the lowest-cost UPS search is built on.

:func:`repro.core.selection.lowest_cost_backup` compiles a plan once per
UPS power fraction, answers runtime probes of plans with no adaptive
phase by ``runtime >= R*`` with ``R* = (1 - soc_end) * R`` from one
drain, and skips fractions whose cheapest runtime already costs too
much.  That is exact only if

* survival is monotone in rated runtime;
* for a plan with no adaptive phase, the charge a surviving outage uses
  scales as ``1 / R``, so ``(1 - soc_end) * R`` does not depend on R;
* normalized cost is non-decreasing in runtime at a fixed fraction,
  whatever the cost model's free runtime.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configurations import BackupConfiguration
from repro.core.costs import BackupCostModel, CostParameters
from repro.core.performability import make_datacenter
from repro.core.selection import _POWER_FRACTION_GRID, _compile_fraction
from repro.servers.server import PAPER_SERVER
from repro.sim.outage_sim import simulate_outage
from repro.techniques.registry import get_technique, technique_names
from repro.workloads.registry import get_workload, workload_names

SERVERS = 4

techniques = st.sampled_from(technique_names())
workloads = st.sampled_from(workload_names())
fractions = st.sampled_from(_POWER_FRACTION_GRID)
durations = st.floats(min_value=5.0, max_value=14400.0)
runtimes = st.floats(min_value=1.0, max_value=70000.0)


def _ups(fraction, runtime):
    return BackupConfiguration("probe", 0.0, fraction, runtime)


def _plan(technique, workload, fraction):
    """The plan at ``fraction``, or None when it overdraws the UPS (most
    low fractions: such draws end the example early rather than being
    filtered, which would trip Hypothesis's filter health check)."""
    _, plan = _compile_fraction(
        get_technique(technique),
        get_workload(workload),
        fraction,
        SERVERS,
        PAPER_SERVER,
        1.0,
    )
    return plan


def _outage(workload, fraction, runtime, plan, seconds):
    datacenter = make_datacenter(
        get_workload(workload), _ups(fraction, runtime), SERVERS, PAPER_SERVER
    )
    return simulate_outage(datacenter, plan, seconds)


@given(
    technique=techniques,
    workload=workloads,
    fraction=fractions,
    seconds=durations,
    shorter=runtimes,
    longer=runtimes,
)
@settings(max_examples=150, deadline=None)
def test_survival_is_monotone_in_runtime(
    technique, workload, fraction, seconds, shorter, longer
):
    shorter, longer = sorted((shorter, longer))
    plan = _plan(technique, workload, fraction)
    if plan is None:
        return
    if not _outage(workload, fraction, shorter, plan, seconds).crashed:
        assert not _outage(workload, fraction, longer, plan, seconds).crashed


@given(
    technique=techniques,
    workload=workloads,
    fraction=fractions,
    seconds=durations,
    first=st.floats(min_value=1.0, max_value=100.0),
    second=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=400, deadline=None)
def test_fixed_timeline_drain_scales_inversely_with_runtime(
    technique, workload, fraction, seconds, first, second
):
    """``first``/``second`` scale the runtime a 10^6 s drain says is
    needed, so both runs survive unless the premise is false."""
    plan = _plan(technique, workload, fraction)
    if plan is None or any(phase.is_adaptive for phase in plan.phases):
        return
    widest = 1e6
    drain = _outage(workload, fraction, widest, plan, seconds)
    if drain.crashed:
        return
    needed = (1.0 - drain.ups_state_of_charge_end) * widest
    for factor in (first, second):
        runtime = max(needed, 1.0) * factor * (1.0 + 1e-6)
        outcome = _outage(workload, fraction, runtime, plan, seconds)
        assert not outcome.crashed
        again = (1.0 - outcome.ups_state_of_charge_end) * runtime
        assert math.isclose(again, needed, rel_tol=1e-9, abs_tol=1e-9)


@given(
    fraction=st.floats(min_value=0.01, max_value=2.0),
    shorter=st.floats(min_value=0.0, max_value=70000.0),
    longer=st.floats(min_value=0.0, max_value=70000.0),
    free_runtime=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=7200.0)
    ),
)
@settings(max_examples=300, deadline=None)
def test_normalized_cost_is_monotone_in_runtime(
    fraction, shorter, longer, free_runtime
):
    shorter, longer = sorted((shorter, longer))
    model = (
        BackupCostModel()
        if free_runtime is None
        else BackupCostModel(CostParameters(free_runtime_seconds=free_runtime))
    )
    assert _ups(fraction, shorter).normalized_cost(model) <= _ups(
        fraction, longer
    ).normalized_cost(model)
