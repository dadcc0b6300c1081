"""The array year threading equals the events-based one it replaced.

:func:`repro.vsim.yearly.run_years` runs a block's outages in
recharge-dependency waves, one kernel call each, and folds and records
the results in event-position order; ``tests/sim/reference_yearly.py``
threads the same years one lane at a time in Python floats.  For any
ordered years — touching outages, empty years, failed DG starts,
recharge windows short enough to clamp — both return ``==`` per-year
dicts, the same per-outage performance and the same metrics.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configurations import get_configuration
from repro.core.performability import make_plant
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.outages.events import OutageEvent
from repro.techniques.registry import get_technique
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import run_years
from repro.workloads.registry import get_workload

from tests.sim.reference_yearly import reference_run_years

PLANTS = [
    ("specjbb", "DG-SmallPUPS", "sleep-l"),
    ("websearch", "SmallPUPS", "throttle+sleep-l"),
    ("memcached", "NoUPS", "migration"),
    ("specjbb", "LargeEUPS", "full-service"),
]


@functools.lru_cache(maxsize=None)
def kernel(index):
    workload, configuration, technique = PLANTS[index]
    datacenter, plan = make_plant(
        get_workload(workload),
        get_configuration(configuration),
        get_technique(technique),
        8,
    )
    return PlanKernel(datacenter, plan)


# (gap before the outage, duration): a zero gap makes touching outages.
outage = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4e4)),
    st.floats(min_value=1.0, max_value=2e4),
)
years_st = st.lists(st.lists(outage, max_size=5), min_size=1, max_size=8)


def build_years(raw, dg_seed):
    events_per_year = []
    for year in raw:
        events, cursor = [], 0.0
        for gap, duration in year:
            event = OutageEvent(start_seconds=cursor + gap, duration_seconds=duration)
            events.append(event)
            cursor = event.end_seconds
        events_per_year.append(events)
    rng = np.random.default_rng(dg_seed)
    dg_per_year = [(rng.random(len(e)) < 0.6).tolist() for e in events_per_year]
    return events_per_year, dg_per_year


def flat(events_per_year, dg_per_year):
    return (
        [e.start_seconds for year in events_per_year for e in year],
        [e.duration_seconds for year in events_per_year for e in year],
        [d for year in dg_per_year for d in year],
        [len(year) for year in events_per_year],
    )


class TestRunYearsMatchesReference:
    @given(
        plant=st.integers(0, len(PLANTS) - 1),
        raw=years_st,
        dg_seed=st.integers(0, 2**32 - 1),
        recharge=st.sampled_from([30.0, 900.0, 8 * 3600.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_years_performance_and_metrics(self, plant, raw, dg_seed, recharge):
        events_per_year, dg_per_year = build_years(raw, dg_seed)
        ours_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
        want, want_perf = reference_run_years(
            kernel(plant), events_per_year, dg_per_year, recharge, None, ref_metrics
        )
        got, got_perf = run_years(
            kernel(plant),
            *flat(events_per_year, dg_per_year),
            recharge,
            None,
            ours_metrics,
        )
        assert got == want
        assert got_perf.tolist() == [p for year in want_perf for p in year]
        assert ours_metrics.snapshot() == ref_metrics.snapshot()

    def test_overlapping_outages_rejected_by_both(self):
        events = [[OutageEvent(0.0, 100.0), OutageEvent(50.0, 10.0)]]
        dg = [[True, True]]
        with pytest.raises(SimulationError):
            reference_run_years(kernel(0), events, dg, 3600.0)
        with pytest.raises(SimulationError):
            run_years(kernel(0), *flat(events, dg), 3600.0)

    def test_counts_must_cover_the_arrays(self):
        with pytest.raises(SimulationError):
            run_years(kernel(0), [0.0, 10.0], [5.0, 5.0], [True, True], [1], 3600.0)
