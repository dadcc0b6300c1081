"""Recharge-dependency waves equal the position-major threading, at the edges.

:func:`repro.vsim.yearly.run_years` runs every outage whose gap is at
least ``recharge_seconds`` (and every year's first) in one kernel call
from a full battery, and each deeper link of a short-gap chain in one
more call.  ``tests/sim/reference_yearly.py`` threads the same years one
event position at a time.  Each case here sits on an edge of that
scheme: a gap of exactly ``recharge_seconds`` (depth 0) and one ulp
under it (depth 1), chains several links deep between full recharges,
plants with no UPS (every end charge is 0) or no DG, and empty years.
Per-year dicts, per-outage performance and metrics snapshots must be
``==``; the ``battery.soc`` histogram's float sum holds the metrics to
the position-major observation order.
"""

import functools

import numpy as np
import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import make_plant
from repro.errors import SimulationError
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.outages.events import OutageEvent
from repro.techniques.registry import get_technique
from repro.units import hours
from repro.vsim.kernel import PlanKernel
from repro.vsim.yearly import run_years
from repro.workloads.registry import get_workload

from tests.props.test_property_run_years import flat
from tests.sim.reference_yearly import reference_run_years

RECHARGE = hours(8)
UNDER = float(np.nextafter(RECHARGE, 0.0))

PLANTS = {
    "ups+dg": ("specjbb", "DG-SmallPUPS", "sleep-l"),
    "no-ups": ("memcached", "NoUPS", "migration"),
    "no-dg": ("specjbb", "LargeEUPS", "full-service"),
    "no-dg-small": ("websearch", "SmallPUPS", "throttle+sleep-l"),
}


@functools.lru_cache(maxsize=None)
def kernel(name):
    workload, configuration, technique = PLANTS[name]
    datacenter, plan = make_plant(
        get_workload(workload),
        get_configuration(configuration),
        get_technique(technique),
        8,
    )
    return PlanKernel(datacenter, plan)


def build(years, dg_seed=0):
    """Years of ``(gap before the outage, duration)`` pairs as events; a
    year's first gap is measured from time 0.  Every gap must survive
    the float round trip, so a case tests the gap it names."""
    events_per_year = []
    for year in years:
        events, cursor = [], 0.0
        for gap, duration in year:
            event = OutageEvent(start_seconds=cursor + gap, duration_seconds=duration)
            assert event.start_seconds - cursor == gap
            events.append(event)
            cursor = event.end_seconds
        events_per_year.append(events)
    rng = np.random.default_rng(dg_seed)
    dg_per_year = [(rng.random(len(e)) < 0.7).tolist() for e in events_per_year]
    return events_per_year, dg_per_year


def assert_matches_reference(plant, years, dg_seed=0):
    """Run both threadings; return the traced waves as (depth, lanes)."""
    events_per_year, dg_per_year = build(years, dg_seed)
    ours, ref = MetricsRegistry(), MetricsRegistry()
    tracer = Tracer()
    want, want_perf = reference_run_years(
        kernel(plant), events_per_year, dg_per_year, RECHARGE, None, ref
    )
    got, got_perf = run_years(
        kernel(plant),
        *flat(events_per_year, dg_per_year),
        RECHARGE,
        tracer,
        ours,
    )
    assert got == want
    assert got_perf.tolist() == [p for year in want_perf for p in year]
    assert ours.snapshot() == ref.snapshot()
    return [
        (r["attrs"]["depth"], r["attrs"]["lanes"])
        for r in tracer.records
        if r["name"] == "kernel"
    ]


def chain_years(seed, count, gaps):
    """``count`` years of 1-6 outages, each gap drawn from ``gaps`` and
    each duration a whole number of seconds (so every time is exact)."""
    rng = np.random.default_rng(seed)
    return [
        [
            (float(rng.choice(gaps)), float(rng.integers(20, 2400)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        for _ in range(count)
    ]


class TestRechargeBoundary:
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_gap_of_exactly_the_recharge_time_restarts_full(self, plant):
        years = [
            [(0.0, 1800.0), (RECHARGE, 900.0), (RECHARGE, 60.0)],
            [(5.0, 3000.0), (RECHARGE, 2000.0)],
            [(RECHARGE, 400.0)],
        ]
        # Every gap is >= recharge_seconds: one wave, every outage in it.
        assert assert_matches_reference(plant, years) == [(0, 6)]

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_gap_one_ulp_short_chains_to_the_previous_outage(self, plant):
        # (A time near 1e5 s has no ulp as fine as UNDER's, so each
        # year holds one such gap, early.)
        years = [
            [(0.0, 1800.0), (UNDER, 900.0), (600.0, 60.0)],
            [(5.0, 3000.0), (UNDER, 2000.0)],
            [(RECHARGE, 400.0)],
        ]
        assert assert_matches_reference(plant, years) == [(0, 3), (1, 2), (2, 1)]

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_short_gap_from_a_drained_battery_starts_below_full(self, plant):
        # A 3000 s outage drains a UPS no DG relieves; after a gap one
        # ulp short the next starts just under full (1 - 2**-53 from 0).
        years = [[(0.0, 3000.0), (UNDER, 300.0)], [(0.0, 3000.0)]]
        assert assert_matches_reference(plant, years) == [(0, 2), (1, 1)]


class TestChains:
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deep_chains_between_full_recharges(self, plant, seed):
        gaps = [RECHARGE, 2 * RECHARGE, 0.0, 60.0, 1800.0, RECHARGE / 3]
        years = chain_years(seed, 24, gaps)
        waves = assert_matches_reference(plant, years, dg_seed=seed)
        assert len(waves) >= 4  # a chain at least three links deep
        assert [depth for depth, _ in waves] == list(range(len(waves)))
        assert sum(lanes for _, lanes in waves) == sum(map(len, years))

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_one_year_chain_then_full_recharge_then_chain(self, plant):
        # Depths 0 1 2 3 0 1 0 in one year: the waves visit its outages
        # out of event order, the per-year sums must not.
        year = [
            (0.0, 700.0), (60.0, 500.0), (0.0, 900.0), (1800.0, 300.0),
            (RECHARGE, 1200.0), (60.0, 2500.0), (2 * RECHARGE, 100.0),
        ]
        waves = assert_matches_reference(plant, [year, year[:2], []])
        assert waves == [(0, 4), (1, 3), (2, 1), (3, 1)]


class TestEmptyYears:
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_years_with_no_outages_between_busy_ones(self, plant):
        years = chain_years(7, 12, [RECHARGE, 0.0, 600.0])
        years[0:0] = [[]]
        years[5:5] = [[], []]
        years.append([])
        waves = assert_matches_reference(plant, years, dg_seed=7)
        assert sum(lanes for _, lanes in waves) == sum(map(len, years))

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    @pytest.mark.parametrize("count", [1, 5])
    def test_block_without_outages_makes_no_kernel_call(self, plant, count):
        assert assert_matches_reference(plant, [[]] * count) == []


class TestTracedWaves:
    def test_one_kernel_span_per_depth_level(self):
        events_per_year, dg_per_year = build(
            [
                [(0.0, 600.0), (60.0, 600.0), (60.0, 600.0), (RECHARGE, 60.0)],
                [(0.0, 900.0)],
                [],
                [(100.0, 50.0), (UNDER, 50.0)],
            ]
        )
        tracer = Tracer()
        run_years(
            kernel("ups+dg"),
            *flat(events_per_year, dg_per_year),
            RECHARGE,
            tracer,
        )
        kernels = [r for r in tracer.records if r["name"] == "kernel"]
        assert [r["cat"] for r in kernels] == ["vsim"] * 3
        assert [r["attrs"] for r in kernels] == [
            {"depth": 0, "lanes": 4},
            {"depth": 1, "lanes": 2},
            {"depth": 2, "lanes": 1},
        ]


class TestEndChargeCheck:
    def test_an_end_charge_outside_the_unit_interval_is_an_error(self, monkeypatch):
        # A NaN end charge would be refilled to 1.0 by a depth-0 start
        # where threading clamps it to 0.0: refuse it instead.
        broken = PlanKernel(*make_plant(
            get_workload("specjbb"),
            get_configuration("LargeEUPS"),
            get_technique("full-service"),
            8,
        ))
        run = broken.run

        def nan_charge(*args, **kwargs):
            batch = run(*args, **kwargs)
            batch.ups_state_of_charge_end[:] = np.nan
            return batch

        monkeypatch.setattr(broken, "run", nan_charge)
        events_per_year, dg_per_year = build([[(0.0, 600.0), (RECHARGE, 60.0)]])
        with pytest.raises(SimulationError, match=r"outside \[0, 1\]"):
            run_years(broken, *flat(events_per_year, dg_per_year), RECHARGE)
