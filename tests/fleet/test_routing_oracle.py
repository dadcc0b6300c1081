"""Oracles for the array router.

:func:`route_fleet_routings` (and its one-routing and one-year calls,
:func:`route_fleet_years` and :func:`route_fleet_year`) prices every
elementary interval of many fleet years in one numpy pass, for any
sequence of routing flags.  These tests hold it to independent forms of
the same integral:

* the per-interval scalar loop (``tests/fleet/reference.py``), with
  ``==`` on every total, for every flag order, and on the float edges
  of the interval merge (one-ULP intervals, a window starting on a
  midpoint, windowless sites, windows past the horizon);
* a sampled integral: :func:`serve_instant` evaluated at several instants
  inside each elementary interval, summed exactly with ``math.fsum``,
  within 1e-9 relative;
* properties of the failover model: served <= demand, routing never
  serves less, scaling every site's spare capacity up never places
  less failover load, and -- when every site has one RTT -- never
  serves less.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet.routing import (
    OutageWindow,
    SiteState,
    SiteTimeline,
    SiteWindows,
    _window_index,
    route_fleet_routings,
    route_fleet_year,
    route_fleet_years,
    serve_instant,
)

from tests.fleet.reference import (
    breakpoints,
    reference_route_fleet_year,
    state_at,
)

HORIZON = 1000.0

#: A coarse grid of instants (past the horizon too), so windows of
#: different sites share breakpoints and windows cross the horizon.
instants = st.sampled_from([25.0 * k for k in range(49)])
levels = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def site_windows(draw):
    points = sorted(draw(st.sets(instants, max_size=8)))
    # step 1 chains touching windows, step 2 leaves gaps between them.
    step = draw(st.sampled_from([1, 2]))
    return tuple(
        OutageWindow(
            start_seconds=points[j],
            end_seconds=points[j + 1],
            performance=draw(levels),
        )
        for j in range(0, len(points) - 1, step)
    )


@st.composite
def fleets(draw):
    count = draw(st.integers(2, 4))
    timelines = []
    for i in range(count):
        load = draw(st.floats(0.0, 1.0))
        timelines.append(
            SiteTimeline(
                name=f"s{i}",
                capacity=load + draw(st.floats(0.0, 1.0)) + 1e-6,
                load=load,
                # four regions over up to four sites: some share one.
                power_region=draw(st.sampled_from(["a", "b", "c", "d"])),
                rtt_seconds=draw(st.sampled_from([0.0, 0.04, 0.05, 0.12])),
                windows=draw(site_windows()),
            )
        )
    return timelines


redirects = st.sampled_from([0.0, 25.0, 37.5, 90.0])


@st.composite
def instant_states(draw):
    """One fleet instant: 2-5 sites, any of them dark past the redirect."""
    states = []
    for i in range(draw(st.integers(2, 5))):
        load = draw(st.floats(0.0, 1.0))
        states.append(
            SiteState(
                name=f"s{i}",
                capacity=load + draw(st.floats(0.0, 1.0)) + 1e-6,
                load=load,
                power_region=draw(st.sampled_from(["a", "b", "c", "d"])),
                rtt_seconds=draw(st.sampled_from([0.0, 0.04, 0.05, 0.12])),
                performance=draw(levels),
                in_outage=draw(st.booleans()),
            )
        )
    return states


def with_spare_scaled(sites, factor):
    """Every site's spare capacity (capacity - load) times ``factor``."""
    return [
        replace(s, capacity=s.load + (s.capacity - s.load) * factor)
        for s in sites
    ]


class TestAgainstScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(fleets(), redirects, st.booleans())
    def test_array_router_equals_scalar_loop(self, timelines, redirect, routing):
        assert route_fleet_year(
            timelines, HORIZON, redirect, routing=routing
        ) == reference_route_fleet_year(
            timelines, HORIZON, redirect, routing=routing
        )

    def test_host_spares_add_in_fleet_order(self):
        """Three hosts whose spares round differently summed backwards:
        (0.28 + 0.1) + 0.33 != (0.33 + 0.1) + 0.28."""
        dark = OutageWindow(start_seconds=100.0, end_seconds=300.0,
                            performance=0.0)
        timelines = [SiteTimeline("src", 1.0, 0.9, "a", 0.05, (dark,))] + [
            SiteTimeline(f"h{i}", spare, 0.0, f"r{i}", 0.05, ())
            for i, spare in enumerate((0.28, 0.1, 0.33))
        ]
        assert route_fleet_year(
            timelines, HORIZON, 25.0
        ) == reference_route_fleet_year(timelines, HORIZON, 25.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fleets(), min_size=1, max_size=4), redirects, st.booleans())
    def test_many_years_at_once_equal_each_year_alone(
        self, years, redirect, routing
    ):
        sites, per_year = same_sites(years)
        batch = route_fleet_years(
            sites, site_windows_of(per_year), len(years), HORIZON, redirect,
            routing=routing,
        )
        assert batch == [
            reference_route_fleet_year(year, HORIZON, redirect, routing=routing)
            for year in per_year
        ]


def same_sites(years):
    """Every year on the first year's sites, each with its own windows."""
    sites = years[0]
    per_year = [
        [
            replace(s, windows=(year[i].windows if i < len(year) else ()))
            for i, s in enumerate(sites)
        ]
        for year in years
    ]
    return sites, per_year


def site_windows_of(per_year):
    """Each site's windows over every year, as the array router's input."""
    windows = []
    for i in range(len(per_year[0])):
        rows = [(y, w) for y, year in enumerate(per_year) for w in year[i].windows]
        windows.append(
            SiteWindows(
                year=np.array([y for y, _ in rows], dtype=np.int64),
                start=np.array([w.start_seconds for _, w in rows], dtype=float),
                end=np.array([w.end_seconds for _, w in rows], dtype=float),
                performance=np.array(
                    [w.performance for _, w in rows], dtype=float
                ),
            )
        )
    return windows


FLAG_ORDERS = [(False, True), (True, False), (True,), (False,)]


def assert_routings_equal_reference(per_year, horizon, redirect):
    """Every flag order's totals ``==`` the scalar loop, year by year."""
    windows = site_windows_of(per_year)
    for routings in FLAG_ORDERS:
        batch = route_fleet_routings(
            per_year[0], windows, len(per_year), horizon, redirect, routings
        )
        assert batch == [
            [
                reference_route_fleet_year(year, horizon, redirect, routing)
                for year in per_year
            ]
            for routing in routings
        ], routings


def window(start, end, performance=0.0):
    return OutageWindow(start_seconds=start, end_seconds=end,
                        performance=performance)


def site(name, region, windows=(), load=0.6):
    return SiteTimeline(name, 1.0, load, region, 0.05, tuple(windows))


class TestRoutingsAgainstScalarReference:
    """All routings of one sample, routed in one call."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(fleets(), min_size=1, max_size=3), redirects)
    def test_every_flag_order_equals_scalar_loop(self, years, redirect):
        _, per_year = same_sites(years)
        assert_routings_equal_reference(per_year, HORIZON, redirect)

    def test_one_ulp_interval_whose_midpoint_is_its_end(self):
        """``(a + b) / 2`` rounds onto ``b`` when ``b = nextafter(a)`` has
        an even mantissa: the interval's midpoint is not inside the
        one-ULP window, so that site is up there."""
        a = float(np.nextafter(500.0, np.inf))
        b = float(np.nextafter(a, np.inf))
        assert (a + b) / 2.0 == b
        fleet = [
            site("x", "a", [window(100.0, a), window(a, b), window(b, 700.0)]),
            site("y", "b", [window(300.0, b, 0.5)]),
            site("z", "c"),
        ]
        assert_routings_equal_reference([fleet], HORIZON, 25.0)

    def test_window_starting_on_another_sites_midpoint(self):
        """Site ``y``'s window starts at ``b``, the midpoint of the
        one-ULP interval ``[a, b]`` that ``x``'s window end cuts: the
        window sorts ahead of the midpoint, so ``y`` is dark there."""
        a = float(np.nextafter(500.0, np.inf))
        b = float(np.nextafter(a, np.inf))
        fleet = [
            site("x", "a", [window(200.0, a)]),
            site("y", "b", [window(b, 800.0, 0.25)]),
            site("z", "c"),
        ]
        windows = site_windows_of([fleet])
        (index,) = _window_index(
            np.zeros(1, dtype=np.int64), np.array([b]), windows[1:2]
        )
        assert index.tolist() == [0]
        assert_routings_equal_reference([fleet], HORIZON, 0.0)
        assert_routings_equal_reference([fleet], HORIZON, 90.0)

    def test_sites_with_no_windows(self):
        dark = [window(100.0, 400.0, 0.1)]
        assert_routings_equal_reference(
            [
                [site("x", "a", dark), site("y", "b"), site("z", "c")],
                [site("x", "a"), site("y", "b"), site("z", "c")],
                [site("x", "a"), site("y", "b", dark), site("z", "c")],
            ],
            HORIZON,
            25.0,
        )

    def test_windows_that_cross_the_horizon(self):
        assert_routings_equal_reference(
            [
                [
                    site("x", "a", [window(900.0, 1200.0, 0.3)]),
                    site("y", "b", [window(950.0, 1000.0)]),
                    site("z", "a", [window(1100.0, 1300.0)]),
                ],
                [
                    site("x", "a", [window(0.0, 50.0), window(990.0, 2000.0)]),
                    site("y", "b", [window(999.0, 1001.0, 0.5)]),
                    site("z", "a"),
                ],
            ],
            HORIZON,
            25.0,
        )


def sampled_integral(timelines, redirect, routing):
    """Integrate serve_instant by sampling each elementary interval."""
    cuts = breakpoints(timelines, HORIZON, redirect)
    demand, served, remote = [], [], []
    for start, end in zip(cuts, cuts[1:]):
        dt = end - start
        samples = [
            serve_instant(
                [state_at(t, start + f * dt, redirect) for t in timelines],
                routing=routing,
            )
            for f in (0.01, 0.25, 0.5, 0.75, 0.99)
        ]
        # The state model is piecewise constant between breakpoints.
        assert len({s.served for s in samples}) == 1
        demand.append(samples[0].demand * dt)
        served.append(samples[0].served * dt)
        remote.append(samples[0].remote_served * dt)
    return math.fsum(demand), math.fsum(served), math.fsum(remote)


class TestSampledIntegral:
    @settings(max_examples=150, deadline=None)
    @given(fleets(), redirects, st.booleans())
    def test_router_matches_sampled_serve_instant(
        self, timelines, redirect, routing
    ):
        totals = route_fleet_year(timelines, HORIZON, redirect, routing=routing)
        demand, served, remote = sampled_integral(timelines, redirect, routing)
        assert totals["demand"] == pytest.approx(demand, rel=1e-9, abs=1e-9)
        assert totals["served"] == pytest.approx(served, rel=1e-9, abs=1e-9)
        assert totals["remote_served"] == pytest.approx(
            remote, rel=1e-9, abs=1e-9
        )


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(fleets(), redirects, st.booleans())
    def test_served_never_exceeds_demand(self, timelines, redirect, routing):
        totals = route_fleet_year(timelines, HORIZON, redirect, routing=routing)
        assert totals["served"] <= totals["demand"] * (1 + 1e-12) + 1e-12
        assert 0.0 <= totals["remote_served"] <= totals["served"] + 1e-12
        assert totals["fully_served_seconds"] <= HORIZON

    @settings(max_examples=150, deadline=None)
    @given(fleets(), redirects)
    def test_routing_never_serves_less(self, timelines, redirect):
        routed = route_fleet_year(timelines, HORIZON, redirect, routing=True)
        solo = route_fleet_year(timelines, HORIZON, redirect, routing=False)
        assert routed["served"] >= solo["served"] * (1 - 1e-12)
        assert routed["demand"] == solo["demand"]

    @settings(max_examples=150, deadline=None)
    @given(fleets(), redirects, st.floats(1.0, 4.0), st.sampled_from(
        [0.0, 0.05, 0.12]))
    def test_served_monotone_in_survivor_spare(
        self, timelines, redirect, factor, rtt
    ):
        """Scaling every site's spare capacity by one factor >= 1, with
        every site at the same RTT, never serves less.

        Not with mixed RTTs (see ``test_uniform_spare_can_serve_less_on_
        latency`` below), and not per site: one survivor's extra spare
        draws a larger share of the failover load and can push it past
        the degraded threshold, so a single-site bump may serve less.
        """
        timelines = [replace(t, rtt_seconds=rtt) for t in timelines]
        base = route_fleet_year(timelines, HORIZON, redirect)
        roomier = route_fleet_year(
            with_spare_scaled(timelines, factor), HORIZON, redirect
        )
        assert roomier["served"] >= base["served"] * (1 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(instant_states(), st.floats(1.0, 4.0))
    def test_absorbed_monotone_in_uniform_spare(self, states, factor):
        """Scaling every site's spare by one factor >= 1 never places
        less failover load, whatever the RTTs and dark sites."""
        base = serve_instant(states)
        roomier = serve_instant(with_spare_scaled(states, factor))
        assert roomier.absorbed_load >= base.absorbed_load * (1 - 1e-12) - 1e-12

    def test_uniform_spare_can_serve_less_on_latency(self):
        """Uniform spare scaling can serve less when RTTs differ.

        ``s1`` (region a) can only drain ``s0`` (region b); ``s2``
        (region c) drains ``s0`` and ``s3``.  ``s1`` runs first and takes
        a fixed 0.5 out of ``s0``, so doubling every spare raises
        ``s0``'s share of what is left, and more of ``s2``'s load lands
        on ``s0``, 40 ms further from ``s2``'s clients than ``s3``.  No
        site is degraded: the loss is latency alone.
        """
        def fleet(factor):
            return serve_instant(
                with_spare_scaled(
                    [
                        SiteState("s0", 1.75, 0.0, "b", 0.04),
                        SiteState("s1", 1.0, 0.5, "a", 0.04,
                                  performance=0.0, in_outage=True),
                        SiteState("s2", 1.0, 1.0, "c", 0.0,
                                  performance=0.0, in_outage=True),
                        SiteState("s3", 0.25, 0.0, "a", 0.0),
                    ],
                    factor,
                )
            )

        base, doubled = fleet(1.0), fleet(2.0)
        assert base.degraded_sites == doubled.degraded_sites == ()
        assert base.absorbed_load == pytest.approx(1.5)
        assert doubled.absorbed_load == pytest.approx(1.5)
        # s2's load on s0: 1.25/1.5 of it, then 3.0/3.5; each unit pays
        # latency_factor(0.0, 0.04) = 0.94.
        assert base.served == pytest.approx(0.5 + 1.0 - 0.06 * 1.25 / 1.5)
        assert doubled.served == pytest.approx(0.5 + 1.0 - 0.06 * 3.0 / 3.5)
        assert doubled.served < base.served


class TestOneYearCall:
    def test_windows_may_come_unsorted(self):
        a = OutageWindow(start_seconds=100.0, end_seconds=200.0, performance=0.0)
        b = OutageWindow(start_seconds=500.0, end_seconds=600.0, performance=0.5)

        def timeline(windows):
            return [
                SiteTimeline("x", 1.0, 0.6, "a", 0.05, windows),
                SiteTimeline("y", 1.0, 0.3, "b", 0.05, ()),
            ]

        assert route_fleet_year(
            timeline((b, a)), HORIZON, 90.0
        ) == route_fleet_year(timeline((a, b)), HORIZON, 90.0)

    def test_overlapping_windows_rejected(self):
        a = OutageWindow(start_seconds=100.0, end_seconds=300.0, performance=0.0)
        b = OutageWindow(start_seconds=200.0, end_seconds=400.0, performance=0.0)
        with pytest.raises(ConfigurationError):
            route_fleet_year(
                [SiteTimeline("x", 1.0, 0.6, "a", 0.05, (a, b))], HORIZON, 90.0
            )
