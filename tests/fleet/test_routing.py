"""Routing layer: instant pricing and the yearly integral."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.routing import (
    DEGRADED_UTILIZATION,
    SURVIVOR_DEGRADED_FACTOR,
    OutageWindow,
    SiteState,
    SiteTimeline,
    latency_factor,
    route_fleet_year,
    serve_instant,
)


def state(name, load=0.6, capacity=1.0, region=None, rtt=0.05, **kwargs):
    return SiteState(
        name=name,
        capacity=capacity,
        load=load,
        power_region=region or name,
        rtt_seconds=rtt,
        **kwargs,
    )


class TestValidation:
    def test_window_needs_positive_length(self):
        with pytest.raises(ConfigurationError):
            OutageWindow(start_seconds=10.0, end_seconds=10.0, performance=1.0)

    def test_window_performance_bounded(self):
        with pytest.raises(ConfigurationError):
            OutageWindow(start_seconds=0.0, end_seconds=1.0, performance=1.1)


class TestLatencyFactor:
    def test_no_extra_rtt_no_penalty(self):
        assert latency_factor(0.05, 0.05) == 1.0
        assert latency_factor(0.09, 0.05) == 1.0  # closer host: no bonus

    def test_penalty_per_100ms(self):
        assert latency_factor(0.05, 0.15) == pytest.approx(0.85)
        assert latency_factor(0.05, 0.05 + 1.0) == 0.0  # floored at zero


class TestServeInstant:
    def test_all_up(self):
        instant = serve_instant([state("a"), state("b")])
        assert instant.demand == pytest.approx(1.2)
        assert instant.served == pytest.approx(1.2)
        assert instant.remote_served == 0.0
        assert instant.degraded_sites == ()

    def test_dark_site_fully_absorbed(self):
        instant = serve_instant(
            [
                state("dark", performance=0.0, in_outage=True),
                state("b"),
                state("c"),
            ]
        )
        # 0.6 displaced onto 0.4 + 0.4 spare
        assert instant.absorbed_load == pytest.approx(0.6)
        assert instant.served == pytest.approx(1.8)
        assert instant.per_site_absorption["b"] == pytest.approx(0.3)

    def test_redirect_window_blocks_routing(self):
        instant = serve_instant(
            [
                state("dark", performance=0.0, in_outage=True,
                      remote_ready=False),
                state("b"),
            ]
        )
        assert instant.absorbed_load == 0.0
        assert instant.served == pytest.approx(0.6)

    def test_routing_flag_off(self):
        instant = serve_instant(
            [
                state("dark", performance=0.0, in_outage=True),
                state("b"),
            ],
            routing=False,
        )
        assert instant.absorbed_load == 0.0
        assert instant.remote_served == 0.0

    def test_same_region_cannot_absorb(self):
        instant = serve_instant(
            [
                state("dark", region="ercot", performance=0.0, in_outage=True),
                state("neighbor", region="ercot"),
            ]
        )
        assert instant.absorbed_load == 0.0

    def test_degraded_survivor_factor(self):
        # one survivor with just enough spare: absorbing pushes it past
        # the degraded-utilization threshold.
        instant = serve_instant(
            [
                state("dark", load=0.4, performance=0.0, in_outage=True),
                state("b", load=0.6, capacity=1.0),
            ]
        )
        assert instant.degraded_sites == ("b",)
        assert (0.6 + instant.per_site_absorption["b"]) > (
            DEGRADED_UTILIZATION * 1.0
        )
        assert instant.remote_served == pytest.approx(
            0.4 * SURVIVOR_DEGRADED_FACTOR
        )

    def test_more_spare_on_one_survivor_can_serve_less(self):
        # Characterization of the degraded-host cliff (docs/FLEET.md §3):
        # served load is not monotone in one survivor's spare.  Raising
        # b's capacity gives it a 0.8 * 0.2/1.1 share of the failover,
        # which lifts it past DEGRADED_UTILIZATION, so everything it
        # absorbs drops to SURVIVOR_DEGRADED_FACTOR.
        def fleet(b_capacity):
            return serve_instant(
                [
                    state("a", load=0.8, performance=0.0, in_outage=True),
                    state("b", load=1.0, capacity=b_capacity),
                    state("c", load=0.1, capacity=1.0),
                ]
            )

        tight, roomier = fleet(1.0), fleet(1.2)
        assert tight.served == pytest.approx(1.9)
        assert tight.degraded_sites == ()
        share = 0.8 * 0.2 / 1.1
        assert roomier.per_site_absorption["b"] == pytest.approx(share)
        assert (1.0 + share) / 1.2 == pytest.approx(0.954, abs=1e-3)
        assert (1.0 + share) / 1.2 > DEGRADED_UTILIZATION
        assert roomier.degraded_sites == ("b",)
        assert roomier.served == pytest.approx(
            1.1 + share * SURVIVOR_DEGRADED_FACTOR + (0.8 - share)
        )
        assert roomier.served == pytest.approx(1.878, abs=1e-3)
        assert roomier.served < tight.served

    def test_partial_local_service_reduces_displacement(self):
        # a throttled site (perf 0.5) displaces only half its load
        instant = serve_instant(
            [
                state("dim", performance=0.5, in_outage=True),
                state("b"),
                state("c"),
            ]
        )
        assert instant.absorbed_load == pytest.approx(0.3)
        assert instant.served == pytest.approx(1.8)


class TestRouteFleetYear:
    def timeline(self, name, windows, region=None, load=0.6):
        return SiteTimeline(
            name=name,
            capacity=1.0,
            load=load,
            power_region=region or name,
            rtt_seconds=0.05,
            windows=tuple(windows),
        )

    def test_clean_year(self):
        totals = route_fleet_year(
            [self.timeline("a", []), self.timeline("b", [])],
            horizon_seconds=1000.0,
            redirect_seconds=90.0,
        )
        assert totals["demand"] == pytest.approx(1200.0)
        assert totals["served"] == pytest.approx(1200.0)
        assert totals["fully_served_seconds"] == pytest.approx(1000.0)
        assert totals["max_simultaneous_outages"] == 0.0

    def test_single_outage_redirect_transient(self):
        # a zero-performance 200s outage: the 90s redirect window is
        # unserved, the remaining 110s fails over completely (load 0.3
        # fits in the survivor's 0.7 spare without degrading it).
        window = OutageWindow(
            start_seconds=100.0, end_seconds=300.0, performance=0.0
        )
        totals = route_fleet_year(
            [
                self.timeline("a", [window], load=0.3),
                self.timeline("b", [], load=0.3),
            ],
            horizon_seconds=1000.0,
            redirect_seconds=90.0,
        )
        lost = 0.3 * 90.0
        assert totals["demand"] == pytest.approx(600.0)
        assert totals["served"] == pytest.approx(600.0 - lost)
        assert totals["remote_served"] == pytest.approx(0.3 * 110.0)
        assert totals["fully_served_seconds"] == pytest.approx(1000.0 - 90.0)

    def test_transient_with_scarce_spare_degrades_survivor(self):
        # at load 0.6 the survivor has only 0.4 spare: absorption is
        # capped, pushes utilization past the degraded threshold, and
        # the absorbed traffic is served at the degraded factor.
        window = OutageWindow(
            start_seconds=100.0, end_seconds=300.0, performance=0.0
        )
        totals = route_fleet_year(
            [self.timeline("a", [window]), self.timeline("b", [])],
            horizon_seconds=1000.0,
            redirect_seconds=90.0,
        )
        remote = 0.4 * SURVIVOR_DEGRADED_FACTOR * 110.0
        assert totals["remote_served"] == pytest.approx(remote)
        # redirect window loses 0.6*90; after redirect, 0.2 of a's load
        # never lands and absorption is degraded.
        lost = 0.6 * 90.0 + (0.6 * 110.0 - remote)
        assert totals["served"] == pytest.approx(1200.0 - lost)
        # never fully served during the outage: the survivor cannot
        # cover a's whole load.
        assert totals["fully_served_seconds"] == pytest.approx(800.0)

    def test_routing_off_loses_whole_outage(self):
        window = OutageWindow(
            start_seconds=100.0, end_seconds=300.0, performance=0.0
        )
        totals = route_fleet_year(
            [self.timeline("a", [window]), self.timeline("b", [])],
            horizon_seconds=1000.0,
            redirect_seconds=90.0,
            routing=False,
        )
        assert totals["served"] == pytest.approx(1200.0 - 0.6 * 200.0)
        assert totals["remote_served"] == 0.0

    def test_simultaneous_outage_accounting(self):
        w1 = OutageWindow(start_seconds=100.0, end_seconds=300.0,
                          performance=0.0)
        w2 = OutageWindow(start_seconds=200.0, end_seconds=400.0,
                          performance=0.0)
        totals = route_fleet_year(
            [
                self.timeline("a", [w1]),
                self.timeline("b", [w2]),
                self.timeline("c", []),
            ],
            horizon_seconds=1000.0,
            redirect_seconds=0.0,
        )
        assert totals["simultaneous_outage_seconds"] == pytest.approx(100.0)
        assert totals["max_simultaneous_outages"] == 2.0

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            route_fleet_year([], horizon_seconds=0.0, redirect_seconds=90.0)
