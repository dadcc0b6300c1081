"""fail_over on one dark site: spare-capacity and latency arithmetic."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.contingency import fail_over
from repro.fleet.failover import GeoFailoverTechnique, required_spare_fraction
from repro.fleet.routing import (
    LATENCY_PENALTY_PER_100MS,
    SURVIVOR_DEGRADED_FACTOR,
)
from repro.fleet.spec import DEFAULT_REDIRECT_SECONDS, FleetSpec, SiteSpec


def make_fleet(*sites, **kwargs):
    return FleetSpec(
        name="test",
        sites=tuple(
            SiteSpec(name=name, capacity=capacity, load=load, **site_kwargs)
            for name, capacity, load, site_kwargs in sites
        ),
        **kwargs,
    )


def fleet(**kwargs):
    return make_fleet(
        ("west", 100.0, 70.0, dict(power_region="wecc", rtt_seconds=0.05)),
        ("east", 100.0, 70.0, dict(power_region="pjm", rtt_seconds=0.05)),
        ("eu", 100.0, 70.0, dict(power_region="eu", rtt_seconds=0.15)),
        **kwargs,
    )


def performance(model, name):
    return GeoFailoverTechnique(model, name).performance


class TestConstruction:
    def test_needs_sites(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(name="empty", sites=())

    def test_unique_names(self):
        with pytest.raises(ConfigurationError):
            make_fleet(("a", 1.0, 0.5, {}), ("a", 1.0, 0.5, {}))

    def test_nonnegative_delays(self):
        with pytest.raises(ConfigurationError):
            fleet(redirect_seconds=-1.0)

    def test_unknown_site_lookup(self):
        with pytest.raises(ConfigurationError):
            fleet().site("nowhere")
        with pytest.raises(ConfigurationError):
            fail_over(fleet(), "nowhere")


class TestSurvivors:
    def test_same_region_excluded(self):
        model = make_fleet(
            ("a1", 100.0, 50.0, dict(power_region="ercot")),
            ("a2", 100.0, 50.0, dict(power_region="ercot")),
            ("b", 100.0, 50.0, dict(power_region="pjm")),
        )
        assert list(fail_over(model, "a1").per_site_absorption) == ["b"]


class TestFailOver:
    def test_proportional_spare_split(self):
        model = make_fleet(
            ("dark", 100.0, 60.0, dict(power_region="r0", rtt_seconds=0.05)),
            ("big", 100.0, 40.0, dict(power_region="r1", rtt_seconds=0.05)),
            ("small", 100.0, 80.0, dict(power_region="r2", rtt_seconds=0.05)),
        )
        outcome = fail_over(model, "dark")
        # spares are 60 and 20 -> displaced 60 fully absorbed 3:1, and
        # small ends exactly at (not past) the degraded threshold.
        assert outcome.absorbed_load == pytest.approx(60.0)
        assert outcome.per_site_absorption["big"] == pytest.approx(45.0)
        assert outcome.per_site_absorption["small"] == pytest.approx(15.0)
        assert outcome.degraded_sites == ()
        assert performance(model, "dark") == pytest.approx(1.0)
        assert model.redirect_seconds == DEFAULT_REDIRECT_SECONDS

    def test_capacity_shortfall_scales_performance(self):
        model = make_fleet(
            ("dark", 100.0, 80.0, dict(power_region="r0", rtt_seconds=0.05)),
            ("only", 100.0, 60.0, dict(power_region="r1", rtt_seconds=0.05)),
        )
        outcome = fail_over(model, "dark")
        assert outcome.absorbed_load == pytest.approx(40.0)
        # the host ends at utilization 1.0, so it serves degraded.
        assert outcome.degraded_sites == ("only",)
        assert performance(model, "dark") == pytest.approx(
            40.0 / 80.0 * SURVIVOR_DEGRADED_FACTOR
        )

    def test_latency_penalty_absorption_weighted(self):
        outcome = fail_over(fleet(), "west")
        # east (rtt 0.05, no extra) and eu (rtt 0.15, +100ms) take equal
        # shares, so the mean latency factor is 1 - 0.15 / 2 — compounded
        # with the capacity factor (60 spare for 70 displaced) and the
        # degraded factor (both survivors end at utilization 1.0).
        latency = 1.0 - LATENCY_PENALTY_PER_100MS * 0.5
        capacity = 60.0 / 70.0
        assert outcome.absorbed_load == pytest.approx(60.0)
        assert performance(fleet(), "west") == pytest.approx(
            capacity * latency * SURVIVOR_DEGRADED_FACTOR
        )

    def test_performance_clamped_at_one(self):
        # 53.3125 split 54:91 over two idle hosts: the shares sum to
        # 53.31250000000001, one rounding step past the displaced load.
        model = make_fleet(
            ("s0", 53.3125, 53.3125, dict(power_region="r0", rtt_seconds=0.25)),
            ("s1", 54.0, 0.0, dict(power_region="r1", rtt_seconds=0.25)),
            ("s2", 91.0, 0.0, dict(power_region="r2", rtt_seconds=0.25)),
        )
        assert fail_over(model, "s0").remote_served > 53.3125
        assert performance(model, "s0") == 1.0

    def test_no_survivors(self):
        model = make_fleet(
            ("a1", 100.0, 50.0, dict(power_region="ercot")),
            ("a2", 100.0, 50.0, dict(power_region="ercot")),
        )
        outcome = fail_over(model, "a1")
        assert outcome.absorbed_load == 0.0
        assert performance(model, "a1") == 0.0
        assert outcome.per_site_absorption == {}


class TestRequiredSpare:
    def test_uniform_fraction(self):
        # survivors hold 200 capacity for 70 displaced load, plus the
        # headroom below DEGRADED_UTILIZATION (0.95)
        assert required_spare_fraction(fleet(), "west") == pytest.approx(
            70.0 / 200.0 + 0.05
        )

    def test_infeasible_is_infinite(self):
        model = make_fleet(
            ("dark", 100.0, 90.0, dict(power_region="r0")),
            ("tiny", 50.0, 0.0, dict(power_region="r1")),
        )
        assert math.isinf(required_spare_fraction(model, "dark"))
