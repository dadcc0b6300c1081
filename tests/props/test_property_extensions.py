"""Property-based tests for the extension substrates: server-level battery
banks, single-site geo-failover, and redundancy arithmetic."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.fleet.contingency import fail_over
from repro.fleet.failover import GeoFailoverTechnique, required_spare_fraction
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.power.battery import BatterySpec
from repro.power.placement import ServerLevelBatteryBank
from repro.power.redundancy import RedundancyScheme
from repro.units import minutes

unit_counts = st.integers(min_value=1, max_value=32)
loads = st.floats(min_value=1.0, max_value=250.0)
durations = st.floats(min_value=0.0, max_value=7200.0)


def bank(num_units=16, soc=1.0):
    return ServerLevelBatteryBank(
        BatterySpec(250.0, minutes(2)), num_units=num_units, state_of_charge=soc
    )


class TestBankProperties:
    @given(per_server=loads, duration=durations, n=unit_counts)
    @settings(max_examples=120)
    def test_soc_stays_in_unit_interval(self, per_server, duration, n):
        b = bank(num_units=n)
        b.discharge(per_server * n, duration, n)
        assert 0.0 <= b.active_state_of_charge <= 1.0
        assert 0.0 <= b.stranded_fraction <= 1.0

    @given(per_server=loads, duration=durations)
    @settings(max_examples=80)
    def test_full_fleet_matches_pooled_battery(self, per_server, duration):
        """With every server active at uniform load, private packs and one
        pooled string are electrically identical."""
        from repro.power.battery import Battery

        n = 16
        b = bank(num_units=n)
        pooled = Battery(BatterySpec(250.0 * n, minutes(2)))
        b.discharge(per_server * n, duration, n)
        pooled.discharge(per_server * n, duration)
        assert b.active_state_of_charge == pytest.approx(
            pooled.state_of_charge, abs=1e-9
        )

    @given(
        per_server=loads,
        duration=st.floats(min_value=1.0, max_value=100.0),
        shrink_to=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=80)
    def test_shrinking_monotonically_strands(self, per_server, duration, shrink_to):
        b = bank(num_units=16)
        b.discharge(per_server * 16, duration, 16)
        before = b.stranded_fraction
        b.discharge(min(per_server, 250.0) * shrink_to, 1.0, shrink_to)
        assert b.stranded_fraction >= before

    @given(per_server=loads)
    @settings(max_examples=60)
    def test_concentration_never_beats_pooling(self, per_server):
        """For any load on half the fleet, the pooled string lasts at least
        as long as private packs (Peukert convexity)."""
        n = 16
        active = 8
        total = per_server * active
        private = bank(num_units=n).remaining_runtime_at(total, active)
        pooled = BatterySpec(250.0 * n, minutes(2)).runtime_at(total)
        assert pooled >= private - 1e-9

    @given(soc=st.floats(min_value=0.01, max_value=1.0), per_server=loads)
    @settings(max_examples=60)
    def test_runtime_proportional_to_soc(self, soc, per_server):
        full = bank(soc=1.0).remaining_runtime_at(per_server * 16, 16)
        partial = bank(soc=soc).remaining_runtime_at(per_server * 16, 16)
        if math.isfinite(full):
            assert partial == pytest.approx(soc * full, rel=1e-9)


sites_strategy = st.lists(
    st.tuples(
        st.floats(min_value=10, max_value=500),  # capacity
        st.floats(min_value=0.0, max_value=1.0),  # utilisation
        st.floats(min_value=0.01, max_value=0.25),  # rtt
    ),
    min_size=2,
    max_size=6,
)


class TestGeoProperties:
    def _fleet(self, raw):
        sites = [
            SiteSpec(
                name=f"s{i}",
                capacity=capacity,
                load=capacity * utilisation,
                power_region=f"r{i}",
                rtt_seconds=rtt,
            )
            for i, (capacity, utilisation, rtt) in enumerate(raw)
        ]
        return FleetSpec(name="props", sites=tuple(sites))

    def _with_sites(self, fleet, change):
        return replace(
            fleet,
            sites=tuple(
                site if site.name == "s0" else change(site)
                for site in fleet.sites
            ),
        )

    @given(raw=sites_strategy)
    @settings(max_examples=100)
    def test_failover_invariants(self, raw):
        fleet = self._fleet(raw)
        outcome = fail_over(fleet, "s0")
        performance = GeoFailoverTechnique(fleet, "s0").performance
        assert 0.0 <= performance <= 1.0
        displaced = fleet.site("s0").load
        assert 0.0 <= outcome.absorbed_load <= displaced + 1e-9
        total_absorbed = sum(outcome.per_site_absorption.values())
        assert total_absorbed == pytest.approx(outcome.absorbed_load, abs=1e-6)
        assert "s0" not in outcome.per_site_absorption

    @given(raw=sites_strategy)
    @settings(max_examples=60)
    def test_more_spare_never_absorbs_less(self, raw):
        """Lightening the survivors never reduces ABSORBED load.  (It can
        reduce *performance* by shifting absorption toward higher-RTT spare
        — a genuine, latency-weighted behaviour of the model.)"""
        fleet = self._fleet(raw)
        base = fail_over(fleet, "s0").absorbed_load
        lighter = self._with_sites(
            fleet, lambda site: replace(site, load=site.load * 0.5)
        )
        assert fail_over(lighter, "s0").absorbed_load >= base - 1e-9

    @given(raw=sites_strategy)
    @settings(max_examples=60)
    def test_required_spare_fraction_suffices(self, raw):
        fleet = self._fleet(raw)
        fraction = required_spare_fraction(fleet, "s0")
        if math.isinf(fraction):
            return
        provisioned = self._with_sites(
            fleet,
            lambda site: site.with_spare_fraction(min(1.0, fraction + 1e-9)),
        )
        outcome = fail_over(provisioned, "s0")
        assert outcome.absorbed_load == pytest.approx(
            provisioned.site("s0").load, rel=1e-6
        )


class TestRedundancyProperties:
    @given(
        reliability=st.floats(min_value=0.0, max_value=1.0),
        needed=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100)
    def test_delivery_probability_ordering(self, reliability, needed):
        n = RedundancyScheme.N.delivery_probability(reliability, needed)
        n1 = RedundancyScheme.N_PLUS_1.delivery_probability(reliability, needed)
        n2 = RedundancyScheme.TWO_N.delivery_probability(reliability, needed)
        assert 0.0 <= n <= n1 + 1e-12
        assert n1 <= n2 + 1e-12
        assert n2 <= 1.0 + 1e-12

    @given(needed=st.integers(min_value=1, max_value=20))
    def test_capacity_multiplier_bounds(self, needed):
        assert RedundancyScheme.N.capacity_multiplier(needed) == 1.0
        n1 = RedundancyScheme.N_PLUS_1.capacity_multiplier(needed)
        assert 1.0 < n1 <= 2.0
        assert RedundancyScheme.TWO_N.capacity_multiplier(needed) == 2.0
