"""PSU hold-up, and the test-held ATS and Figure 2 rack hierarchy.

:class:`PowerSupplySpec` is the production model.  The ATS and the rack
hierarchy live in ``tests/power/hierarchy.py``: no result uses them.
"""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.power.generator import DieselGeneratorSpec
from repro.power.psu import DEFAULT_HOLDUP_SECONDS, PowerSupplySpec
from repro.power.ups import OFFLINE_SWITCH_DELAY_SECONDS, UPSSpec
from repro.units import minutes
from tests.power.hierarchy import (
    AutomaticTransferSwitch,
    PowerHierarchy,
    RackPowerDomain,
)


class TestATS:
    def test_transfer_initiation_offset(self):
        ats = AutomaticTransferSwitch(detection_delay_seconds=2.0)
        assert ats.transfer_initiated_at(100.0) == 102.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            AutomaticTransferSwitch(detection_delay_seconds=-1)


class TestPSU:
    def test_default_holdup_at_least_30ms(self):
        assert DEFAULT_HOLDUP_SECONDS >= 0.030

    def test_covers_offline_ups_switch_delay(self):
        # Section 3: the PSU capacitance bridges the offline UPS detection gap.
        assert PowerSupplySpec().covers(OFFLINE_SWITCH_DELAY_SECONDS)

    def test_does_not_cover_dg_start(self):
        assert not PowerSupplySpec().covers(20.0)

    def test_negative_holdup_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSupplySpec(holdup_seconds=-0.1)


class TestHierarchy:
    def _hierarchy(self, num_racks=4, ups_fraction=1.0, dg_fraction=1.0):
        rack_peak = 4000.0
        ups = UPSSpec(power_capacity_watts=ups_fraction * rack_peak)
        dg = DieselGeneratorSpec(
            power_capacity_watts=dg_fraction * rack_peak * num_racks
        )
        return PowerHierarchy.homogeneous(
            num_racks=num_racks, rack_peak_watts=rack_peak,
            ups_per_rack=ups, generator=dg,
        )

    def test_facility_peak_sums_racks(self):
        assert self._hierarchy(num_racks=4).facility_peak_watts == 16000.0

    def test_total_ups_power_sums(self):
        h = self._hierarchy(num_racks=4, ups_fraction=0.5)
        assert h.total_ups_power_watts == 8000.0

    def test_aggregate_ups_preserves_runtime(self):
        h = self._hierarchy(num_racks=4)
        agg = h.aggregate_ups
        assert agg.power_capacity_watts == 16000.0
        assert agg.rated_runtime_seconds == minutes(2)

    def test_aggregate_energy_consistency(self):
        h = self._hierarchy(num_racks=3)
        assert h.total_ups_energy_joules == pytest.approx(
            h.aggregate_ups.rated_energy_joules
        )

    def test_aggregate_unprovisioned(self):
        h = PowerHierarchy.homogeneous(
            num_racks=2, rack_peak_watts=1000.0,
            ups_per_rack=UPSSpec.none(),
            generator=DieselGeneratorSpec.none(),
        )
        assert not h.aggregate_ups.is_provisioned

    def test_heterogeneous_sizing_rejected(self):
        racks = [
            RackPowerDomain(0, 1000.0, UPSSpec(1000.0)),
            RackPowerDomain(1, 1000.0, UPSSpec(500.0)),
        ]
        with pytest.raises(ConfigurationError):
            PowerHierarchy(
                generator=DieselGeneratorSpec.none(),
                ats=AutomaticTransferSwitch(),
                racks=racks,
            )

    def test_generator_coverage_check(self):
        h = self._hierarchy(dg_fraction=0.5)
        h.check_generator_covers(h.facility_peak_watts * 0.5)
        with pytest.raises(CapacityError):
            h.check_generator_covers(h.facility_peak_watts)

    def test_no_generator_coverage_raises(self):
        h = PowerHierarchy.homogeneous(
            num_racks=1, rack_peak_watts=1000.0,
            ups_per_rack=UPSSpec(1000.0),
            generator=DieselGeneratorSpec.none(),
        )
        with pytest.raises(CapacityError):
            h.check_generator_covers(100.0)

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerHierarchy(
                generator=DieselGeneratorSpec.none(),
                ats=AutomaticTransferSwitch(),
                racks=[],
            )

    def test_zero_racks_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerHierarchy.homogeneous(
                num_racks=0, rack_peak_watts=1000.0,
                ups_per_rack=UPSSpec(1000.0),
                generator=DieselGeneratorSpec.none(),
            )

    def test_rack_fraction(self):
        rack = RackPowerDomain(0, 2000.0, UPSSpec(1000.0))
        assert rack.ups_power_fraction == pytest.approx(0.5)
