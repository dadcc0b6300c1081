"""SiteSpec geometry: construction guards and the spare-fraction knob."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import SiteSpec


def site(capacity, load, **kwargs):
    return SiteSpec(name="a", capacity=capacity, load=load, **kwargs)


class TestSiteValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            site(capacity=0.0, load=0.0)
        with pytest.raises(ConfigurationError):
            site(capacity=-1.0, load=0.0)

    def test_load_bounded_by_capacity(self):
        with pytest.raises(ConfigurationError):
            site(capacity=10.0, load=10.5)
        with pytest.raises(ConfigurationError):
            site(capacity=10.0, load=-0.1)
        # boundary values are legal
        assert site(capacity=10.0, load=10.0).spare_capacity == 0.0
        assert site(capacity=10.0, load=0.0).spare_capacity == 10.0

    def test_rtt_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            site(capacity=1.0, load=0.5, rtt_seconds=-0.01)


class TestSiteGeometry:
    def test_spare_and_utilization(self):
        assert site(capacity=100.0, load=60.0).spare_capacity == pytest.approx(
            40.0
        )

    def test_with_spare_fraction(self):
        moved = site(capacity=100.0, load=90.0, power_region="pjm")
        moved = moved.with_spare_fraction(0.25)
        assert moved.load == pytest.approx(75.0)
        assert moved.spare_capacity == pytest.approx(25.0)
        assert moved.power_region == "pjm"

    def test_with_spare_fraction_bounds(self):
        original = site(capacity=100.0, load=90.0)
        with pytest.raises(ConfigurationError):
            original.with_spare_fraction(1.5)
        with pytest.raises(ConfigurationError):
            original.with_spare_fraction(-0.1)
        assert original.with_spare_fraction(1.0).load == 0.0
        assert original.with_spare_fraction(0.0).load == pytest.approx(100.0)
        assert original.load == 90.0  # frozen original untouched
