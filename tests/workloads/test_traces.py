"""The test-held load-shape and query-trace generators (``tests/workloads/traces.py``)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from tests.workloads.traces import DiurnalLoadModel, PoissonQueryTrace, constant_load


class TestConstantLoad:
    def test_flat(self):
        shape = constant_load(0.8)
        assert shape(0) == 0.8
        assert shape(86400) == 0.8

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            constant_load(-0.1)


class TestDiurnal:
    def test_peak_at_peak_hour(self):
        model = DiurnalLoadModel(base=0.4, amplitude=0.5, peak_hour=14)
        peak_load = model.load_at(14 * 3600)
        trough_load = model.load_at(2 * 3600)
        assert peak_load == pytest.approx(0.9, abs=1e-6)
        assert trough_load < peak_load

    def test_bounds(self):
        model = DiurnalLoadModel(base=0.4, amplitude=0.5)
        samples = model.samples(step_seconds=600)
        assert min(samples) >= 0.4 - 1e-9
        assert max(samples) <= 0.9 + 1e-9

    def test_samples_count(self):
        assert len(DiurnalLoadModel().samples(step_seconds=3600)) == 24

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DiurnalLoadModel(base=-1)
        with pytest.raises(WorkloadError):
            DiurnalLoadModel(peak_hour=25)
        with pytest.raises(WorkloadError):
            DiurnalLoadModel().samples(step_seconds=0)


class TestPoissonTrace:
    def test_reproducible(self):
        a = PoissonQueryTrace(rate_per_second=100, seed=7).arrivals(10)
        b = PoissonQueryTrace(rate_per_second=100, seed=7).arrivals(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = PoissonQueryTrace(rate_per_second=100, seed=1).arrivals(10)
        b = PoissonQueryTrace(rate_per_second=100, seed=2).arrivals(10)
        assert len(a) != len(b) or not np.array_equal(a, b)

    def test_rate_approximately_respected(self):
        arrivals = PoissonQueryTrace(rate_per_second=200, seed=0).arrivals(50)
        assert len(arrivals) == pytest.approx(10000, rel=0.05)

    def test_sorted_and_in_range(self):
        arrivals = PoissonQueryTrace(rate_per_second=50, seed=3).arrivals(20)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals.min() >= 0 and arrivals.max() < 20

    def test_interarrival_iter_sums_to_last_arrival(self):
        trace = PoissonQueryTrace(rate_per_second=20, seed=5)
        arrivals = trace.arrivals(10)
        gaps = list(trace.interarrival_iter(10))
        assert sum(gaps) == pytest.approx(float(arrivals[-1]))

    def test_delivered_fraction_capacity_limited(self):
        trace = PoissonQueryTrace(rate_per_second=100)
        assert trace.delivered_fraction(10, capacity_per_second=50) == 0.5
        assert trace.delivered_fraction(10, capacity_per_second=200) == 1.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PoissonQueryTrace(rate_per_second=0)
        with pytest.raises(WorkloadError):
            PoissonQueryTrace(rate_per_second=10).arrivals(-1)
        with pytest.raises(WorkloadError):
            PoissonQueryTrace(rate_per_second=10).delivered_fraction(1, -1)
