"""Fleet frontier: cells, jobs, reduction, and the domination verdict."""

import numpy as np
import pytest

from repro.errors import RunnerError
from repro.fleet.frontier import (
    fleet_cell,
    fleet_frontier,
    fleet_frontier_jobs,
    reduce_fleet_frontier,
)

YEARS = 3


def cell_spec(configuration="NoDG", routing=True, years=YEARS):
    return {
        "fleet": "us-triad",
        "configuration": configuration,
        "technique": "full-service",
        "routing": routing,
        "years": years,
    }


def record(configuration, routing, cost, performability):
    return {
        "fleet": "us-triad",
        "configuration": configuration,
        "technique": "full-service",
        "routing": routing,
        "years": YEARS,
        "normalized_cost": cost,
        "availability": performability,
        "performability": performability,
        "mean_unserved_seconds_per_year": 0.0,
        "multi_site_outage_probability": 0.0,
        "remote_served_fraction": 0.0,
    }


class TestFleetCell:
    def test_requires_seed(self):
        with pytest.raises(RunnerError):
            fleet_cell(cell_spec(), None)

    def test_record_shape_and_determinism(self):
        a = fleet_cell(cell_spec(), np.random.SeedSequence(4))
        b = fleet_cell(cell_spec(), np.random.SeedSequence(4))
        assert a == b
        assert a["configuration"] == "NoDG"
        assert a["routing"] is True
        assert 0.0 <= a["performability"] <= 1.0
        assert a["normalized_cost"] > 0

    def test_same_seed_object_replays_the_cell(self):
        seed = np.random.SeedSequence(4)
        assert fleet_cell(cell_spec(), seed) == fleet_cell(cell_spec(), seed)

    def test_routing_never_hurts(self):
        solo = fleet_cell(
            cell_spec(routing=False), np.random.SeedSequence(4)
        )
        routed = fleet_cell(
            cell_spec(routing=True), np.random.SeedSequence(4)
        )
        assert routed["performability"] >= solo["performability"]


class TestJobs:
    def test_two_cells_per_configuration(self):
        jobs = fleet_frontier_jobs(
            "us-triad", ["NoDG", "LargeEUPS"], years=YEARS, seed=0
        )
        assert len(jobs) == 4
        labels = [j.label for j in jobs]
        assert "fleet:us-triad/NoDG/solo" in labels
        assert "fleet:us-triad/NoDG/routed" in labels

    def test_seed_in_fingerprints(self):
        a = fleet_frontier_jobs("us-triad", ["NoDG"], years=YEARS, seed=0)
        b = fleet_frontier_jobs("us-triad", ["NoDG"], years=YEARS, seed=1)
        assert [j.fingerprint for j in a] != [j.fingerprint for j in b]

    def test_validation(self):
        with pytest.raises(RunnerError):
            fleet_frontier_jobs("us-triad", [], years=YEARS)
        with pytest.raises(RunnerError):
            fleet_frontier_jobs("us-triad", ["NoDG"], years=0)


class TestReduce:
    def test_empty_rejected(self):
        with pytest.raises(RunnerError):
            reduce_fleet_frontier([])

    def test_domination_verdict(self):
        records = [
            record("Expensive", False, 0.8, 0.995),
            record("Expensive", True, 0.8, 0.9999),
            record("Cheap", False, 0.3, 0.99),
            record("Cheap", True, 0.3, 0.999),
        ]
        payload = reduce_fleet_frontier(records)
        # routed Cheap (0.3, 0.999) dominates solo Expensive (0.8, 0.995)
        # which sits on the solo frontier -> verdict holds
        assert payload["fleet_dominates_single_site"] is True
        savings = [
            d["cost_saving"]
            for d in payload["dominations"]
            if d["single_site_on_frontier"] and d["cost_saving"] > 0
        ]
        assert pytest.approx(0.5) in savings

    def test_no_verdict_when_routing_only_ties_cost(self):
        records = [
            record("Only", False, 0.5, 0.99),
            record("Only", True, 0.5, 0.999),
        ]
        payload = reduce_fleet_frontier(records)
        # domination exists but saves nothing -> no headline verdict
        assert payload["dominations"]
        assert payload["fleet_dominates_single_site"] is False

    def test_single_site_frontier_only_unrouted(self):
        records = [
            record("A", False, 0.5, 0.99),
            record("A", True, 0.5, 0.999),
            record("B", False, 0.2, 0.98),
            record("B", True, 0.2, 0.998),
        ]
        payload = reduce_fleet_frontier(records)
        assert {
            p["configuration"] for p in payload["single_site_frontier"]
        } == {"A", "B"}


class TestEndToEnd:
    def test_worker_count_invariance(self):
        kwargs = dict(
            configuration_names=["NoDG"], years=YEARS, seed=5
        )
        serial = fleet_frontier("us-triad", jobs=1, **kwargs)
        pooled = fleet_frontier("us-triad", jobs=2, **kwargs)
        assert serial == pooled
