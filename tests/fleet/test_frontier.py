"""Fleet frontier: cell pairs, jobs, reduction, and the domination verdict."""

import numpy as np
import pytest

from repro.core.configurations import configuration_names
from repro.errors import RunnerError
from repro.fleet.frontier import (
    fleet_cell_pair,
    fleet_frontier,
    fleet_frontier_jobs,
    reduce_fleet_frontier,
)
from repro.fleet.sim import reduce_fleet_years, simulate_fleet_years
from repro.fleet.spec import DEFAULT_FLEET, fleet_names, get_fleet
from repro.runner.jobs import child_seed, spawn_seeds

YEARS = 3

#: The record fields a cell copies from its fleet report.
SCORES = (
    "availability",
    "performability",
    "mean_unserved_seconds_per_year",
    "multi_site_outage_probability",
    "remote_served_fraction",
)


def cell_spec(configuration="NoDG", years=YEARS, fleet="us-triad"):
    return {
        "fleet": fleet,
        "configuration": configuration,
        "technique": "full-service",
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
            fleet_cell_pair(cell_spec(), None)

    def test_record_shape_and_determinism(self):
        a = fleet_cell_pair(cell_spec(), np.random.SeedSequence(4))
        b = fleet_cell_pair(cell_spec(), np.random.SeedSequence(4))
        assert a == b
        assert [record["routing"] for record in a] == [False, True]
        for record in a:
            assert record["configuration"] == "NoDG"
            assert record["years"] == YEARS
            assert 0.0 <= record["performability"] <= 1.0
            assert record["normalized_cost"] > 0
        assert a[0]["remote_served_fraction"] == 0.0

    def test_same_seed_object_replays_the_cell(self):
        seed = np.random.SeedSequence(4)
        assert fleet_cell_pair(cell_spec(), seed) == fleet_cell_pair(
            cell_spec(), seed
        )

    def test_routing_never_hurts(self):
        solo, routed = fleet_cell_pair(cell_spec(), np.random.SeedSequence(4))
        assert routed["performability"] >= solo["performability"]


class TestPairOracle:
    """The pair job == two separate runs on the same ``child_seed`` years."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("fleet_name", fleet_names())
    def test_pair_equals_separate_runs(self, fleet_name, seed):
        spec = cell_spec("SmallPUPS", years=4, fleet=fleet_name)
        job_seed = np.random.SeedSequence(seed)
        pair = fleet_cell_pair(spec, job_seed)
        fleet = get_fleet(fleet_name).with_uniform(
            configuration="SmallPUPS", technique="full-service"
        )
        seeds = [child_seed(job_seed, y) for y in range(4)]
        for record, routing in zip(pair, (False, True)):
            report = reduce_fleet_years(
                simulate_fleet_years(fleet, routing, seeds), fleet, routing
            )
            assert record["routing"] is routing
            assert {k: record[k] for k in SCORES} == {
                k: report[k] for k in SCORES
            }

    def test_jobs_seed_each_pair_with_its_unrouted_cells_seed(self):
        jobs = fleet_frontier_jobs(
            "us-triad", ["NoDG", "LargeEUPS", "MaxPerf"], years=YEARS, seed=9
        )
        seeds = spawn_seeds(9, 6)
        for k, job in enumerate(jobs):
            assert job.seed.spawn_key == seeds[2 * k].spawn_key


class TestCommonRandomNumbers:
    """Both cells of a configuration see the same outage years, so
    routing alone separates them: routed is never worse on any score."""

    @staticmethod
    def assert_routing_never_loses(payload):
        cells = payload["cells"]
        for solo, routed in zip(cells[::2], cells[1::2]):
            assert solo["configuration"] == routed["configuration"]
            assert (solo["routing"], routed["routing"]) == (False, True)
            assert routed["performability"] >= solo["performability"]
            assert routed["availability"] >= solo["availability"]
            assert (
                routed["mean_unserved_seconds_per_year"]
                <= solo["mean_unserved_seconds_per_year"]
            )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("fleet_name", fleet_names())
    def test_default_grid_on_every_named_fleet(self, fleet_name, seed):
        payload = fleet_frontier(fleet_name, configuration_names(), seed=seed)
        self.assert_routing_never_loses(payload)
        if fleet_name == DEFAULT_FLEET:
            # The default request's headline verdict is no sampling luck.
            assert payload["fleet_dominates_single_site"]


class TestJobs:
    def test_one_job_per_configuration(self):
        jobs = fleet_frontier_jobs(
            "us-triad", ["NoDG", "LargeEUPS"], years=YEARS, seed=0
        )
        assert [j.label for j in jobs] == [
            "fleet:us-triad/NoDG",
            "fleet:us-triad/LargeEUPS",
        ]
        assert all("routing" not in j.spec for j in jobs)

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
        assert [
            (c["configuration"], c["routing"]) for c in serial["cells"]
        ] == [("NoDG", False), ("NoDG", True)]
