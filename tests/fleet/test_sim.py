"""Fleet Monte-Carlo jobs: determinism, independence, aggregation."""

import numpy as np
import pytest

from repro.analysis.availability import _simulate_year
from repro.core.configurations import get_configuration
from repro.core.performability import (
    make_datacenter,
    make_plant,
    plan_power_budget_watts,
)
from repro.errors import RunnerError
from repro.fleet.sim import (
    FleetAnalyzer,
    reduce_fleet_years,
    simulate_fleet_year,
    simulate_fleet_years,
)
from repro.fleet.spec import fleet_names, get_fleet
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.executor import SerialExecutor
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.workloads.registry import get_workload

from tests.fleet.reference import reference_fleet_year

YEARS = 3


def fleet_year(fleet, seed_tree, routing=True):
    return simulate_fleet_year({"fleet": fleet, "routing": routing}, seed_tree)


class TestSimulateFleetYear:
    def test_requires_seed(self):
        with pytest.raises(RunnerError):
            simulate_fleet_year(
                {"fleet": get_fleet("us-triad"), "routing": True}, None
            )

    def test_seeded_reproducibility(self):
        fleet = get_fleet("us-triad").with_shocks(4.0, 0.4)
        a = fleet_year(fleet, np.random.SeedSequence(5))
        b = fleet_year(fleet, np.random.SeedSequence(5))
        assert a == b

    def test_same_seed_objects_replay_the_years(self):
        fleet = get_fleet("us-triad").with_shocks(4.0, 0.4)
        seeds = np.random.SeedSequence(5).spawn(3)
        first = simulate_fleet_years(fleet, True, seeds)
        assert simulate_fleet_years(fleet, True, seeds) == first

    def test_per_site_keys_match_single_site_job(self):
        result = fleet_year(get_fleet("us-triad"), np.random.SeedSequence(0))
        for block in result["sites"].values():
            assert set(block) == {
                "downtime_seconds",
                "crashes",
                "outages",
                "perf_sum",
                "perf_weight",
                "dg_start_failures",
            }

    def test_independence_regression_bit_identical(self):
        """Uncorrelated fleet == each site simulated alone, dict for dict.

        The satellite pin: the fleet layer must never perturb the
        certified single-site path.
        """
        fleet = get_fleet("us-triad")
        result = fleet_year(fleet, np.random.SeedSequence(7))
        # Re-derive the same positional subtree from a fresh SeedSequence
        # (spawning is stateful on the parent object).
        site_seeds = np.random.SeedSequence(7).spawn(len(fleet.sites))
        for site, site_seed in zip(fleet.sites, site_seeds):
            workload = get_workload(site.workload)
            datacenter = make_datacenter(
                workload, get_configuration(site.configuration), site.servers
            )
            context = TechniqueContext(
                cluster=datacenter.cluster,
                workload=workload,
                power_budget_watts=plan_power_budget_watts(datacenter),
            )
            plan = get_technique(site.technique).compile_plan(context)
            single = _simulate_year(
                {
                    "datacenter": datacenter,
                    "plan": plan,
                    "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
                },
                site_seed,
            )
            assert single == result["sites"][site.name]

    def test_routing_flag_does_not_touch_site_results(self):
        """Routing changes only the fleet totals — site streams are
        position-stable regardless of the flag."""
        fleet = get_fleet("us-triad")
        routed = fleet_year(fleet, np.random.SeedSequence(9), routing=True)
        solo = fleet_year(fleet, np.random.SeedSequence(9), routing=False)
        assert routed["sites"] == solo["sites"]
        assert routed["fleet"]["served"] >= solo["fleet"]["served"]

    def test_shocks_add_downtime(self):
        quiet = get_fleet("regional-quad")
        stormy = quiet.with_shocks(12.0, 0.8)
        seeds = np.random.SeedSequence(3).spawn(6)
        fresh = np.random.SeedSequence(3).spawn(6)
        quiet_down = sum(
            sum(s["downtime_seconds"] for s in fleet_year(quiet, seed)["sites"].values())
            for seed in seeds
        )
        stormy_down = sum(
            sum(s["downtime_seconds"] for s in fleet_year(stormy, seed)["sites"].values())
            for seed in fresh
        )
        assert stormy_down > quiet_down


class TestFleetAnalyzer:
    def test_worker_count_invariance(self):
        fleet = get_fleet("us-triad").with_shocks(4.0, 0.4)
        serial = FleetAnalyzer(fleet, seed=1).analyze(
            years=YEARS, executor=SerialExecutor()
        )
        pooled = FleetAnalyzer(fleet, seed=1).analyze(years=YEARS, jobs=2)
        assert serial == pooled

    def test_report_shape(self):
        fleet = get_fleet("coastal-pair")
        report = FleetAnalyzer(fleet, seed=0).analyze(
            years=YEARS, executor=SerialExecutor()
        )
        assert report["fleet"] == "coastal-pair"
        assert report["years_simulated"] == YEARS
        assert report["sites"] == ["virginia", "oregon"]
        assert 0.0 <= report["availability"] <= 1.0
        assert 0.0 <= report["performability"] <= 1.0
        assert set(report["per_site"]) == {"virginia", "oregon"}
        for block in report["per_site"].values():
            assert 0.0 <= block["availability"] <= 1.0

    def test_prepare_job_fingerprints_stable(self):
        fleet = get_fleet("us-triad")
        jobs_a, _ = FleetAnalyzer(fleet, seed=2).prepare(years=2)
        jobs_b, _ = FleetAnalyzer(fleet, seed=2).prepare(years=2)
        assert [j.fingerprint for j in jobs_a] == [
            j.fingerprint for j in jobs_b
        ]
        # seed participates in the fingerprint
        jobs_c, _ = FleetAnalyzer(fleet, seed=3).prepare(years=2)
        assert [j.fingerprint for j in jobs_a] != [
            j.fingerprint for j in jobs_c
        ]

    def test_zero_years_rejected(self):
        with pytest.raises(RunnerError):
            FleetAnalyzer(get_fleet("us-triad")).prepare(years=0)

    def test_reduce_requires_values(self):
        with pytest.raises(RunnerError):
            reduce_fleet_years([], get_fleet("us-triad"), True)


class TestBatchAgainstScalarReference:
    """The batch engine against the scalar runner plus the scalar router.

    Every named fleet with correlated shocks on (so merged schedules,
    multi-site dark years and shared regions all occur), routing on and
    off, compared dict for dict with ``==``.
    """

    @pytest.mark.parametrize("name", fleet_names())
    @pytest.mark.parametrize("routing", [True, False])
    def test_batch_years_equal_scalar_years(self, name, routing):
        fleet = get_fleet(name).with_shocks(6.0, 0.6)
        batch = simulate_fleet_years(
            fleet, routing, np.random.SeedSequence(11).spawn(4)
        )
        scalar = [
            reference_fleet_year(fleet, routing, seed)
            for seed in np.random.SeedSequence(11).spawn(4)
        ]
        assert batch == scalar

    def test_mixed_plants_in_one_fleet(self):
        """Sites on different plants run through separate kernels."""
        from dataclasses import replace

        base = get_fleet("regional-quad").with_shocks(6.0, 0.6)
        fleet = replace(
            base,
            sites=(
                replace(base.sites[0], configuration="NoDG"),
                replace(base.sites[1], technique="sleep-l"),
                base.sites[2],
                replace(base.sites[3], workload="memcached", servers=8),
            ),
        )
        batch = simulate_fleet_years(
            fleet, True, np.random.SeedSequence(5).spawn(3)
        )
        scalar = [
            reference_fleet_year(fleet, True, seed)
            for seed in np.random.SeedSequence(5).spawn(3)
        ]
        assert batch == scalar

    def test_unreliable_engines_roll_per_outage(self, monkeypatch):
        """DG start rolls, drawn lane-parallel over shock-merged years."""
        from dataclasses import replace

        import repro.fleet.sim as fleet_sim
        import tests.fleet.reference as reference

        def unreliable_plant(*args, **kwargs):
            datacenter, plan = make_plant(*args, **kwargs)
            engine = replace(datacenter.generator, start_reliability=0.7)
            return replace(datacenter, generator=engine), plan

        monkeypatch.setattr(fleet_sim, "make_plant", unreliable_plant)
        monkeypatch.setattr(reference, "make_plant", unreliable_plant)
        # Sites 1 and 3 have an engine to roll; 0 and 2 roll nothing.
        base = get_fleet("regional-quad").with_shocks(6.0, 0.6)
        fleet = replace(
            base,
            sites=tuple(
                replace(site, configuration="DG-SmallPUPS") if i % 2 else site
                for i, site in enumerate(base.sites)
            ),
        )
        batch = simulate_fleet_years(
            fleet, True, np.random.SeedSequence(8).spawn(4)
        )
        scalar = [
            reference_fleet_year(fleet, True, seed)
            for seed in np.random.SeedSequence(8).spawn(4)
        ]
        assert batch == scalar
        assert any(
            year["sites"][site]["dg_start_failures"]
            for year in batch
            for site in year["sites"]
        )

    def test_traced_sample_counts_scalar_years(self):
        from repro import obs

        # Seed 4's years redo one site-year on the scalar sampler: 14
        # outages whose first placement collides.
        with obs.session() as session:
            simulate_fleet_years(
                get_fleet("us-triad"), True, np.random.SeedSequence(4).spawn(6)
            )
        (sample,) = [r for r in session.tracer.records if r["name"] == "sample"]
        assert sample["attrs"]["scalar_years"] >= 1

    def test_one_year_job_is_the_batch_of_one(self):
        fleet = get_fleet("coastal-pair").with_shocks(6.0, 0.6)
        seeds = np.random.SeedSequence(2).spawn(3)
        batch = simulate_fleet_years(fleet, True, seeds)
        singles = [
            fleet_year(fleet, seed)
            for seed in np.random.SeedSequence(2).spawn(3)
        ]
        assert batch == singles
