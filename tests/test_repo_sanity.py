"""Repository-level sanity: docs exist, exports resolve, errors behave,
every source module is reachable from an entry point, and every source
definition is used outside the tests."""

import ast
import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro import errors

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class TestDocs:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/MODELING.md"]
    )
    def test_doc_exists_and_nonempty(self, name):
        path = REPO_ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500

    def test_experiments_doc_covers_every_artifact(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Figure 1", "Figure 3", "Table 1", "Table 2", "Table 3",
            "Table 5", "Table 8", "Figure 5", "Figure 6", "Figure 7",
            "Figure 8", "Figure 9", "Figure 10",
        ):
            assert artifact in text, artifact

    def test_design_doc_maps_every_bench(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        for bench in bench_dir.glob("test_fig*.py"):
            assert bench.name in text, bench.name
        for bench in bench_dir.glob("test_tab*.py"):
            assert bench.name in text, bench.name

    def test_every_example_is_runnable_python(self):
        for example in (REPO_ROOT / "examples").glob("*.py"):
            tree = ast.parse(example.read_text())
            names = {
                node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
            }
            assert "main" in names, example.name

    @pytest.mark.parametrize(
        "example",
        sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
    )
    def test_example_runs(self, example):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / example)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.fleet
        import repro.power
        import repro.sim
        import repro.techniques
        import repro.workloads

        for module in (
            repro.analysis, repro.fleet, repro.power,
            repro.sim, repro.techniques, repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestErrorHierarchy:
    def test_all_domain_errors_are_repro_errors(self):
        for name in (
            "ConfigurationError", "CapacityError", "SimulationError",
            "WorkloadError", "TechniqueError", "InfeasibleError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_validation_errors_are_value_errors(self):
        for cls in (
            errors.ConfigurationError,
            errors.CapacityError,
            errors.WorkloadError,
            errors.TechniqueError,
        ):
            assert issubclass(cls, ValueError), cls

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(errors.SimulationError, RuntimeError)

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.InfeasibleError("x")
        with pytest.raises(errors.ReproError):
            raise errors.CapacityError("x")


def _source_modules():
    """Dotted name -> path of every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path, package):
    """``(module, names)`` for each import in ``path``, function-local ones
    too.  A ``"module:attr"`` string (a lazy import target) counts as an
    import of its module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base, tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.partition(":")[0], ()


def _has_main_guard(path):
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in ast.parse(path.read_text()).body
    )


def _unreached_modules():
    """Non-``__init__`` modules under ``src/repro`` that no entry point
    imports.  The entry points are ``repro.cli``, every module with a
    ``__main__`` guard, and every file under ``benchmarks/``, ``examples/``
    and ``perfbench/``.  ``from pkg import Name`` reaches the submodule
    that binds ``Name`` in ``pkg/__init__.py``; a package's other
    re-exports reach nothing."""
    modules = _source_modules()

    def package_of(name):
        return name if modules[name].name == "__init__.py" else name.rpartition(".")[0]

    def targets(module, names):
        if module not in modules:
            return set()
        if modules[module].name != "__init__.py":
            return {module}
        found = set()
        for name in names:
            if f"{module}.{name}" in modules:
                found |= targets(f"{module}.{name}", ())
                continue
            for base, bound in _imports(modules[module], module):
                if name in bound:
                    found |= targets(base, (name,))
        return found

    entry_files = [
        path
        for folder in ("benchmarks", "examples", "perfbench")
        for path in (REPO_ROOT / folder).rglob("*.py")
    ]
    frontier = {"repro.cli"} | {
        name for name, path in modules.items() if _has_main_guard(path)
    }
    for path in entry_files:
        for module, names in _imports(path, ""):
            frontier |= targets(module, names)
    reached = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for module, names in _imports(modules[name], package_of(name)):
            frontier |= targets(module, names) - reached
    return sorted(
        name for name, path in modules.items()
        if path.name != "__init__.py" and name not in reached
    )


class TestReachability:
    def test_every_module_is_reached_from_an_entry_point(self):
        unreached = _unreached_modules()
        assert not unreached, f"no entry point imports {unreached}"


#: Definitions under ``src/repro`` that no code outside ``tests/`` uses, kept
#: on purpose.  Key: ``module.Qualname``; value: why it stays.  "Pinned" means
#: the named tests must keep passing across commits, so their subject stays
#: in ``src`` until the pin is lifted.
UNCALLED_KEPT = {
    "repro.analysis.export.point_record":
        "pinned: TestRecords::test_point_record_fields",
    "repro.analysis.export.trace_records":
        "pinned: TestRecords::test_trace_records",
    "repro.analysis.report.format_paper_vs_measured":
        "pinned: TestReport::test_paper_vs_measured",
    "repro.checks.guard.InvariantGuard.raise_if_violated":
        "pinned: TestCollectMode::test_raise_if_violated_lists_everything",
    "repro.core.costs.BackupCostModel.breakdown":
        "Eq. (2)'s terms; pinned: TestEquation2Details::test_breakdown_sums",
    "repro.core.costs.CostBreakdown.total_dollars_per_year":
        "Eq. (2)'s total; pinned: TestEquation2Details::test_breakdown_sums",
    "repro.core.planner.ProvisioningPlanner.compare_named_configurations":
        "pinned: TestPlanner::test_compare_named_configurations",
    "repro.core.predictor.OutageDurationPredictor.transition_matrix":
        "pinned: TestMarkovMatrix",
    "repro.core.selection.rank_techniques":
        "pinned: TestRankTechniques::test_rank_sorted_by_cost",
    "repro.core.tco.TCOModel.yearly_loss_for_schedule":
        "pinned: TestTCO::test_schedule_loss",
    "repro.faults.injector.FaultDraw.healthy":
        "tests use it as the no-fault reference draw",
    "repro.fleet.failover.CloudBurstTechnique.burst_cost_dollars":
        "pinned: TestCloudBurst::test_burst_cost_scales_with_duration",
    "repro.fleet.failover.GeoEconomics.breakeven_outage_seconds_per_year":
        "pinned: TestBreakeven",
    "repro.fleet.failover.GeoEconomics.cheaper_than_local_backup":
        "pinned: TestBreakeven::test_cheaper_than_local_backup_monotone_in_price",
    "repro.fleet.sim.FleetAnalyzer":
        "one runner job per fleet year; the smoke gates run the batch path; "
        "pinned: TestFleetAnalyzer",
    "repro.fleet.spec.SiteSpec.spare_capacity":
        "pinned: TestSiteGeometry::test_spare_and_utilization",
    "repro.obs.bench.CheckReport.to_dict":
        "pinned: TestCheck::test_report_serialises",
    "repro.obs.export.span_tree_paths":
        "tests use it as the oracle for span nesting",
    "repro.outages.distributions.EmpiricalDistribution.bucket_for":
        "Figure 1(b)'s buckets; pinned: TestFigure1b::test_bucket_lookup",
    "repro.outages.distributions.fraction_shorter_than":
        "Figure 1(b)'s CDF; pinned: TestFigure1b",
    "repro.outages.events.OutageSchedule.longest_seconds":
        "pinned: TestEvents::test_schedule_totals",
    "repro.outages.events.OutageSchedule.utility_availability":
        "pinned: TestEvents::test_schedule_totals",
    "repro.policy.parse.policy_label": "pinned: TestSpecGrammar::test_labels",
    "repro.power.generator.DieselGenerator.available_at":
        "pinned: TestGenerator::test_not_available_during_transfer",
    "repro.power.generator.DieselGenerator.refuel_full":
        "pinned: TestGenerator::test_refuel",
    "repro.power.placement.ServerLevelBatteryBank.stranded_fraction":
        "pinned: TestBank::test_shrinking_strands_charge",
    "repro.power.ups.UPSSpec.extra_energy_joules":
        "pinned: TestUPSSpec::test_extra_energy_beyond_base",
    "repro.power.ups.UPSUnit.recharge_full":
        "pinned: TestUPSUnit::test_recharge",
    "repro.runner.progress.CollectingProgress":
        "tests use it as a fake progress listener",
    "repro.runner.progress.ConsoleProgress": "pinned: TestConsoleProgress",
    "repro.serve.app._Handler.do_GET": "http.server calls it by name",
    "repro.serve.app._Handler.do_POST": "http.server calls it by name",
    "repro.serve.app._Handler.log_message": "http.server calls it by name",
    "repro.servers.pstates.PStateTable.deepest_within":
        "pinned: TestPowerScaling::test_deepest_within_budget",
    "repro.servers.server.ServerSpec.migration_transfer_seconds":
        "pinned: TestPaperServer::test_migration_lower_bound",
    "repro.servers.server.ServerSpec.min_active_power_watts":
        "pinned: TestPaperServer::test_deepest_state_halves_peak_power",
    "repro.servers.sleepstates.SleepStateTable.standby_power_watts":
        "pinned: TestSleepStates::test_standby_power_s3",
    "repro.sim.datacenter.Datacenter.backup_power_budget_watts":
        "pinned: TestAssemble::test_backup_budget_is_larger_rating",
    "repro.sim.yearly.YearlyResult.worst_event_downtime_seconds":
        "pinned: TestAggregates::test_totals",
    "repro.techniques.base.OutagePlan.fixed_prefix_seconds":
        "pinned: TestPlanValidation::test_peak_power",
    "repro.techniques.base.OutagePlan.terminal_phase":
        "pinned: TestRDMASleep::test_draws_more_than_plain_sleep_less_than_throttle",
    "repro.units.kilowatt_hours":
        "pinned: TestPowerEnergy::test_kwh_in_joules",
    "repro.units.megabytes": "pinned: TestData::test_megabytes",
    "repro.units.runtime_at_power":
        "pinned: TestPowerEnergy::test_runtime_at_power",
    "repro.units.to_gigabytes":
        "pinned: TestData::test_to_gigabytes_roundtrip",
    "repro.units.to_hours": "pinned: TestTime::test_to_hours_roundtrip",
    "repro.units.to_megawatts":
        "pinned: TestPowerEnergy::test_to_megawatts_roundtrip",
    "repro.units.transfer_time": "pinned: TestData::test_transfer_time",
    "repro.units.watt_hours": "pinned: TestPowerEnergy::test_watt_hours",
    "repro.vsim.equivalence.compare_cell":
        "tests use it as the scalar-vs-batch oracle per cell",
    "repro.vsim.yearly._record_batch":
        "the position-major oracle (tests/sim/reference_yearly.py) records "
        "its per-batch metrics through it",
    "repro.workloads.base.WorkloadSpec.crash_downtime_bounds_seconds":
        "Figure 9's SpecCPU crash-downtime range",
    "repro.workloads.latency.LatencySLOModel.quantile_latency_seconds":
        "tests use it as the oracle for the admission bound",
}


def _definitions():
    """``(dotted qualname, name, path, first line, last line)`` of every
    top-level function and class under ``src/repro`` and every method of a
    top-level class; dunders are called implicitly and are skipped."""
    modules = _source_modules()
    for module, path in sorted(modules.items()):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for qualname, member in members:
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                yield (
                    f"{module}.{qualname}", member.name, path,
                    member.lineno, member.end_lineno,
                )


def _names_used(path):
    """``(word, line)`` for every name the code in ``path`` uses:
    identifiers, attributes, imported names and the words of string
    literals (``"module:attr"`` hook targets name their functions).
    Comments, docstrings and an ``__init__``'s re-export lines (its
    imports and ``__all__``) are not uses."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            skipped.add(id(node.body[0].value))
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            ):
                skipped.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
        ):
            text = node.name if isinstance(node, ast.alias) else node.value
            for word in re.findall(r"[A-Za-z_]\w*", text):
                yield word, node.lineno


def _uncalled_definitions():
    """Qualnames of definitions whose name no code in ``src/``,
    ``benchmarks/``, ``examples/`` or ``perfbench/`` uses outside the
    definition itself."""
    uses = {}
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        for path in (REPO_ROOT / folder).rglob("*.py"):
            for word, line in _names_used(path):
                uses.setdefault(word, []).append((path, line))
    return sorted(
        qualname
        for qualname, name, path, first, last in _definitions()
        if all(
            where == path and first <= line <= last
            for where, line in uses.get(name, ())
        )
    )


def _serve_config_keywords():
    """Every keyword a non-test ``ServeConfig(...)`` call passes."""
    callers = [SRC / "repro" / "cli.py", SRC / "repro" / "serve" / "drill.py"]
    callers += sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
    keywords = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "ServeConfig"
                or getattr(node.func, "attr", None) == "ServeConfig"
            ):
                keywords.update(kw.arg for kw in node.keywords if kw.arg)
    return keywords


class TestNameReachability:
    def test_every_definition_is_named_outside_tests(self):
        uncalled = set(_uncalled_definitions())
        unexplained = sorted(uncalled - set(UNCALLED_KEPT))
        assert not unexplained, (
            f"nothing outside tests/ names {unexplained}: cut them, or "
            "keep them in UNCALLED_KEPT with a reason"
        )
        stale = sorted(set(UNCALLED_KEPT) - uncalled)
        assert not stale, f"UNCALLED_KEPT names {stale}, which have callers"

    def test_every_serve_config_field_is_set_by_a_caller(self):
        from repro.serve.app import ServeConfig

        fields = {field.name for field in dataclasses.fields(ServeConfig)}
        unset = sorted(fields - _serve_config_keywords())
        assert not unset, (
            f"no CLI, drill or benchmark sets the ServeConfig fields {unset}: "
            "make them constants"
        )
