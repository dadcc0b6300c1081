"""Repository-level sanity: docs exist, exports resolve, errors behave,
and every source module is reachable from an entry point."""

import ast
import os
import pathlib
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
