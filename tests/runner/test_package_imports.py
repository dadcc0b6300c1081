"""repro.runner must load without reaching repro.analysis.

repro.analysis runs its studies on repro.runner, so a runner module that
imports repro.analysis at top level closes a cycle: any import that
reaches repro.analysis before repro.runner is loaded then fails with a
partially initialised module.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
RUNNER_INIT = SRC / "repro" / "runner" / "__init__.py"


def top_level_imports(path):
    """Modules named by the module-level import statements of ``path``."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
    return names


def module_path(name):
    base = SRC.joinpath(*name.split("."))
    package = base / "__init__.py"
    return package if package.exists() else base.with_suffix(".py")


def test_runner_package_imports_no_analysis():
    submodules = [
        name
        for name in top_level_imports(RUNNER_INIT)
        if name.startswith("repro.runner.")
    ]
    assert submodules, "repro.runner imports none of its modules"
    offenders = {
        name: [
            imported
            for imported in top_level_imports(module_path(name))
            if imported == "repro.analysis"
            or imported.startswith("repro.analysis.")
        ]
        for name in submodules
    }
    assert not any(offenders.values()), offenders

