"""Golden digests do not depend on which Python's ``sum`` runs the reduce.

From Python 3.12 builtin ``sum`` compensates float additions (Neumaier),
so a reduce written with ``sum`` can change its last bit between
interpreters.  Payload reduces use :func:`repro.units.ordered_sum`
instead.  This test holds that on any interpreter: it rebinds ``sum`` in
every ``repro`` module to a 3.12-style compensated sum and requires every
golden digest to come out unchanged.
"""

import importlib
import math
import pkgutil
import sys

import pytest

import repro
from tests.golden.test_golden import (
    CLI_CORPUS,
    CORPORA,
    _load,
    cli_digest,
    payload_digest,
)


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 computes it for ints and floats."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            result = _finish(total, compensation) + item
            break
        else:
            return _finish(total, compensation)
    for item in items:
        result = result + item
    return result


def _finish(total, compensation):
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_compensated_sum_differs_from_the_plain_one():
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0
    plain = 0
    for value in values:
        plain += value
    assert plain != 1.0


@pytest.fixture(scope="module")
def compensated_builtins():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    patched = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and "sum" not in vars(module)
    ]
    for module in patched:
        module.sum = compensated_sum
    yield
    for module in patched:
        del module.sum


def test_every_golden_digest_survives_a_compensated_sum(compensated_builtins):
    changed = [
        f"{corpus[:-5]}:{case['name']}"
        for corpus in CORPORA
        for case in _load(corpus)
        if payload_digest(case["request"]) != case["sha256"]
    ]
    changed += [
        f"cli:{case['name']}"
        for case in _load(CLI_CORPUS)
        if cli_digest(case["argv"]) != case["sha256"]
    ]
    assert changed == []
