"""The fast lowest-cost UPS search against the bisecting reference.

:func:`repro.core.selection.lowest_cost_backup` compiles each plan once
per UPS power fraction, answers runtime probes of plans with no
adaptive phase by ``runtime >= R*`` from one simulated drain, and skips
fractions that cannot win.  Over every registered technique, the
Table-7 workloads, outages from 5 s to 4 h and two cluster sizes this
test requires:

* the result is ``repr``-equal to the loop it replaced
  (:mod:`tests.core.reference_selection`), or both raise
  :class:`InfeasibleError`;
* on every probe that loop simulates, the solved verdict
  ``runtime >= R*`` is the simulator's verdict — and a plan that crashes
  at the widest runtime survives no probe (the reference finds nothing).
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.selection import (
    _compile_fraction,
    _drain_threshold,
    lowest_cost_backup,
)
from repro.errors import InfeasibleError
from repro.power.ups import DEFAULT_FREE_RUNTIME_SECONDS
from repro.servers.server import PAPER_SERVER
from repro.techniques.registry import get_technique, technique_names
from repro.workloads.registry import get_workload
from tests.core.reference_selection import reference_lowest_cost_backup

WORKLOADS = ("specjbb", "websearch", "memcached", "speccpu")
DURATIONS = (5.0, 60.0, 300.0, 900.0, 1800.0, 3600.0, 14400.0)
SERVERS = (4, 16)


def _sized(search, technique, workload, seconds, servers, **kwargs):
    try:
        return repr(
            search(technique, workload, seconds, num_servers=servers, **kwargs)
        )
    except InfeasibleError:
        return "infeasible"


def _check_probes(technique, workload, seconds, servers, probes) -> int:
    """Assert the solved verdict on every reference probe; count them."""
    widest = max(4.0 * seconds + 7200.0, DEFAULT_FREE_RUNTIME_SECONDS)
    by_fraction: Dict[float, List[Tuple[float, bool]]] = {}
    for fraction, runtime, survived in probes:
        by_fraction.setdefault(fraction, []).append((runtime, survived))
    solved = 0
    for fraction, seen in by_fraction.items():
        reference, plan = _compile_fraction(
            technique, workload, fraction, servers, PAPER_SERVER, widest
        )
        if plan is None:
            assert not any(survived for _, survived in seen)
            continue
        if any(phase.is_adaptive for phase in plan.phases):
            continue  # adaptive plans keep simulated probes
        threshold = _drain_threshold(reference, plan, seconds, widest)
        for runtime, survived in seen:
            verdict = threshold is not None and runtime >= threshold
            assert verdict == survived, (fraction, runtime, threshold)
            solved += 1
    return solved


@pytest.mark.parametrize("servers", SERVERS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_sizing_matches_reference(workload_name, servers):
    workload = get_workload(workload_name)
    solved = 0
    for name in technique_names():
        technique = get_technique(name)
        for seconds in DURATIONS:
            probes: list = []
            expected = _sized(
                reference_lowest_cost_backup,
                technique,
                workload,
                seconds,
                servers,
                probes=probes,
            )
            actual = _sized(lowest_cost_backup, technique, workload, seconds, servers)
            assert actual == expected, (name, seconds)
            solved += _check_probes(technique, workload, seconds, servers, probes)
    assert solved > 0
