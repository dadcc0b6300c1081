"""The process-wide memos behind the point analyses.

``OutageTechnique.compile_plan``, ``BackupConfiguration.normalized_cost``
and ``canonical_encode`` of frozen dataclasses each keep a
:class:`repro.memo.BoundedMemo`.  A hit must be indistinguishable from a
miss; these tests hold each memo to that, one property a test.
"""

import gc
import sys
import threading
import types
from dataclasses import dataclass, replace

import pytest

from repro import obs
from repro.core import configurations
from repro.core.configurations import PAPER_CONFIGURATIONS, BackupConfiguration
from repro.core.performability import make_datacenter, plan_context
from repro.errors import TechniqueError
from repro.fleet.failover import GeoFailoverTechnique
from repro.fleet.spec import get_fleet
from repro.memo import BoundedMemo
from repro.runner import jobs
from repro.runner.jobs import Job, canonical_encode
from repro.techniques import base
from repro.techniques.hybrid import SustainThenSave
from repro.techniques.migration import Migration
from repro.techniques.nop import FullService
from repro.techniques.registry import get_technique, technique_names
from repro.techniques.sleep import Sleep
from repro.techniques.throttling import Throttling
from repro.workloads.registry import get_workload, workload_names


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in (base._PLANS, configurations._COSTS, jobs._ENCODINGS):
        memo.clear()
    yield
    for memo in (base._PLANS, configurations._COSTS, jobs._ENCODINGS):
        memo.clear()


def _context(workload_name, configuration):
    return plan_context(make_datacenter(get_workload(workload_name), configuration))


def _compile(technique, context):
    """The plan, or the infeasible compile's message."""
    try:
        return technique.compile_plan(context)
    except TechniqueError as exc:
        return str(exc)


def _direct(technique, context):
    """What :meth:`plan` itself answers, with no memo in the way."""
    try:
        return technique.plan(context)
    except TechniqueError as exc:
        return str(exc)


@pytest.mark.parametrize("workload_name", workload_names())
def test_hit_equals_miss_for_every_technique_and_configuration(workload_name):
    for name in technique_names():
        for configuration in PAPER_CONFIGURATIONS:
            miss = _compile(get_technique(name), _context(workload_name, configuration))
            # A new instance on a new, equal context: a hit.
            hit = _compile(get_technique(name), _context(workload_name, configuration))
            direct = _direct(
                get_technique(name), _context(workload_name, configuration)
            )
            assert hit == miss == direct, (name, configuration.name)
            if not isinstance(hit, str):
                assert type(hit.phases) is tuple
                assert hit is miss


class _CountingFullService(FullService):
    calls = 0

    def plan(self, context):
        type(self).calls += 1
        return super().plan(context)


def test_infeasible_hit_raises_a_fresh_error_and_stores_no_traceback():
    # Full service draws the whole cluster: over a half-power UPS budget.
    context = _context("specjbb", configurations.get_configuration("SmallPUPS"))
    _CountingFullService.calls = 0
    technique = _CountingFullService()
    message = _direct(FullService(), context)
    assert isinstance(message, str)
    raised = []
    for _ in range(1001):
        with pytest.raises(TechniqueError) as info:
            technique.compile_plan(context)
        raised.append(info.value)
    assert _CountingFullService.calls == 1  # 1 miss, then 1,000 hits
    assert len({id(error) for error in raised}) == len(raised)
    assert all(str(error) == message for error in raised)
    stored = list(base._PLANS._entries.values())
    assert stored == [message]
    seen, stack = set(), list(stored)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(
            obj, (BaseException, types.TracebackType, types.FrameType)
        )
        stack.extend(gc.get_referents(obj))


def _fill_plans(count):
    technique = FullService()
    context = _context("memcached", configurations.get_configuration("MaxPerf"))
    for i in range(count):
        technique.compile_plan(
            replace(context, power_budget_watts=context.power_budget_watts + i)
        )


def _fill_costs(count):
    for i in range(count):
        BackupConfiguration(f"c{i}", 0.0, 0.5, 60.0 + i).normalized_cost()


def _fill_encodings(count):
    workload = get_workload("websearch")
    for i in range(count):
        canonical_encode(replace(workload, utilization=0.5 + i * 1e-6))


@pytest.mark.parametrize(
    "memo, fill",
    [
        (base._PLANS, _fill_plans),
        (configurations._COSTS, _fill_costs),
        (jobs._ENCODINGS, _fill_encodings),
    ],
    ids=["plans", "costs", "encodings"],
)
def test_memo_stays_within_its_entry_bound(memo, fill):
    fill(memo.max_entries + 50)
    assert len(memo) == memo.max_entries


def test_threads_compiling_the_same_keys_get_equal_plans():
    keys = [
        (get_technique(name), _context(workload_name, configuration))
        for name in ("throttling", "sleep-l", "throttle+sleep-l", "migration")
        for workload_name in ("specjbb", "memcached")
        for configuration in PAPER_CONFIGURATIONS
    ]
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def compile_all(slot):
        start.wait()
        results[slot] = [_compile(t, c) for t, c in keys]

    threads = [
        threading.Thread(target=compile_all, args=(i,)) for i in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [_direct(t, c) for t, c in keys]
    for found in results:
        assert found == expected
        # Every thread got the one stored plan, not a racing copy.
        for mine, first in zip(found, results[0]):
            assert isinstance(mine, str) or mine is first


@pytest.mark.parametrize(
    "one, other",
    [
        (Throttling(pstate_index=2), Throttling(pstate_index=3)),
        (Throttling(pstate_index=2), Throttling(pstate_index=2, tstate_index=3)),
        (Migration(), Migration(shrink_factor=0.25)),
        (Sleep(), Sleep(low_power=True)),
        (
            SustainThenSave(Throttling(), Sleep(low_power=True)),
            SustainThenSave(Throttling(pstate_index=6), Sleep(low_power=True)),
        ),
        (
            GeoFailoverTechnique(get_fleet("us-triad"), "east"),
            GeoFailoverTechnique(get_fleet("us-triad"), "west"),
        ),
        (
            GeoFailoverTechnique(get_fleet("us-triad"), "east"),
            GeoFailoverTechnique(
                replace(get_fleet("us-triad"), redirect_seconds=30.0), "east"
            ),
        ),
    ],
    ids=[
        "pstate", "tstate", "shrink", "low-power", "hybrid-part", "fleet-site",
        "fleet-spec",
    ],
)
def test_identity_covers_every_constructor_parameter(one, other):
    assert base._identity(one) != base._identity(other)
    context = _context("websearch", configurations.get_configuration("LargeEUPS"))
    assert _compile(one, context) == _direct(one, context)
    assert _compile(other, context) == _direct(other, context)


def test_traced_hit_records_a_span_marked_hit():
    context = _context("specjbb", configurations.get_configuration("NoDG"))
    with obs.session() as session:
        get_technique("sleep-l").compile_plan(context)
        get_technique("sleep-l").compile_plan(context)
    spans = [r for r in session.tracer.records if r["name"] == "technique.plan"]
    assert [span["attrs"]["hit"] for span in spans] == [False, True]
    assert spans[0]["attrs"]["phases"] == spans[1]["attrs"]["phases"]


@dataclass(frozen=True)
class _Spec:
    value: float


@pytest.mark.parametrize(
    "one, other", [(0.0, -0.0), (1, 1.0)], ids=["signed-zero", "int-float"]
)
def test_equal_specs_keep_distinct_encodings(one, other):
    first, second = _Spec(one), _Spec(other)
    assert first == second and hash(first) == hash(second)
    assert canonical_encode(first)["fields"]["value"] is one
    assert canonical_encode(second)["fields"]["value"] is other
    assert repr(canonical_encode(first)) != repr(canonical_encode(second))


def test_equal_workload_specs_keep_distinct_job_fingerprints():
    workload = get_workload("specjbb")
    as_int = replace(workload, utilization=1)
    as_float = replace(workload, utilization=1.0)
    assert as_int == as_float
    fingerprints = [
        Job(fn=_fingerprinted, spec={"workload": spec}).fingerprint
        for spec in (as_int, as_float, as_int)
    ]
    assert fingerprints[0] != fingerprints[1]
    assert fingerprints[0] == fingerprints[2]


def _fingerprinted(spec, seed):  # pragma: no cover - never run
    return None


def test_bounded_memo_keeps_the_first_value_stored():
    memo = BoundedMemo(2)
    assert memo.put("k", 1) == 1
    assert memo.put("k", 2) == 1
    assert memo.get("k") == 1
    with pytest.raises(ValueError):
        BoundedMemo(0)
