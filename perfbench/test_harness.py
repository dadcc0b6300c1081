"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib
import gate
import layers
import run
import specs
import traffic
from repro.errors import ConfigurationError
from repro.fleet.spec import get_fleet
from repro.serve.analyses import evaluate_request
from repro.serve.protocol import parse_request

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _first(workload: str, seed: int, client: int, n: int = 200):
    return list(itertools.islice(traffic.sequence(workload, seed, client), n))


def test_tail_reports_a_percentile_only_with_ten_samples_beyond_it():
    for n in range(1, 400):
        values = [float(i) for i in range(n)]
        value, label = run.tail(values)
        if label == "p50":
            continue
        q = int(label[1:]) / 100.0
        assert run.percentile(values, q) == (value, sum(v > value for v in values))
        assert sum(v > value for v in values) >= run.MIN_BEYOND
    assert run.tail([float(i) for i in range(100)])[1] == "p90"
    assert run.tail([float(i) for i in range(99)]) == (49.0, "p50")


def test_timings_are_scaled_by_the_reference_time_next_to_them():
    ms = 1_000_000
    slow, fast = [2 * calib.REFERENCE_MS] * 3, [calib.REFERENCE_MS / 2] * 3
    phase = run.Phase(t0_ns=0, t1_ns=1030 * ms)
    # host at half speed up to the second pause, twice as fast at the last
    phase.pauses = [(0, 10 * ms, slow), (510 * ms, 520 * ms, slow),
                    (1020 * ms, 1030 * ms, fast)]
    phase.served = [(b"{}", 200, b""), (b"{}", 200, b"")]
    phase.sent_ns = [100 * ms, 600 * ms]
    phase.latency_ms = [300.0, 300.0]
    assert phase.wall_s == pytest.approx(1.0)
    # the second request lies between a slow and a fast pause: the median
    # of their samples is 15 ms
    assert phase.scaled_latency_ms == pytest.approx([150.0, 240.0])
    assert phase.scaled_s == pytest.approx(0.5 * 0.5 + 0.5 * 0.8)
    assert phase.reference_ms == calib.REFERENCE_MS * 2
    assert calib.scale(calib.time_on(run.SERVER_CPU, 1)) > 0


def test_same_seed_same_request_bytes_and_other_seed_other_bytes():
    for workload in specs.WORKLOADS:
        for client in range(traffic.CLIENTS[workload]):
            assert _first(workload, 7, client) == _first(workload, 7, client)
            assert _first(workload, 7, client) != _first(workload, 8, client)
    assert _first("serve-mix", 7, 0) != _first("serve-mix", 7, 1)


def test_requests_are_protocol_bodies_and_serve_mix_repeats_a_fifth():
    for workload in specs.WORKLOADS:
        for body in _first(workload, 3, 0, 50) + traffic.warmups(workload):
            request = json.loads(body)
            assert set(request) == {"v", "analysis", "params"}
            assert request["v"] == 1
    repeats = 0
    for client in range(traffic.CLIENTS["serve-mix"]):
        bodies = _first("serve-mix", 3, client, 150)  # about one run's worth
        repeats += len(bodies) - len(set(bodies))
    assert 0.15 < repeats / 300 < 0.25
    kinds = {json.loads(b)["analysis"] for b in _first("serve-mix", 3, 0)}
    assert kinds == {k for k, _ in traffic.MIX}


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in specs.END_TO_END] + [m.name for m in specs.LAYERS]
    assert len(names) == len(set(names))
    for m in list(specs.END_TO_END) + list(specs.LAYERS):
        assert NAME.fullmatch(m.name) and len(m.name) <= 64, m.name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit), m.unit
        assert m.better in ("lower", "higher")


def test_benchmark_json_keeps_within_its_limits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    assert set(declared["workloads"][0]) == {"name", "why"}
    assert set(declared["end_to_end"][0]) == {"name", "unit", "better", "bound"}
    assert set(declared["per_layer"][0]) == {"name", "unit", "better"}
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 2 <= len(declared["workloads"]) <= 8
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_every_layer_metric_names_what_it_should_move_and_is_computed():
    assert set(specs.MOVES) == {m.name for m in specs.LAYERS}
    for m in specs.LAYERS:
        assert m.moves in {e.name for e in specs.END_TO_END}, m
        assert m.on in specs.WORKLOADS, m
    computed = set(layers.layer_metrics([], [], {}))
    computed |= {"process.cpu_s_per_req", "trace.overhead_frac"}
    assert computed == {m.name for m in specs.LAYERS}


def test_span_log_self_time_extras_and_absent_hooks():
    log = layers.SpanLog()

    def inner(x):
        time.sleep(0.01)
        return [x] * 3

    def outer(x):
        time.sleep(0.01)
        return wrapped_inner(x)

    wrapped_inner = log.wrap(inner, "a.inner", lambda a, k, r: len(r))
    wrapped_outer = log.wrap(outer, "a.outer")
    assert wrapped_outer(1) == [1, 1, 1]
    (i_name, i_id, i_parent, _, _, i_dur, i_self, i_x), (o_name, o_id, o_parent, _, _, o_dur, o_self, o_x) = log.spans
    assert (i_name, o_name, i_parent, o_parent, i_x, o_x) == ("a.inner", "a.outer", o_id, 0, 3, None)
    assert i_self == i_dur and o_self == o_dur - i_dur
    status = log.install((("x.gone", "json:no_such_function", True, None),))
    assert status["x.gone"].startswith("absent")
    assert layers.layer_status(status) == {"x": "absent"}


def test_every_hook_target_exists_at_this_commit():
    """A refactor that moves a hooked function shows up here (the traced
    run itself only reports that layer as absent)."""
    for name, target, _rebind, _extra in layers.HOOKS:
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_gate_checks_envelopes():
    request = traffic.encode("whatif", {"workload": "memcached"})
    good = {"v": 1, "ok": True, "analysis": "whatif", "fingerprint": "0" * 64,
            "result": {}, "meta": {}}
    assert gate.envelope_error(request, 200, json.dumps(good).encode()) is None
    assert gate.envelope_error(request, 500, b"{}").startswith("HTTP 500")
    bad = dict(good, result=[])
    assert "result" in gate.envelope_error(request, 200, json.dumps(bad).encode())


def test_known_failing_pair_still_fails_in_the_program():
    """The workloads leave ``traffic.KNOWN_FAILING`` out because the
    program fails on it; once this stops failing, drop the pair."""
    configuration, technique = sorted(traffic.KNOWN_FAILING)[0]
    request = parse_request(traffic.encode("availability", {
        "workload": "memcached", "configuration": configuration,
        "technique": technique, "years": 1000, "seed": 1707611285,
    }))
    with pytest.raises(ConfigurationError, match="outage minutes must be >= 0"):
        evaluate_request(request)


def test_fleet_request_is_the_programs_default_and_site_years_counts_its_work():
    body = next(traffic.sequence("fleet-frontier", 5, 0))
    params = json.loads(body)["params"]
    bare = traffic.encode("fleet_frontier", {"seed": params["seed"]})
    assert parse_request(body) == parse_request(bare)
    assert traffic.site_years(body) == 3 * 40 * 9 * 2
    small = traffic.encode("fleet_frontier", dict(
        params, configurations=["NoDG", "MinCost"], years=2))
    cells = evaluate_request(parse_request(small))["cells"]
    sites = len(get_fleet(traffic.FLEET).sites)
    assert sites == traffic.FLEET_SITES[traffic.FLEET]
    assert traffic.site_years(small) == sites * sum(c["years"] for c in cells)
